// Tiered time-series store benchmark (DESIGN.md §15). Three arms:
//
//   compression  — hourly latency series (steady cadence, bounded jitter)
//                  sealed and compacted through the Gorilla-lineage codec;
//                  the segment bytes must undercut the raw encoding
//                  (16 B/sample: int64 timestamp + double) by >= 5x.
//   range        — p99-over-time for every key over the full horizon (90
//                  virtual days x 1k keys at full scale), answered from
//                  compressed segments by streaming cursors — no series is
//                  ever materialized; reports windows/s and samples/s.
//   determinism  — the same append/advance schedule at 1 thread vs the
//                  machine width; segment layout and dataset digest must
//                  match bit-for-bit.
//
// Writes BENCH_tsdb.json (parse-checked by scripts/ci.sh tsdb-smoke via
// bench_json_check; the compression floor and determinism flag are awk
// gates there too).
//
//   bench_tsdb [--tiny]
//
// --tiny shrinks the key count to CI-smoke scale (~1 s) but keeps the
// 90-day horizon so the range arm still spans the full window count.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace tero;

namespace {

constexpr std::int64_t kDayMs = 86'400'000;
constexpr std::int64_t kHourMs = 3'600'000;

std::string series_key(std::size_t k) {
  return "game" + std::to_string(k % 5) + "|C" + std::to_string(k % 37) +
         "|key" + std::to_string(k);
}

/// Hourly latency samples per key per day: a per-key baseline plus bounded
/// jitter, the shape real per-{location, game} window means take. One
/// advance per virtual day drives seal + compaction + retention.
void load(tsdb::TimeSeriesStore& store, std::size_t keys, int days,
          std::uint64_t seed) {
  for (int day = 0; day < days; ++day) {
    for (std::size_t k = 0; k < keys; ++k) {
      util::Rng rng = util::Rng::indexed(
          util::mix_seed(seed, static_cast<std::uint64_t>(day)), k);
      const double base = 25.0 + static_cast<double>(k % 60);
      for (int hour = 0; hour < 24; ++hour) {
        store.append(series_key(k), day * kDayMs + hour * kHourMs,
                     base + std::floor(rng.uniform(0.0, 8.0)));
      }
    }
    store.advance_to((day + 1) * kDayMs);
  }
}

std::string hex64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  const int days = 90;
  const std::size_t keys = tiny ? 100 : 1000;
  const std::size_t hw = util::ThreadPool::resolve(0);
  const std::size_t wide = hw > 1 ? hw : 2;

  // ---- compression + ingest -----------------------------------------------
  bench::header("tsdb: ingest + compression (" + std::to_string(keys) +
                " keys x " + std::to_string(days) + " virtual days, hourly)");
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  const auto ingest_start = std::chrono::steady_clock::now();
  load(store, keys, days, 7);
  const double ingest_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - ingest_start)
                               .count();
  const tsdb::TimeSeriesStore::Stats stats = store.stats();
  const double ratio =
      stats.compressed_bytes > 0
          ? static_cast<double>(stats.raw_bytes) /
                static_cast<double>(stats.compressed_bytes)
          : 0.0;
  const double bits_per_sample =
      stats.segment_samples > 0
          ? 8.0 * static_cast<double>(stats.compressed_bytes) /
                static_cast<double>(stats.segment_samples)
          : 0.0;
  util::Table ingest_table({"samples", "segments", "raw MiB", "stored MiB",
                            "ratio", "bits/sample", "Msamples/s"});
  ingest_table.add_row(
      {std::to_string(stats.segment_samples + stats.head_samples),
       std::to_string(stats.segments),
       util::fmt_double(static_cast<double>(stats.raw_bytes) / 1048576.0, 2),
       util::fmt_double(
           static_cast<double>(stats.compressed_bytes) / 1048576.0, 2),
       util::fmt_double(ratio, 2), util::fmt_double(bits_per_sample, 2),
       util::fmt_double(static_cast<double>(stats.segment_samples) /
                            (ingest_ms * 1e3),
                        2)});
  ingest_table.print(std::cout);
  const bool compression_ok = ratio >= 5.0;
  bench::note(std::string("compression ") +
              (compression_ok ? "ok" : "BELOW FLOOR") + " (floor 5x vs " +
              "16 B/sample raw)");

  // ---- range: p99-over-time for every key ---------------------------------
  bench::header("tsdb: daily p99-over-time, every key, full horizon");
  const auto range_start = std::chrono::steady_clock::now();
  std::uint64_t windows = 0;
  std::uint64_t covered = 0;
  double checksum = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    tsdb::RangeQuery query;
    query.key = series_key(k);
    query.t0_ms = 0;
    query.t1_ms = days * kDayMs;
    query.window_ms = kDayMs;
    query.agg = tsdb::RangeAgg::kPercentile;
    query.pct = 99.0;
    const std::vector<tsdb::RangePoint> series = store.range(query);
    windows += series.size();
    for (const tsdb::RangePoint& point : series) {
      covered += point.count;
      checksum += point.value;
    }
  }
  const double range_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - range_start)
                              .count();
  util::Table range_table(
      {"queries", "windows", "samples folded", "ms", "Mwindows/s",
       "Msamples/s"});
  range_table.add_row(
      {std::to_string(keys), std::to_string(windows), std::to_string(covered),
       util::fmt_double(range_ms, 1),
       util::fmt_double(static_cast<double>(windows) / (range_ms * 1e3), 3),
       util::fmt_double(static_cast<double>(covered) / (range_ms * 1e3), 2)});
  range_table.print(std::cout);
  bench::note("answers stream from compressed chunks (cursor fold) — no "
              "series vector is materialized; checksum " +
              util::fmt_double(checksum, 1));

  // ---- determinism: 1 thread vs machine width -----------------------------
  bench::header("tsdb: determinism (1 thread vs " + std::to_string(wide) +
                ")");
  const std::size_t det_keys = tiny ? 50 : 200;
  const int det_days = 30;
  tsdb::TimeSeriesStore serial{tsdb::TsdbConfig{}};
  load(serial, det_keys, det_days, 11);
  util::ThreadPool pool(wide);
  tsdb::TsdbConfig parallel_config;
  parallel_config.pool = &pool;
  tsdb::TimeSeriesStore parallel(parallel_config);
  load(parallel, det_keys, det_days, 11);
  const bool digest_match =
      serial.dataset_digest() == parallel.dataset_digest();
  const bool layout_match = serial.segment_layout() == parallel.segment_layout();
  bench::note("digest " + hex64(serial.dataset_digest()) + " vs " +
              hex64(parallel.dataset_digest()) + ": " +
              (digest_match ? "match" : "MISMATCH") + "; segment layout " +
              (layout_match ? "match" : "MISMATCH"));

  // ---- machine-readable report --------------------------------------------
  std::ofstream out("BENCH_tsdb.json");
  out << "{\n";
  out << "  \"compression\": {\"keys\": " << keys << ", \"days\": " << days
      << ", \"samples\": " << stats.segment_samples + stats.head_samples
      << ", \"segments\": " << stats.segments
      << ", \"raw_bytes\": " << stats.raw_bytes
      << ", \"compressed_bytes\": " << stats.compressed_bytes
      << ", \"ratio\": " << ratio
      << ", \"bits_per_sample\": " << bits_per_sample
      << ", \"floor\": 5.0, \"ok\": " << (compression_ok ? "true" : "false")
      << "},\n";
  out << "  \"ingest\": {\"wall_ms\": " << ingest_ms
      << ", \"samples_per_s\": "
      << static_cast<double>(stats.segment_samples) * 1e3 / ingest_ms
      << "},\n";
  out << "  \"range\": {\"queries\": " << keys << ", \"windows\": " << windows
      << ", \"samples_folded\": " << covered << ", \"wall_ms\": " << range_ms
      << ", \"windows_per_s\": "
      << static_cast<double>(windows) * 1e3 / range_ms << "},\n";
  out << "  \"determinism\": {\"threads_wide\": " << wide
      << ", \"digest_serial\": \"" << hex64(serial.dataset_digest())
      << "\", \"digest_parallel\": \"" << hex64(parallel.dataset_digest())
      << "\", \"digest_match\": " << (digest_match ? "true" : "false")
      << ", \"layout_match\": " << (layout_match ? "true" : "false") << "}\n";
  out << "}\n";
  bench::note("wrote BENCH_tsdb.json");

  return compression_ok && digest_match && layout_match ? 0 : 1;
}
