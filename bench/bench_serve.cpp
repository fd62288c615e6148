// Serving-layer benchmark (DESIGN.md §9): throughput scaling of the sharded
// QueryService with shard/thread count, served latency, and the
// admission-control overload story. Writes BENCH_serve.json (parse-checked
// by scripts/ci.sh bench-smoke via bench_json_check).
//
//   bench_serve [--tiny]
//
// --tiny shrinks the world and query counts to CI-smoke scale (~1 s).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "synth/sessions.hpp"
#include "tero/pipeline.hpp"
#include "util/thread_pool.hpp"

using namespace tero;

namespace {

struct ClosedLoopRow {
  std::size_t shards = 0;
  std::size_t threads = 0;
  serve::LoadTestReport report;
};

std::vector<serve::SnapshotEntry> build_entries(bool tiny) {
  synth::WorldConfig world_config;
  world_config.seed = 11;
  world_config.num_streamers = tiny ? 60 : 240;
  world_config.p_twitter = 0.9;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = tiny ? 3 : 5;
  synth::SessionGenerator generator(world, behavior, 3);
  const auto streams = generator.generate();

  core::TeroConfig config = bench::fast_pipeline(11);
  core::Pipeline pipeline(config);
  const core::Dataset dataset = pipeline.run(world, streams);
  return serve::entries_from(dataset);
}

ClosedLoopRow run_closed(const std::vector<serve::SnapshotEntry>& entries,
                         std::size_t shards, std::size_t threads,
                         std::size_t queries, bool with_metrics) {
  obs::MetricsRegistry registry;
  serve::ServeConfig config;
  config.shards = shards;
  if (with_metrics) config.metrics = &registry;
  serve::QueryService service(config);
  service.publish(std::vector<serve::SnapshotEntry>(entries));

  serve::LoadGenConfig load;
  load.queries = queries;
  load.threads = threads;
  load.seed = 99;

  util::ThreadPool pool(threads);
  ClosedLoopRow row;
  row.shards = shards;
  row.threads = threads;
  row.report =
      serve::run_loadtest(service, load, threads > 1 ? &pool : nullptr);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  const std::size_t queries = tiny ? 20000 : 400000;
  const std::size_t hw = util::ThreadPool::resolve(0);

  bench::header("serve: snapshot build");
  const auto entries = build_entries(tiny);
  bench::note("snapshot entries: " + std::to_string(entries.size()) +
              ", queries per run: " + std::to_string(queries));

  // ---- closed loop: throughput vs shards and threads -----------------------
  bench::header("serve: closed-loop throughput (no metrics attached)");
  std::vector<ClosedLoopRow> rows;
  util::Table table({"shards", "threads", "kqps", "checksum"});
  const std::vector<std::size_t> shard_counts = tiny
                                                    ? std::vector<std::size_t>{1, 4}
                                                    : std::vector<std::size_t>{1, 2, 4, 8};
  std::vector<std::size_t> thread_counts{1};
  if (hw >= 4) thread_counts.push_back(4);
  if (hw > 4) {
    thread_counts.push_back(hw);
  } else if (hw <= 2) {
    // Even on small machines, exercise the concurrent path (and show the
    // checksum staying put) with an oversubscribed pool.
    thread_counts.push_back(2);
  }
  for (const std::size_t shards : shard_counts) {
    for (const std::size_t threads : thread_counts) {
      ClosedLoopRow row = run_closed(entries, shards, threads, queries,
                                     /*with_metrics=*/false);
      char checksum[32];
      std::snprintf(checksum, sizeof(checksum), "%016llx",
                    static_cast<unsigned long long>(row.report.checksum));
      table.add_row({std::to_string(shards), std::to_string(threads),
                     util::fmt_double(row.report.achieved_qps / 1e3, 1),
                     checksum});
      rows.push_back(std::move(row));
    }
  }
  table.print(std::cout);
  bench::note("all checksums must match: responses are pure functions of "
              "(query, snapshot), so shard/thread layout cannot change "
              "results");

  // ---- service latency under metrics (one mid-size config) ----------------
  bench::header("serve: service latency (metrics attached)");
  const ClosedLoopRow latency_row =
      run_closed(entries, 4, hw >= 4 ? 4 : hw, queries / 4,
                 /*with_metrics=*/true);
  bench::note("p50/p95/p99: " +
              util::fmt_double(latency_row.report.p50_ms * 1e3, 1) + " / " +
              util::fmt_double(latency_row.report.p95_ms * 1e3, 1) + " / " +
              util::fmt_double(latency_row.report.p99_ms * 1e3, 1) + " us");

  // ---- open loop: overload with admission control --------------------------
  // Offer twice the measured single-shard capacity but admit only a
  // quarter of the offered rate: the bucket sheds the excess and the p99 of
  // *served* queries stays in the same range as the unloaded run.
  bench::header("serve: open-loop overload (admission control)");
  const double capacity_qps = rows.front().report.achieved_qps;
  const double offered_qps = 2.0 * capacity_qps;
  obs::MetricsRegistry registry;
  serve::ServeConfig config;
  config.shards = 4;
  config.admission_rate_qps = offered_qps / 4.0;
  config.admission_burst = 256.0;
  config.metrics = &registry;
  serve::QueryService service(config);
  service.publish(std::vector<serve::SnapshotEntry>(entries));
  serve::LoadGenConfig load;
  load.queries = queries / 2;
  load.threads = hw;
  load.seed = 99;
  load.offered_qps = offered_qps;
  util::ThreadPool pool(hw);
  const auto overload =
      serve::run_loadtest(service, load, hw > 1 ? &pool : nullptr);
  const double shed_fraction =
      overload.issued > 0 ? static_cast<double>(overload.shed) /
                                static_cast<double>(overload.issued)
                          : 0.0;
  bench::note("offered " + util::fmt_double(offered_qps / 1e3, 0) +
              " kqps, admitted cap " +
              util::fmt_double(config.admission_rate_qps / 1e3, 0) +
              " kqps -> shed " + util::fmt_percent(shed_fraction, 1) +
              ", served p99 " +
              util::fmt_double(overload.p99_ms * 1e3, 1) + " us");

  // ---- obs: virtual-time scrape overhead + SLO verdicts --------------------
  // The timeline scrapes happen inside run_loadtest's *serial* replay (after
  // the parallel fan-out), so the honest overhead number times the whole
  // call — scrape-on vs scrape-off, identical load either way. The arms run
  // interleaved (off, on, off, on, ...) and we keep each arm's minimum:
  // back-to-back pairs see the same machine state, so frequency/cache drift
  // cancels instead of landing entirely on whichever arm ran second. The
  // acceptance budget is 5% (recorded in the JSON for the CI trend).
  bench::header("serve: obs timeline overhead (scrape on vs off)");
  const std::size_t obs_queries = queries / 2;
  std::size_t obs_snapshots = 0;
  std::vector<obs::SloStatus> obs_slos;
  std::size_t obs_alerts = 0;
  bool obs_captured = false;
  const auto obs_arm = [&](bool scrape) {
    obs::MetricsRegistry obs_registry;
    obs::TimelineConfig timeline_config;
    timeline_config.prefixes = {"tero.loadgen."};
    obs::MetricsTimeline timeline(obs_registry, timeline_config);
    obs::SloTracker tracker;
    tracker.add(
        "slo latency: p99(tero.loadgen.latency_ms) < 15ms over 10s "
        "window, budget 5%");
    tracker.add(
        "slo degraded: rate(tero.loadgen.unavailable) < 1 over 10s "
        "window, budget 1%");
    tracker.attach(timeline);
    serve::ServeConfig obs_config;
    obs_config.shards = 4;
    serve::QueryService obs_service(obs_config);
    obs_service.publish(std::vector<serve::SnapshotEntry>(entries));
    serve::LoadGenConfig obs_load;
    obs_load.queries = obs_queries;
    obs_load.threads = hw;
    obs_load.seed = 99;
    obs_load.metrics = &obs_registry;  // both arms pay for the counters...
    obs_load.exemplar_seed = 99;
    if (scrape) obs_load.timeline = &timeline;  // ...only one scrapes
    util::ThreadPool obs_pool(hw);
    const auto start = std::chrono::steady_clock::now();
    (void)serve::run_loadtest(obs_service, obs_load,
                              hw > 1 ? &obs_pool : nullptr);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (scrape && !obs_captured) {
      obs_snapshots = timeline.snapshot_count();
      obs_slos = tracker.status();
      obs_alerts = tracker.alerts().size();
      obs_captured = true;
    }
    return ms;
  };
  double scrape_off_ms = 0.0;
  double scrape_on_ms = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double off = obs_arm(false);
    const double on = obs_arm(true);
    scrape_off_ms = rep == 0 ? off : std::min(scrape_off_ms, off);
    scrape_on_ms = rep == 0 ? on : std::min(scrape_on_ms, on);
  }
  const double scrape_overhead =
      scrape_off_ms > 0.0 ? (scrape_on_ms - scrape_off_ms) / scrape_off_ms
                          : 0.0;
  bench::note("scrape off " + util::fmt_double(scrape_off_ms, 1) +
              " ms, on " + util::fmt_double(scrape_on_ms, 1) + " ms -> " +
              util::fmt_percent(scrape_overhead, 1) + " overhead (budget 5%), " +
              std::to_string(obs_snapshots) + " snapshots, " +
              std::to_string(obs_alerts) + " alert(s)");
  for (const auto& slo : obs_slos) {
    bench::note("  slo " + slo.slo + ": measured " +
                util::fmt_double(slo.measured, 2) + ", burn slow " +
                util::fmt_double(slo.burn_slow, 2) +
                (slo.firing ? " FIRING" : " ok"));
  }

  // ---- machine-readable report --------------------------------------------
  std::ofstream out("BENCH_serve.json");
  out << "{\n  \"closed_loop\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    out << "    {\"shards\": " << row.shards
        << ", \"threads\": " << row.threads
        << ", \"queries\": " << row.report.issued
        << ", \"qps\": " << row.report.achieved_qps << ", \"checksum\": \""
        << std::hex << row.report.checksum << std::dec << "\"}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"latency\": {\"p50_ms\": " << latency_row.report.p50_ms
      << ", \"p95_ms\": " << latency_row.report.p95_ms
      << ", \"p99_ms\": " << latency_row.report.p99_ms << "},\n";
  out << "  \"overload\": {\"offered_qps\": " << offered_qps
      << ", \"admission_qps\": " << config.admission_rate_qps
      << ", \"shed_fraction\": " << shed_fraction
      << ", \"served_p99_ms\": " << overload.p99_ms << "},\n";
  out << "  \"obs\": {\"scrape_off_ms\": " << scrape_off_ms
      << ", \"scrape_on_ms\": " << scrape_on_ms
      << ", \"overhead_fraction\": " << scrape_overhead
      << ", \"overhead_budget\": 0.05"
      << ", \"snapshots\": " << obs_snapshots
      << ", \"alerts\": " << obs_alerts << ", \"slos\": [";
  for (std::size_t i = 0; i < obs_slos.size(); ++i) {
    const auto& slo = obs_slos[i];
    out << (i > 0 ? ", " : "") << "{\"slo\": \"" << slo.slo
        << "\", \"measured\": " << slo.measured
        << ", \"burn_fast\": " << slo.burn_fast
        << ", \"burn_slow\": " << slo.burn_slow << ", \"firing\": "
        << (slo.firing ? "true" : "false") << "}";
  }
  out << "]}\n";
  out << "}\n";
  bench::note("wrote BENCH_serve.json");
  return 0;
}
