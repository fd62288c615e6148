#pragma once
// Shared pieces of the outside-in Tero benchmark: options, timing and
// statistics helpers, the seeded input builders, the serve-query closed
// loop, and the per-layer span clock used by traced runs. Everything here
// calls the program only through its public headers.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "stream/config.hpp"
#include "synth/sessions.hpp"
#include "synth/world.hpp"
#include "tero/pipeline.hpp"
#include "tsdb/store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short phases, for the benchmark's own tests.
  bool tiny = false;
  /// Flip one bit of the reference before comparing (self-test: the run
  /// must then fail its output check).
  bool corrupt_reference = false;
  /// Where a traced run writes its Chrome-trace JSON (empty = nowhere).
  std::string trace_out;
  /// Load threads: min(4, hardware threads).
  std::size_t threads = 4;
};

/// One emitted metric. Every value the benchmark prints is measured.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed output check: counted, and printed on stderr.
  void fail(const std::string& what, std::uint64_t count = 1);
};

[[nodiscard]] double seconds_since(Clock::time_point start);
/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();
/// Human-readable line on stdout (never the last line).
void note(const std::string& text);

/// Per-call latency in fixed log-linear buckets (64 sub-buckets per power
/// of two of nanoseconds): bounded memory however many calls are timed.
/// Quantiles interpolate linearly inside the bucket that holds the rank.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) noexcept;
  void record_failure() noexcept { record(kFailureNs); }
  void merge(const LatencyHistogram& other) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] double quantile_us(double q) const noexcept;

  /// A failed or denied answer counts as slower than any latency limit.
  static constexpr std::uint64_t kFailureNs = 1ULL << 40;

 private:
  static constexpr int kSub = 64;
  static constexpr int kBuckets = 48 * kSub;
  [[nodiscard]] static int bucket_of(std::uint64_t ns) noexcept;
  [[nodiscard]] static double bucket_low(int bucket) noexcept;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Run fn() in a forked child process and return the bytes it returns.
/// Whatever fn allocates lives and dies in the child, so benchmark-only
/// state (references, the host probe's table) never counts toward this
/// process's peak_rss_mb. Throws when the child fails.
[[nodiscard]] std::string isolated(const std::function<std::string()>& fn);

/// Host-speed probe, run in a child process: a fixed random pointer chase
/// through a 32 MiB table, sized to sit in the shared L3 where contention
/// from other tenants shows. Milliseconds for the chase. Diagnostic only;
/// it never scales a metric.
[[nodiscard]] double host_probe_ms(std::uint64_t seed);

/// Digests to and from the bytes a child process hands back.
[[nodiscard]] std::string pack(const std::vector<std::uint64_t>& values);
[[nodiscard]] std::vector<std::uint64_t> unpack(std::string_view bytes);

/// Accumulates per-layer time and call counts and records one span per
/// timed region into the trace recorder. Single-threaded.
class LayerClock {
 public:
  explicit LayerClock(tero::obs::TraceRecorder* recorder)
      : recorder_(recorder) {}

  /// Time fn() as `calls` calls of layer `name`.
  template <typename Fn>
  decltype(auto) time(std::string_view name, Fn&& fn, std::uint64_t calls = 1) {
    const tero::obs::ScopedSpan span(recorder_, name, "layer");
    const auto start = Clock::now();
    struct Finish {
      LayerClock* self;
      std::string_view name;
      Clock::time_point start;
      std::uint64_t calls;
      ~Finish() { self->add(name, seconds_since(start), calls); }
    } finish{this, name, start, calls};
    return fn();
  }
  void add(std::string_view name, double seconds, std::uint64_t calls);
  [[nodiscard]] double total_s(std::string_view name) const;
  [[nodiscard]] double mean_us(std::string_view name) const;

 private:
  struct Entry {
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };
  tero::obs::TraceRecorder* recorder_;
  std::map<std::string, Entry, std::less<>> entries_;
};

// ---- seeded inputs ----------------------------------------------------------

/// A synthetic world and its ground-truth streams, generated from the seed.
struct WorldInput {
  std::unique_ptr<tero::synth::World> world;
  std::vector<tero::synth::TrueStream> streams;
  /// Fingerprint of the generated streams (shows that the seed changed the
  /// input).
  std::uint64_t digest = 0;
  std::uint64_t seed = 0;
};

/// ocr-batch's world: every streamer locatable, so every stream's
/// thumbnails go through render and OCR.
[[nodiscard]] WorldInput make_ocr_world(std::uint64_t seed, bool tiny);
/// The paper-figure sweep shape: 2000 streamers over 14 days (serve-query's
/// world).
[[nodiscard]] WorldInput make_sweep_world(std::uint64_t seed, bool tiny);

/// Batch configs: full OCR with every latency visible, or the calibrated
/// noise channel the sweeps use.
[[nodiscard]] tero::core::TeroConfig ocr_config(std::uint64_t seed,
                                                std::size_t threads);
[[nodiscard]] tero::core::TeroConfig sweep_config(std::uint64_t seed,
                                                  std::size_t threads);
/// The traced runs' streaming config: noise channel, 1-thread extraction
/// pool (so the four stage threads equal the load-thread budget), 1 h
/// windows, a live epoch every 96 closed windows, delivery delays up to
/// 600 s.
[[nodiscard]] tero::stream::StreamConfig live_config(std::uint64_t seed);

// ---- serve-query inputs and closed loop --------------------------------------

/// Everything serve-query needs, derived from one batch run of a world.
struct ServeInput {
  std::string snapshot_bytes;  ///< serve::save_snapshot of the batch run
  tero::serve::SnapshotPtr reference_snapshot;
  std::vector<tero::serve::Query> ring;  ///< fixed, cycled query ring
  /// Expected hash_response(i, answer) for ring[i], from serve::answer and
  /// a reference TimeSeriesStore::range.
  std::vector<std::uint64_t> expected;
  /// Per entry key, 30 days of hourly history samples (t_ms, value).
  std::vector<std::pair<std::string, std::vector<std::pair<std::int64_t, double>>>>
      history;
  std::size_t range_queries = 0;
  std::size_t range_with_data = 0;  ///< of those, answered kOk
  std::uint64_t digest = 0;
};

/// The TimeSeriesStore query a range kind turns into (the mapping
/// QueryService applies).
[[nodiscard]] tero::tsdb::RangeQuery range_query_of(
    const tero::serve::Query& query);

[[nodiscard]] ServeInput make_serve_input(const WorldInput& world,
                                          std::size_t threads, bool tiny);

/// Append the 30-day history one virtual day at a time, advancing the
/// store's clock after each day. Optional clock times appends and advances.
void ingest_history(const ServeInput& input, tero::tsdb::TimeSeriesStore& tsdb,
                    LayerClock* clock = nullptr);

/// A query service loaded the way serve-query's set-up loads it:
/// load_snapshot from bytes, publish, and the tsdb history ingest.
struct LoadedService {
  std::unique_ptr<tero::tsdb::TimeSeriesStore> tsdb;
  std::unique_ptr<tero::serve::QueryService> service;
};
[[nodiscard]] LoadedService load_service(const ServeInput& input,
                                         tero::obs::MetricsRegistry* metrics,
                                         tero::obs::TraceRecorder* trace);

struct ClosedLoopResult {
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t republished = 0;
  double wall_s = 0.0;
  /// qps of each 100 ms interval of the phase.
  std::vector<double> interval_qps;
  LatencyHistogram latency;
};

/// Closed loop: `clients` threads call QueryService::query back to back
/// over the ring, each from its own offset, checking every answer against
/// the expected hash. Every `republish_every` queries (0 = never) the same
/// entries are republished as a new epoch. Stops after `seconds`, or after
/// `max_queries` when that is nonzero.
[[nodiscard]] ClosedLoopResult closed_loop(tero::serve::QueryService& service,
                                           const ServeInput& input,
                                           std::size_t clients, double seconds,
                                           std::uint64_t max_queries,
                                           std::uint64_t republish_every);

// ---- workloads ----------------------------------------------------------------

[[nodiscard]] Result run_ocr_batch(const Options& options);
[[nodiscard]] Result run_serve_query(const Options& options);

// ---- traced runs: per-layer metrics -------------------------------------------

/// Which workload's loop the traced run belongs to; its own layers get the
/// larger share of the replay budget.
enum class Native { kOcr, kServe };

/// Replay every layer on `input` with spans around each public call, and
/// append the per-layer metrics to `result`. `batch` is the workload's batch
/// config (full OCR for ocr-batch, noise otherwise).
void trace_layers(const Options& options, Native native,
                  const WorldInput& input,
                  const tero::core::TeroConfig& batch, LayerClock& clock,
                  Result& result);

}  // namespace perfbench
