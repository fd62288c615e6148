#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fault/policy.hpp"
#include "serve/admission.hpp"
#include "serve/epoch.hpp"
#include "serve/snapshot.hpp"
#include "store/consistent_hash.hpp"
#include "tsdb/store.hpp"

namespace tero::fault {
class FaultInjector;
class FaultPoint;
}  // namespace tero::fault

namespace tero::obs {
class MetricsRegistry;
class TraceRecorder;
class Counter;
class Gauge;
class Histogram;
}  // namespace tero::obs

namespace tero::serve {

/// What a consumer can ask the serving layer (DESIGN.md §9). All kinds are
/// pure functions of (query, snapshot), which is the determinism anchor for
/// the load generator: the same query against the same epoch always returns
/// the same bits, no matter which shard or thread served it.
enum class QueryKind {
  kPercentile,  ///< param = percentile in [0, 100]
  kMean,
  kCount,       ///< retained sample count
  kEcdf,        ///< param = latency_ms; value = P(latency <= param)
  kTopK,        ///< k worst locations of `game` by p95 (location ignored)
  // Historical range kinds, answered from the tiered time-series store
  // (ServeConfig::tsdb) instead of the published snapshot. The answer is
  // one RangePoint per window in [t0_ms, t1_ms); `value` echoes the last
  // window. kRangeDrift ignores the window fields: value = param-percentile
  // over [t1-7d, t1) minus the same over [t1-14d, t1-7d).
  kRangeCount,
  kRangeMean,
  kRangePercentile,  ///< param = percentile in [0, 100]
  kRangeDrift,       ///< param = percentile in [0, 100]
};

/// True for the kinds served from the time-series store.
[[nodiscard]] constexpr bool is_range_kind(QueryKind kind) noexcept {
  return kind == QueryKind::kRangeCount || kind == QueryKind::kRangeMean ||
         kind == QueryKind::kRangePercentile ||
         kind == QueryKind::kRangeDrift;
}

struct Query {
  QueryKind kind = QueryKind::kPercentile;
  geo::Location location;
  std::string game;
  double param = 50.0;
  std::size_t k = 5;
  /// Range-kind window: [t0_ms, t1_ms) split into window_ms buckets.
  std::int64_t t0_ms = 0;
  std::int64_t t1_ms = 0;
  std::int64_t window_ms = 86'400'000;
  /// Caller-assigned trace/span id (0 = none). The "serve.query" span is
  /// tagged with it and, when the latency histogram has exemplars armed,
  /// the recorded sample carries it — the link that lets `obs report`
  /// print "p99 bucket exemplar -> span 0x...". The load generator sets
  /// trace_id = query index + 1. Never part of the answer or its hash.
  std::uint64_t trace_id = 0;
};

enum class QueryStatus {
  kOk,
  kNotFound,     ///< snapshot has no such {location, game}
  kShed,         ///< rejected by admission control
  kNoSnapshot,   ///< nothing published yet
  kUnavailable,  ///< shard down and no previous epoch to degrade to
  kBrownout,     ///< refused by the brownout ladder (expensive kind disabled)
};

/// Brownout degradation ladder rung (full declaration in brownout.hpp).
enum class BrownoutLevel : std::uint8_t;

/// Unified denial accounting (DESIGN.md §16): every request the system turns
/// away increments `tero.serve.denied{reason=...}` with one of these labels,
/// so SLO specs and the overload controller read a single series family.
enum class DenyReason : std::uint8_t {
  kShed,         ///< admission control rejected (token bucket empty)
  kStale,        ///< bounded-staleness refusal (over the staleness budget)
  kUnavailable,  ///< no healthy replica/shard could answer
  kBrownout,     ///< brownout ladder disabled the query kind
};

[[nodiscard]] std::string_view to_string(DenyReason reason) noexcept;

/// Handle bundle for the denied{reason=...} family — resolved once at
/// construction (the obs::Counter idiom), null-safe when metrics are off.
/// Shared by QueryService and cluster::Cluster so both layers write the
/// same series.
class DeniedCounters {
 public:
  DeniedCounters() = default;
  explicit DeniedCounters(obs::MetricsRegistry* metrics);

  void add(DenyReason reason) const;

 private:
  obs::Counter* by_reason_[4] = {nullptr, nullptr, nullptr, nullptr};
};

struct TopEntry {
  std::string location;
  double value = 0.0;  ///< the ranking statistic (p95)
};

struct QueryResponse {
  QueryStatus status = QueryStatus::kNoSnapshot;
  double value = 0.0;
  std::uint64_t epoch = 0;
  /// Degraded-mode marker (DESIGN.md §11): the owning shard was unavailable
  /// and this answer came from the last good snapshot instead of the
  /// current epoch — explicitly STALE{age}, never silently wrong.
  bool stale = false;
  std::uint64_t stale_age = 0;  ///< epochs behind the current one
  std::vector<TopEntry> top;    ///< kTopK only
  std::vector<tsdb::RangePoint> series;  ///< range kinds only
};

/// Order- and thread-independent fingerprint of one (query index, response)
/// pair; the load generator XOR-folds these into its result checksum.
[[nodiscard]] std::uint64_t hash_response(std::uint64_t index,
                                          const QueryResponse& response);

/// Pure query evaluation against one immutable snapshot — the kernel behind
/// QueryService's read path, exposed so other serving layers (the cluster's
/// replicated reads) can answer from whichever epoch their routing picked.
/// No metrics, no staleness markers: status/value/epoch/top only.
[[nodiscard]] QueryResponse answer(const Query& query,
                                   const Snapshot& snapshot);

/// Placement key of `query` on a consistent-hash ring: every query about one
/// {location, game} entry maps to that entry's key, top-k to its game alone.
/// QueryService picks shards and cluster::Cluster picks owner nodes with it.
[[nodiscard]] std::string shard_key(const Query& query);

struct ServeConfig {
  /// Number of shards, each with its own fault point, circuit breaker and
  /// queue-depth gauge. Keys are placed by store::ConsistentHashRing, so
  /// resizing a live fleet would only remap ~1/n of the keyspace.
  std::size_t shards = 4;
  int ring_virtual_nodes = 64;
  /// Admission control (token bucket over all shards); <= 0 disables it
  /// and the service never sheds.
  double admission_rate_qps = 0.0;
  double admission_burst = 0.0;
  /// Observability sinks (not owned; may be null). Observational only —
  /// query results never depend on them.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Nonzero arms exemplar capture on tero.serve.query_ms: each latency
  /// bucket keeps one (value, span id) sample chosen by deterministic
  /// min-wise reservoir (see obs::Histogram::record). Requires metrics.
  std::uint64_t exemplar_seed = 0;
  /// Historical store answering the range query kinds (not owned; may be
  /// null, in which case range queries return kUnavailable). Every range
  /// query reads the store afresh, so it always sees the latest appends.
  tsdb::TimeSeriesStore* tsdb = nullptr;
  /// Optional fault injection (not owned; may be null). Arms one
  /// "serve.shard-<i>" point per shard: an injected error marks the shard
  /// unavailable for that query, trips its circuit breaker, and routes the
  /// answer through the degraded path (previous snapshot + STALE marker).
  fault::FaultInjector* injector = nullptr;
  /// Per-shard circuit-breaker tuning (used only when injector != null).
  fault::CircuitBreaker::Config breaker;
};

/// Sharded in-process query service over published snapshots.
///
/// Read path: admission -> brownout -> atomic snapshot load -> shard
/// (consistent hash of shard_key(): fault point, breaker, in-flight
/// accounting) -> snapshot index or time-series store. Publish path: the
/// current epoch becomes the degraded path's previous one, then one atomic
/// swap installs the new snapshot. Readers never block on a publish: a
/// query that raced the swap simply finishes against the epoch it loaded.
class QueryService {
 public:
  explicit QueryService(ServeConfig config);

  /// Build a snapshot from `entries` under the next epoch number and
  /// install it. Returns the published epoch.
  std::uint64_t publish(std::vector<SnapshotEntry> entries);
  /// Install an externally built snapshot under its own epoch.
  void publish(SnapshotPtr snapshot);

  [[nodiscard]] SnapshotPtr snapshot() const { return publisher_.current(); }
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return publisher_.epoch();
  }

  /// Answer one query. `now_s` feeds admission control and the shard
  /// circuit breakers: pass a virtual arrival time for deterministic
  /// replay, or leave negative to use wall time since service construction.
  [[nodiscard]] QueryResponse query(const Query& query, double now_s = -1.0);

  /// Admission-control front door, exposed so the open-loop load generator
  /// can take shed decisions serially in arrival order (the determinism
  /// requirement) before fanning admitted queries out to a pool. Counts
  /// sheds as tero.serve.denied{reason=shed}.
  bool try_admit(double now_s = -1.0);

  /// Answer a query that has already passed admission (or for which
  /// admission is intentionally bypassed, e.g. closed-loop capacity
  /// measurement). `now_s` feeds the per-shard circuit breakers (virtual
  /// time for deterministic replay; negative = wall time).
  [[nodiscard]] QueryResponse query_admitted(const Query& query,
                                             double now_s = -1.0);

  /// Retune the admission token bucket mid-run (the overload controller's
  /// actuation path; see AdmissionController::set_rate for the
  /// no-minting/no-negative contract). Exports the new rate as the
  /// tero.serve.admission_rate gauge when metrics are on.
  void set_admission_rate(double now_s, double rate_qps, double burst = 0.0);

  /// Set/read the brownout ladder rung the read path honors (atomic; the
  /// controller writes, every query reads). Level semantics are the pure
  /// apply_brownout() in brownout.hpp: refused kinds answer kBrownout,
  /// coarsened percentiles snap to the coarse palette, stale-tolerant rungs
  /// prefer the previous epoch. Exported as tero.serve.brownout_level.
  void set_brownout(BrownoutLevel level);
  [[nodiscard]] BrownoutLevel brownout() const noexcept;

  /// Shard index that owns `query`'s key (stable across calls).
  [[nodiscard]] std::size_t shard_for(const Query& query) const;

  /// The shard's circuit-breaker state (kClosed when fault injection is
  /// off) — the controller's scale-out gate reads this.
  [[nodiscard]] fault::CircuitBreaker::State breaker_state(
      std::size_t shard_index) const;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Always 0: the service keeps no response cache. Kept only because the
  /// perfbench driver still reads them for its serve.cache_hit_frac metric.
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t shed_count() const;
  [[nodiscard]] std::uint64_t publish_count() const noexcept {
    return publishes_.load(std::memory_order_relaxed);
  }

  /// Service-latency histogram (null when metrics are off) — the load
  /// generator reads p50/p95/p99 from here.
  [[nodiscard]] const obs::Histogram* latency_histogram() const noexcept {
    return query_ms_;
  }

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

 private:
  struct Shard {
    /// Queries currently inside this shard (admitted, not yet answered) —
    /// exported through `queue_depth`, the shard's
    /// tero.serve.shard_queue_depth{shard=shard-i} gauge, resolved once at
    /// construction (null when metrics are off).
    std::atomic<std::uint64_t> inflight{0};
    obs::Gauge* queue_depth = nullptr;
    /// Fault-injection hook ("serve.shard-<i>"; null = healthy shard) and
    /// the circuit breaker guarding it (null when injection is off).
    fault::FaultPoint* fault_point = nullptr;
    std::unique_ptr<fault::CircuitBreaker> breaker;
  };

  /// `snapshot` may be null only for range kinds, which answer from the
  /// time-series store instead.
  [[nodiscard]] QueryResponse compute(const Query& query,
                                      const Snapshot* snapshot) const;
  /// Range kinds: delegate to config_.tsdb (kUnavailable when absent or
  /// when the tsdb.read fault point fires).
  [[nodiscard]] QueryResponse answer_range(const Query& query) const;
  /// Degraded path: answer from the last good snapshot with a STALE{age}
  /// marker, or kUnavailable when there is none. Range kinds have no stale
  /// snapshot to fall back on: always kUnavailable.
  [[nodiscard]] QueryResponse degraded(const Query& query,
                                       std::uint64_t current_epoch);
  [[nodiscard]] double wall_now_s() const;

  ServeConfig config_;
  EpochPublisher publisher_;
  /// Brownout ladder rung (relaxed atomic: readers tolerate a one-query
  /// skew when the controller steps the ladder).
  std::atomic<std::uint8_t> brownout_{0};
  /// Last good snapshot (the epoch before the current one): what degraded
  /// answers are served from while a shard is down. Mutex-guarded like the
  /// publisher's current pointer (deliberate — TSan-safe; see epoch.hpp).
  mutable std::mutex previous_mutex_;
  SnapshotPtr previous_;
  AdmissionController admission_;
  store::ConsistentHashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> publishes_{0};
  std::chrono::steady_clock::time_point start_;

  // Hot-path metric handles, resolved once (null when metrics are off).
  obs::Counter* queries_total_ = nullptr;
  obs::Counter* not_found_counter_ = nullptr;
  obs::Counter* degraded_counter_ = nullptr;
  DeniedCounters denied_;
  obs::Histogram* query_ms_ = nullptr;
};

/// The pipeline -> serving bridge: a callback suitable for
/// core::TeroConfig::on_dataset that builds serving entries from the
/// finished dataset and publishes them as the next epoch.
[[nodiscard]] std::function<void(const core::Dataset&)> publish_hook(
    QueryService& service);

}  // namespace tero::serve
