#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tsdb/segment.hpp"

namespace tero::fault {
class FaultInjector;
class FaultPoint;
}  // namespace tero::fault

namespace tero::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace tero::obs

namespace tero::util {
class ThreadPool;
}  // namespace tero::util

namespace tero::tsdb {

/// Tiered time-series store (DESIGN.md §15): an in-memory head block backed
/// by a write-ahead log seals, on virtual-time advance, into immutable
/// compressed segments persisted through the TEROKV atomic-rename path;
/// background compaction merges same-level segments and retention drops
/// expired ones. All scheduling is driven by advance_to() on virtual time —
/// never wall clock — so segment layout is a pure function of (appends,
/// advance calls, config, fault plan) and bit-identical at any thread count.
struct TsdbConfig {
  /// Directory for the WAL, manifest, and segment files. Empty = purely
  /// in-memory (no durability, no recovery) — the bench configuration.
  std::string dir;
  /// Head span: advance_to(t) seals everything before the last whole
  /// span boundary at or before t. Default one virtual day.
  std::int64_t head_span_ms = 86'400'000;
  /// Merge this many same-level segments into one at the next level.
  std::size_t compact_fanin = 4;
  /// Drop segments whose max_t falls this far behind the advance frontier.
  /// 0 keeps history forever.
  std::int64_t retention_ms = 0;
  /// Compaction jobs within one planning round run through this pool
  /// (nullptr = inline). Plans are made and applied serially, so results
  /// are identical for any pool size.
  util::ThreadPool* pool = nullptr;
  obs::MetricsRegistry* metrics = nullptr;  ///< tero.tsdb.* (optional)
  /// Arms the tsdb.{seal,compact,read} fault points (optional). kError at
  /// seal/compact skips the operation (retried on the next advance); kCrash
  /// tears the output file and throws — the recovery path's test diet.
  fault::FaultInjector* injector = nullptr;
};

/// Aggregation applied per window of a range query.
enum class RangeAgg : std::uint8_t { kCount, kMean, kPercentile };

/// One window of a range-query answer. `t_ms` is the window start; windows
/// with count == 0 report value 0 so every answer has exactly
/// (t1 - t0) / window entries regardless of data layout.
struct RangePoint {
  std::int64_t t_ms = 0;
  std::uint64_t count = 0;
  double value = 0.0;

  friend bool operator==(const RangePoint&, const RangePoint&) = default;
};

/// A historical range query over one series key.
struct RangeQuery {
  std::string key;
  std::int64_t t0_ms = 0;
  std::int64_t t1_ms = 0;  ///< exclusive
  std::int64_t window_ms = 86'400'000;
  RangeAgg agg = RangeAgg::kMean;
  double pct = 99.0;  ///< percentile in [0, 100], kPercentile only
};

class TimeSeriesStore {
 public:
  /// Opening a store with a non-empty dir runs crash recovery: the manifest
  /// names the live segments (orphan segment files from a crash mid-seal or
  /// mid-compaction are deleted), and the WAL is replayed into the head —
  /// acknowledged appends survive any crash the fault plans can inject.
  explicit TimeSeriesStore(TsdbConfig config);
  ~TimeSeriesStore();

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Append one sample. Appends are acknowledged once the WAL record is
  /// written (durable mode) — recovery never loses them. Samples older than
  /// the sealed frontier are rejected (std::invalid_argument): history is
  /// immutable once sealed.
  void append(std::string_view key, std::int64_t t_ms, double value);

  /// Advance virtual time: seal head spans that ended at or before t_ms,
  /// run compaction rounds until no level has compact_fanin segments, then
  /// apply retention. Deterministic for any thread count; fault points
  /// tsdb.seal / tsdb.compact fire here.
  void advance_to(std::int64_t t_ms);

  /// Windowed aggregate over segments + head, streamed chunk-by-chunk —
  /// never materializes a series vector. Throws std::invalid_argument on a
  /// malformed query (t1 <= t0, window <= 0, more than kMaxWindows
  /// windows); an armed tsdb.read kError/kCrash surfaces as
  /// std::runtime_error (serve maps it to kUnavailable).
  [[nodiscard]] std::vector<RangePoint> range(const RangeQuery& query) const;

  /// Week-over-week drift: pct-percentile over [now-7d, now) minus the same
  /// percentile over [now-14d, now-7d).
  [[nodiscard]] double drift(std::string_view key, std::int64_t now_ms,
                             double pct) const;

  static constexpr std::int64_t kMaxWindows = 1 << 16;

  /// Everything before this virtual time lives in immutable segments.
  [[nodiscard]] std::int64_t sealed_until() const;

  struct Stats {
    std::size_t segments = 0;
    std::uint64_t head_samples = 0;
    std::uint64_t segment_samples = 0;
    std::uint64_t raw_bytes = 0;         ///< segment samples at 16 B each
    std::uint64_t compressed_bytes = 0;  ///< encoded chunk bytes
    std::int64_t sealed_until_ms = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Sorted union of series keys across segments and head.
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Materialize one series in time order (verification/tests only — real
  /// reads go through range()).
  [[nodiscard]] std::vector<Sample> series(std::string_view key) const;

  /// Order- and thread-independent digest of every stored sample (sorted
  /// keys, time-ordered samples, mix_seed-folded) — the witness for the
  /// 1-vs-N-thread and crash-recovery determinism sweeps.
  [[nodiscard]] std::uint64_t dataset_digest() const;

  /// Per-segment "id:level:count" summary in (min_t, id) order — asserts
  /// "same surviving segments" across thread counts.
  [[nodiscard]] std::string segment_layout() const;

 private:
  struct WalRecord {
    std::string key;
    std::int64_t t_ms = 0;
    std::uint64_t value_bits = 0;
  };

  void recover();
  void replay_wal(const std::string& path);
  void rewrite_wal_locked();
  void wal_append_locked(std::string_view key, std::int64_t t_ms,
                         std::uint64_t value_bits);
  void save_manifest_locked();
  void seal_locked(std::int64_t boundary);
  void compact_locked();
  void retain_locked(std::int64_t frontier);
  void refresh_gauges_locked();
  [[nodiscard]] std::string segment_path(std::uint64_t id) const;

  TsdbConfig config_;
  mutable std::mutex mutex_;
  /// Head block: per-series appends since the sealed frontier. Vectors are
  /// in append order; seal sorts them (stable) before encoding.
  std::map<std::string, std::vector<Sample>, std::less<>> head_;
  std::uint64_t head_samples_ = 0;
  /// Immutable segments in (min_t, id) order. shared_ptr so queries decode
  /// outside the lock while compaction retires inputs.
  std::vector<std::shared_ptr<const Segment>> segments_;
  std::int64_t sealed_until_ = 0;
  std::uint64_t next_id_ = 1;
  std::ofstream wal_;
  /// Files dropped by compaction/retention this advance; unlinked only
  /// after the manifest stops referencing them (crash-ordering invariant).
  std::vector<std::string> doomed_files_;

  fault::FaultPoint* seal_fault_ = nullptr;
  fault::FaultPoint* compact_fault_ = nullptr;
  fault::FaultPoint* read_fault_ = nullptr;

  obs::Counter* appends_ = nullptr;
  obs::Counter* seals_ = nullptr;
  obs::Counter* compactions_ = nullptr;
  obs::Counter* retention_drops_ = nullptr;
  obs::Counter* range_queries_ = nullptr;
  obs::Gauge* segments_gauge_ = nullptr;
  obs::Gauge* head_samples_gauge_ = nullptr;
  obs::Gauge* bytes_raw_gauge_ = nullptr;
  obs::Gauge* bytes_compressed_gauge_ = nullptr;
  obs::Histogram* compact_ms_ = nullptr;
  obs::Histogram* read_segments_ = nullptr;
};

}  // namespace tero::tsdb
