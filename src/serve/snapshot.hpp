#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/geo.hpp"
#include "stats/descriptive.hpp"

namespace tero::core {
struct Dataset;
struct LocationGameAggregate;
}  // namespace tero::core

namespace tero::serve {

/// The serving layer's read-side data model (DESIGN.md §9): one immutable
/// index over the pipeline's per-{location, game} products. A Snapshot is
/// built once (from a core::Dataset or restored from disk), never mutated,
/// and shared with readers through `SnapshotPtr` — publishing a new epoch is
/// a single atomic shared_ptr swap (see EpochPublisher), so point queries
/// never block on the pipeline.

/// Everything a consumer can ask about one {location, game} aggregate:
/// percentile summaries, the full sorted sample set for exact ECDF
/// evaluation, and the shared-anomaly verdict.
struct SnapshotEntry {
  geo::Location location;
  std::string game;
  /// Canonical lookup / shard key: "game|country|region|city".
  std::string key;

  std::size_t streamers = 0;
  std::size_t samples = 0;  ///< == sorted_values.size()
  double mean_ms = 0.0;
  stats::Boxplot box;
  /// Retained latency samples sorted ascending — exact percentile and ECDF
  /// evaluation at query time (percentile_sorted / upper_bound).
  std::vector<double> sorted_values;

  bool anomaly_flagged = false;     ///< shared-anomaly test fired
  std::size_t shared_anomalies = 0;
  std::string server_city;
  double avg_corrected_distance_km = -1.0;

  [[nodiscard]] double percentile(double pct) const;
  /// Fraction of samples <= x.
  [[nodiscard]] double ecdf(double x) const noexcept;
};

/// Build the canonical entry key. Field order puts the game first so one
/// game's locations sort contiguously (worst_locations scans a range, not
/// the whole index).
[[nodiscard]] std::string entry_key(const geo::Location& location,
                                    std::string_view game);

/// Immutable, binary-searchable index over SnapshotEntry, tagged with the
/// publish epoch that produced it.
class Snapshot {
 public:
  Snapshot(std::uint64_t epoch, std::vector<SnapshotEntry> entries);

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::span<const SnapshotEntry> entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Entry for {location, game}; nullptr when absent.
  [[nodiscard]] const SnapshotEntry* find(const geo::Location& location,
                                          std::string_view game) const;
  [[nodiscard]] const SnapshotEntry* find_key(std::string_view key) const;

  /// The k worst locations for `game`, ranked by descending `box.p95`
  /// (ties broken by key so the order is total and deterministic).
  [[nodiscard]] std::vector<const SnapshotEntry*> worst_locations(
      std::string_view game, std::size_t k) const;

 private:
  std::uint64_t epoch_;
  std::vector<SnapshotEntry> entries_;  ///< sorted by key
};

/// Shared, immutable handle — the unit the epoch publisher swaps.
using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// Convert one pipeline aggregate into a serving entry (aggregates without a
/// distribution still get an entry; their stats are zero and samples == 0).
[[nodiscard]] SnapshotEntry entry_from(
    const core::LocationGameAggregate& aggregate);

/// All serving entries of a finished pipeline run, in key order.
[[nodiscard]] std::vector<SnapshotEntry> entries_from(
    const core::Dataset& dataset);

}  // namespace tero::serve
