#include "serve/snapshot.hpp"

#include <algorithm>

#include "stats/descriptive.hpp"
#include "store/consistent_hash.hpp"
#include "tero/pipeline.hpp"
#include "util/rng.hpp"

namespace tero::serve {

double SnapshotEntry::percentile(double pct) const {
  if (sorted_values.empty()) return 0.0;
  return stats::percentile_sorted(sorted_values, pct);
}

double SnapshotEntry::ecdf(double x) const noexcept {
  if (sorted_values.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_values.begin(), sorted_values.end(),
                                   x);
  return static_cast<double>(it - sorted_values.begin()) /
         static_cast<double>(sorted_values.size());
}

std::string entry_key(const geo::Location& location, std::string_view game) {
  std::string key;
  key.reserve(game.size() + location.country.size() +
              location.region.size() + location.city.size() + 3);
  key += game;
  key += '|';
  key += location.country;
  key += '|';
  key += location.region;
  key += '|';
  key += location.city;
  return key;
}

std::uint64_t entry_key_hash(const geo::Location& location,
                             std::string_view game) noexcept {
  constexpr std::string_view kSep = "|";
  std::uint64_t hash = store::ConsistentHashRing::key_hash_basis();
  hash = util::fnv1a64(game, hash);
  hash = util::fnv1a64(kSep, hash);
  hash = util::fnv1a64(location.country, hash);
  hash = util::fnv1a64(kSep, hash);
  hash = util::fnv1a64(location.region, hash);
  hash = util::fnv1a64(kSep, hash);
  return util::fnv1a64(location.city, hash);
}

namespace {

/// key == entry_key(location, game), without building the right-hand side.
bool is_entry_key(std::string_view key, const geo::Location& location,
                  std::string_view game) noexcept {
  const auto take = [&key](std::string_view part) {
    if (!key.starts_with(part)) return false;
    key.remove_prefix(part.size());
    return true;
  };
  return take(game) && take("|") && take(location.country) && take("|") &&
         take(location.region) && take("|") && take(location.city) &&
         key.empty();
}

}  // namespace

Snapshot::Snapshot(std::uint64_t epoch, std::vector<SnapshotEntry> entries)
    : epoch_(epoch), entries_(std::move(entries)) {
  for (auto& entry : entries_) {
    if (entry.key.empty()) entry.key = entry_key(entry.location, entry.game);
    entry.samples = entry.sorted_values.size();
    std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.key < b.key;
            });
  by_hash_.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    by_hash_.push_back(
        {store::ConsistentHashRing::key_hash(entries_[i].key), i});
  }
  std::sort(by_hash_.begin(), by_hash_.end(),
            [](const HashSlot& a, const HashSlot& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.entry < b.entry;
            });
  // Keys are "game|...", so one game's entries form one contiguous block.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const std::string_view key = entries_[i].key;
    const std::string_view game = key.substr(0, key.find('|'));
    if (rankings_.empty() || rankings_.back().game != game) {
      rankings_.push_back({std::string(game), {}});
    }
    if (entries_[i].samples > 0) rankings_.back().worst.push_back(i);
  }
  for (GameRanking& ranking : rankings_) {
    std::sort(ranking.worst.begin(), ranking.worst.end(),
              [this](std::size_t a, std::size_t b) {
                const SnapshotEntry& x = entries_[a];
                const SnapshotEntry& y = entries_[b];
                if (x.box.p95 != y.box.p95) return x.box.p95 > y.box.p95;
                return x.key < y.key;
              });
  }
  // Key order is not game order ("lol2|" sorts before "lol|").
  std::sort(rankings_.begin(), rankings_.end(),
            [](const GameRanking& a, const GameRanking& b) {
              return a.game < b.game;
            });
}

const SnapshotEntry* Snapshot::find(const geo::Location& location,
                                    std::string_view game) const {
  return find(location, game, entry_key_hash(location, game));
}

const SnapshotEntry* Snapshot::find(const geo::Location& location,
                                    std::string_view game,
                                    std::uint64_t key_hash) const {
  // Equal hashes sit in entry order, so the first whose key matches is the
  // first such entry in key order.
  auto it = std::lower_bound(
      by_hash_.begin(), by_hash_.end(), key_hash,
      [](const HashSlot& slot, std::uint64_t h) { return slot.hash < h; });
  for (; it != by_hash_.end() && it->hash == key_hash; ++it) {
    const SnapshotEntry& entry = entries_[it->entry];
    if (is_entry_key(entry.key, location, game)) return &entry;
  }
  return nullptr;
}

std::vector<const SnapshotEntry*> Snapshot::worst_locations(
    std::string_view game, std::size_t k) const {
  const auto it = std::lower_bound(
      rankings_.begin(), rankings_.end(), game,
      [](const GameRanking& ranking, std::string_view g) {
        return ranking.game < g;
      });
  std::vector<const SnapshotEntry*> worst;
  if (it == rankings_.end() || it->game != game) return worst;
  const std::size_t n = std::min(k, it->worst.size());
  worst.reserve(n);
  for (std::size_t i = 0; i < n; ++i) worst.push_back(&entries_[it->worst[i]]);
  return worst;
}

SnapshotEntry entry_from(const core::LocationGameAggregate& aggregate) {
  SnapshotEntry entry;
  entry.location = aggregate.location;
  entry.game = aggregate.game;
  entry.key = entry_key(entry.location, entry.game);
  entry.streamers = aggregate.streamers;
  entry.sorted_values = aggregate.distribution;
  std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
  entry.samples = entry.sorted_values.size();
  if (!entry.sorted_values.empty()) {
    entry.mean_ms = stats::mean(entry.sorted_values);
  }
  if (aggregate.box.has_value()) entry.box = *aggregate.box;
  entry.anomaly_flagged = aggregate.shared.sufficient_data &&
                          !aggregate.shared.anomalies.empty();
  entry.shared_anomalies = aggregate.shared.anomalies.size();
  entry.server_city = aggregate.server_city;
  entry.avg_corrected_distance_km = aggregate.avg_corrected_distance_km;
  return entry;
}

std::vector<SnapshotEntry> entries_from(const core::Dataset& dataset) {
  std::vector<SnapshotEntry> entries;
  entries.reserve(dataset.aggregates.size());
  for (const auto& aggregate : dataset.aggregates) {
    entries.push_back(entry_from(aggregate));
  }
  return entries;
}

}  // namespace tero::serve
