#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace tero::store {

/// Stable pseudonymization of streamer IDs (§7): Tero must remember that a
/// location and a set of measurements belong to the same streamer without
/// remembering who the streamer is. A salted consistent hash gives a stable
/// opaque ID; the salt never leaves the process.
class Pseudonymizer {
 public:
  explicit Pseudonymizer(std::uint64_t salt) : salt_(salt) {}

  /// "u" + 16 hex digits, stable for a given (salt, id) pair.
  [[nodiscard]] std::string pseudonym(std::string_view streamer_id) const;

 private:
  std::uint64_t salt_;
};

/// One contiguous arc of the hash space whose owner changed between two
/// ring configurations: every key hashing into [begin, end] (inclusive)
/// moved from `from` to `to`. An empty `from` means the arc had no owner
/// before (the ring was empty); likewise for `to`.
struct RemapRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::string from;
  std::string to;
};

/// The exact set of keys a ring change moves, expressed as hash-space arcs
/// rather than a key sample — membership tests are O(log ranges) and the
/// moved fraction is exact, so callers (cluster hand-off bookkeeping, the
/// remap-bound property tests) no longer re-derive it with ad-hoc
/// sample-10k-keys-and-count math.
struct RemapDiff {
  /// Non-overlapping, sorted by `begin`; arcs that wrap past 2^64 are split
  /// into a tail range and a [0, ...] range.
  std::vector<RemapRange> ranges;

  [[nodiscard]] bool empty() const noexcept { return ranges.empty(); }
  /// Exact fraction of the 2^64 hash space whose owner changed.
  [[nodiscard]] double moved_fraction() const noexcept;
  /// Did `key` change owners? Pure binary search over `ranges`.
  [[nodiscard]] bool moved(std::string_view key) const noexcept;
  [[nodiscard]] bool moved_hash(std::uint64_t hash) const noexcept;
};

/// Classic consistent-hash ring with virtual nodes; used to shard keys
/// across store replicas so node churn only remaps a ~1/n fraction of keys.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int virtual_nodes = 64);

  void add_node(const std::string& node);
  void remove_node(const std::string& node);

  /// The node owning `key`; empty string if the ring is empty.
  [[nodiscard]] std::string node_for(std::string_view key) const;

  /// Index into nodes() of the node owning ring position `position` (a
  /// key_hash value); the ring must not be empty. node_for(key) is
  /// nodes()[owner_index(key_hash(key))].
  [[nodiscard]] std::size_t owner_index(std::uint64_t position) const;

  /// The first `n` *distinct* nodes clockwise from `key`'s hash — the
  /// replica set for `key` (owners[0] == node_for(key) is the leader, the
  /// rest are followers in ring order). Capped at node_count().
  [[nodiscard]] std::vector<std::string> nodes_for(std::string_view key,
                                                   std::size_t n) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

  /// Live nodes in insertion order (serve::QueryService enumerates its
  /// shards through this).
  [[nodiscard]] const std::vector<std::string>& nodes() const noexcept {
    return nodes_;
  }

  /// The position a key occupies on the ring (what node_for lower-bounds).
  [[nodiscard]] static std::uint64_t key_hash(std::string_view key);

  /// The running hash key_hash continues with the key's bytes (FNV-1a over
  /// eight zero salt bytes): key_hash(k) == util::fnv1a64(k, key_hash_basis()),
  /// so a caller can stream a key's parts into its position without building
  /// the key.
  [[nodiscard]] static constexpr std::uint64_t key_hash_basis() noexcept {
    constexpr char kZeroSalt[8] = {};
    return util::fnv1a64(kZeroSalt);
  }

  /// Every arc of the hash space whose owner differs between `before` and
  /// `after`. Walks the union of both rings' virtual-node boundaries, so
  /// the result is exact: adding or removing one of n nodes yields arcs
  /// totalling ~1/n of the space (the documented remap bound; see the
  /// store_test property tests).
  [[nodiscard]] static RemapDiff remap_diff(const ConsistentHashRing& before,
                                            const ConsistentHashRing& after);

 private:
  /// One virtual node: its ring position and its owner's index in nodes_.
  struct VirtualNode {
    std::uint64_t position;
    std::size_t node;
  };

  /// The first virtual node at or after `position`, wrapping past the end;
  /// the ring must not be empty.
  [[nodiscard]] std::vector<VirtualNode>::const_iterator successor(
      std::uint64_t position) const;

  int virtual_nodes_;
  std::vector<std::string> nodes_;
  /// Sorted by position, one entry per position. Where two virtual nodes
  /// hash to the same position the later add_node owns it.
  std::vector<VirtualNode> ring_;
};

}  // namespace tero::store
