#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "store/consistent_hash.hpp"
#include "store/doc_store.hpp"
#include "store/kv_store.hpp"
#include "store/object_store.hpp"
#include "store/persistence.hpp"
#include "util/rng.hpp"

namespace tero::store {
namespace {

TEST(KvStore, PutGetEraseContains) {
  KvStore kv;
  kv.put("a", "1");
  EXPECT_EQ(kv.get("a"), "1");
  EXPECT_TRUE(kv.contains("a"));
  kv.put("a", "2");
  EXPECT_EQ(kv.get("a"), "2");
  EXPECT_TRUE(kv.erase("a"));
  EXPECT_FALSE(kv.erase("a"));
  EXPECT_FALSE(kv.get("a").has_value());
}

TEST(KvStore, PrefixScan) {
  KvStore kv;
  kv.put("tracked:alice", "1");
  kv.put("tracked:bob", "1");
  kv.put("seen:alice", "3");
  const auto keys = kv.keys_with_prefix("tracked:");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "tracked:alice");
}

TEST(KvStore, ListsAreFifo) {
  KvStore kv;
  kv.push_back("q", "1");
  kv.push_back("q", "2");
  EXPECT_EQ(kv.list_size("q"), 2u);
  EXPECT_EQ(kv.pop_front("q"), "1");
  EXPECT_EQ(kv.pop_front("q"), "2");
  EXPECT_FALSE(kv.pop_front("q").has_value());
}

TEST(KvStore, PopBatchLeavesRemainder) {
  KvStore kv;
  for (int i = 0; i < 5; ++i) kv.push_back("batch", std::to_string(i));
  const auto batch = kv.pop_batch("batch", 3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], "0");
  EXPECT_EQ(kv.list_size("batch"), 2u);
  EXPECT_EQ(kv.pop_batch("empty", 3).size(), 0u);
}

TEST(ObjectStore, PutGetEraseAccounting) {
  ObjectStore store;
  store.put("thumbs", "a", "12345");
  EXPECT_EQ(store.total_bytes(), 5u);
  store.put("thumbs", "a", "12");  // overwrite shrinks accounting
  EXPECT_EQ(store.total_bytes(), 2u);
  EXPECT_EQ(store.get("thumbs", "a"), "12");
  EXPECT_FALSE(store.get("thumbs", "missing").has_value());
  EXPECT_TRUE(store.erase("thumbs", "a"));
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_EQ(store.object_count(), 0u);
}

TEST(ObjectStore, ListPerBucket) {
  ObjectStore store;
  store.put("b1", "x", "1");
  store.put("b1", "y", "2");
  store.put("b2", "z", "3");
  EXPECT_EQ(store.list("b1").size(), 2u);
  EXPECT_EQ(store.list("b2").size(), 1u);
  EXPECT_EQ(store.list("nope").size(), 0u);
}

TEST(DocStore, InsertFindScan) {
  DocStore docs;
  const auto id = docs.insert("latency", {{"streamer", "u1"}, {"ms", "45"}});
  docs.insert("latency", {{"streamer", "u2"}, {"ms", "80"}});
  ASSERT_NE(docs.find_by_id("latency", id), nullptr);
  EXPECT_EQ(docs.count("latency"), 2u);
  const auto u1 = docs.find_equal("latency", "streamer", "u1");
  ASSERT_EQ(u1.size(), 1u);
  EXPECT_EQ(doc_get_num(*u1[0], "ms"), 45.0);
  const auto heavy = docs.scan("latency", [](const Document& d) {
    return doc_get_num(d, "ms") > 50;
  });
  EXPECT_EQ(heavy.size(), 1u);
}

TEST(DocStore, RemoveIf) {
  DocStore docs;
  for (int i = 0; i < 10; ++i) {
    docs.insert("c", {{"v", std::to_string(i)}});
  }
  const auto removed = docs.remove_if(
      "c", [](const Document& d) { return doc_get_num(d, "v") < 5; });
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(docs.count("c"), 5u);
}

TEST(DocStore, FieldHelpers) {
  Document doc{{"a", "x"}};
  EXPECT_EQ(doc_get(doc, "a"), "x");
  EXPECT_EQ(doc_get(doc, "b", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(doc_get_num(doc, "missing", -1.0), -1.0);
}

TEST(Pseudonymizer, StableAndSaltDependent) {
  const Pseudonymizer a(1);
  const Pseudonymizer b(2);
  EXPECT_EQ(a.pseudonym("alice"), a.pseudonym("alice"));
  EXPECT_NE(a.pseudonym("alice"), a.pseudonym("bob"));
  EXPECT_NE(a.pseudonym("alice"), b.pseudonym("alice"));
  EXPECT_EQ(a.pseudonym("alice").size(), 17u);  // 'u' + 16 hex chars
  EXPECT_EQ(a.pseudonym("alice")[0], 'u');
}

TEST(Pseudonymizer, OutputsArePinned) {
  // Literals from a separate run: a change to the salted hash's bits would
  // orphan every pseudonym already stored.
  EXPECT_EQ(Pseudonymizer(1).pseudonym("alice"), "u00d51847a51c6ff4");
  EXPECT_EQ(Pseudonymizer(0x5eed).pseudonym("streamer_42"),
            "u3fb4d8f7c068033c");
}

TEST(ConsistentHashRing, AssignsAllKeysAndBalances) {
  ConsistentHashRing ring(64);
  ring.add_node("n1");
  ring.add_node("n2");
  ring.add_node("n3");
  std::map<std::string, int> counts;
  for (int i = 0; i < 3000; ++i) {
    counts[ring.node_for("key" + std::to_string(i))]++;
  }
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [node, count] : counts) {
    EXPECT_GT(count, 3000 / 3 / 3) << node;  // no node starves badly
  }
}

TEST(ConsistentHashRing, RemovalOnlyRemapsOwnedKeys) {
  ConsistentHashRing ring(64);
  ring.add_node("n1");
  ring.add_node("n2");
  ring.add_node("n3");
  const ConsistentHashRing before = ring;
  ring.remove_node("n2");
  const RemapDiff diff = ConsistentHashRing::remap_diff(before, ring);
  ASSERT_FALSE(diff.empty());
  // Every moved range drains n2 and lands somewhere else — no range moves
  // between the surviving nodes.
  for (const RemapRange& range : diff.ranges) {
    EXPECT_LE(range.begin, range.end);
    EXPECT_EQ(range.from, "n2");
    EXPECT_NE(range.to, "n2");
  }
  // The diff agrees with brute-force owner comparison on a key sample.
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    const bool brute = before.node_for(key) != ring.node_for(key);
    EXPECT_EQ(diff.moved(key), brute) << key;
    EXPECT_EQ(diff.moved_hash(ConsistentHashRing::key_hash(key)), brute);
  }
}

TEST(ConsistentHashRing, RemovalMovesBoundedKeyFraction) {
  // serve::QueryService and cluster::Cluster rely on node churn staying
  // ~1/n: removing one of n nodes must remap strictly less than 2/n of the
  // keyspace. remap_diff measures that exactly (hash-arc mass, not a key
  // sample); a 10k-key sample cross-checks it.
  constexpr int kNodes = 5;
  constexpr int kKeys = 10000;
  ConsistentHashRing ring(64);
  for (int i = 0; i < kNodes; ++i) {
    ring.add_node("shard-" + std::to_string(i));
  }
  const ConsistentHashRing before = ring;
  ring.remove_node("shard-2");
  const RemapDiff diff = ConsistentHashRing::remap_diff(before, ring);
  EXPECT_GT(diff.moved_fraction(), 0.0);
  EXPECT_LT(diff.moved_fraction(), 2.0 / kNodes)
      << "removal remapped " << diff.moved_fraction() << " of the keyspace";
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "latency|key" + std::to_string(i);
    if (diff.moved(key)) ++moved;
    EXPECT_EQ(diff.moved(key), before.node_for(key) != ring.node_for(key));
  }
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 2 * kKeys / kNodes)
      << "removal remapped " << moved << " of " << kKeys << " keys";
}

TEST(ConsistentHashRing, JoinAndLeaveRemapWithinDocumentedBound) {
  // The cluster's live-resharding bound: joining or leaving one of n nodes
  // moves < 2/n of the hash space, all of it to (join) or from (leave) the
  // churned node, and an unchanged ring yields an empty diff.
  for (const int nodes : {3, 5, 8, 16}) {
    ConsistentHashRing ring(64);
    for (int i = 0; i < nodes; ++i) {
      ring.add_node("shard-" + std::to_string(i));
    }
    EXPECT_TRUE(ConsistentHashRing::remap_diff(ring, ring).empty());

    const ConsistentHashRing before_join = ring;
    ring.add_node("joiner");
    const RemapDiff join_diff =
        ConsistentHashRing::remap_diff(before_join, ring);
    ASSERT_FALSE(join_diff.empty()) << nodes << " nodes";
    EXPECT_LT(join_diff.moved_fraction(), 2.0 / (nodes + 1))
        << nodes << " nodes";
    for (const RemapRange& range : join_diff.ranges) {
      EXPECT_EQ(range.to, "joiner");
      EXPECT_NE(range.from, "joiner");
    }

    const ConsistentHashRing before_leave = ring;
    ring.remove_node("joiner");
    const RemapDiff leave_diff =
        ConsistentHashRing::remap_diff(before_leave, ring);
    ASSERT_FALSE(leave_diff.empty()) << nodes << " nodes";
    EXPECT_LT(leave_diff.moved_fraction(), 2.0 / (nodes + 1))
        << nodes << " nodes";
    for (const RemapRange& range : leave_diff.ranges) {
      EXPECT_EQ(range.from, "joiner");
      EXPECT_NE(range.to, "joiner");
    }
    // Leave undoes join exactly: the same hash mass moves back.
    EXPECT_DOUBLE_EQ(join_diff.moved_fraction(), leave_diff.moved_fraction());
  }
}

TEST(ConsistentHashRing, PlacementIsStableAcrossProcessRuns) {
  // The ring hash is salted per node name, not per process: these literals
  // were captured from a separate run, so any drift in fnv1a64 or the
  // virtual-node layout (which would silently invalidate persisted shard
  // assignments) fails here.
  ConsistentHashRing ring(64);
  for (int i = 0; i < 5; ++i) {
    ring.add_node("shard-" + std::to_string(i));
  }
  EXPECT_EQ(ring.node_for("lol|DE||"), "shard-3");
  EXPECT_EQ(ring.node_for("valorant|BR||"), "shard-1");
  EXPECT_EQ(ring.node_for("fortnite|US|Texas|"), "shard-2");
  EXPECT_EQ(ring.node_for("dota2|JP||Tokyo"), "shard-0");
  EXPECT_EQ(ring.node_for("topk|lol"), "shard-1");
}

TEST(ConsistentHashRing, NodesListedInInsertionOrder) {
  ConsistentHashRing ring;
  ring.add_node("b");
  ring.add_node("a");
  ring.add_node("c");
  EXPECT_EQ(ring.nodes(), (std::vector<std::string>{"b", "a", "c"}));
  ring.remove_node("a");
  EXPECT_EQ(ring.nodes(), (std::vector<std::string>{"b", "c"}));
}

/// The ring on a position-keyed map, with a salted string built for every
/// hash: the reference ConsistentHashRing's sorted vector must match. A map
/// assignment gives a shared position to the later node.
class MapRing {
 public:
  explicit MapRing(int virtual_nodes) : virtual_nodes_(virtual_nodes) {}

  void add_node(const std::string& node) {
    if (std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end()) return;
    nodes_.push_back(node);
    for (int v = 0; v < virtual_nodes_; ++v) {
      ring_[hash(node + "#" + std::to_string(v))] = node;
    }
  }

  void remove_node(const std::string& node) {
    nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), node),
                 nodes_.end());
    std::erase_if(ring_, [&node](const auto& vnode) {
      return vnode.second == node;
    });
  }

  [[nodiscard]] std::string node_for(std::string_view key) const {
    if (ring_.empty()) return {};
    return owner_at(hash(key));
  }

  [[nodiscard]] std::vector<std::string> nodes_for(std::string_view key,
                                                   std::size_t n) const {
    std::vector<std::string> owners;
    if (ring_.empty() || n == 0) return owners;
    n = std::min(n, nodes_.size());
    auto it = ring_.lower_bound(hash(key));
    if (it == ring_.end()) it = ring_.begin();
    while (owners.size() < n) {
      if (std::find(owners.begin(), owners.end(), it->second) ==
          owners.end()) {
        owners.push_back(it->second);
      }
      if (++it == ring_.end()) it = ring_.begin();
    }
    return owners;
  }

  [[nodiscard]] const std::vector<std::string>& nodes() const {
    return nodes_;
  }

  static std::vector<RemapRange> remap(const MapRing& before,
                                       const MapRing& after) {
    std::vector<RemapRange> ranges;
    std::vector<std::uint64_t> bounds;
    for (const auto& vnode : before.ring_) bounds.push_back(vnode.first);
    for (const auto& vnode : after.ring_) bounds.push_back(vnode.first);
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    for (std::size_t j = 0; j < bounds.size(); ++j) {
      const std::string from = before.ring_.empty()
                                   ? std::string()
                                   : before.owner_at(bounds[j]);
      const std::string to =
          after.ring_.empty() ? std::string() : after.owner_at(bounds[j]);
      if (from == to) continue;
      if (j > 0) {
        ranges.push_back({bounds[j - 1] + 1, bounds[j], from, to});
      } else if (bounds.size() == 1) {
        ranges.push_back({0, kMax, from, to});
      } else {
        ranges.push_back({0, bounds[j], from, to});
        if (bounds.back() < kMax) {
          ranges.push_back({bounds.back() + 1, kMax, from, to});
        }
      }
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const RemapRange& a, const RemapRange& b) {
                return a.begin < b.begin;
              });
    return ranges;
  }

 private:
  static std::uint64_t hash(std::string_view text) {
    std::string salted(8, '\0');
    salted.append(text);
    return util::fnv1a64({salted.data(), salted.size()});
  }

  [[nodiscard]] const std::string& owner_at(std::uint64_t h) const {
    auto it = ring_.lower_bound(h);
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
  }

  int virtual_nodes_;
  std::vector<std::string> nodes_;
  std::map<std::uint64_t, std::string> ring_;
};

TEST(ConsistentHashRing, MatchesMapRingAcrossRandomChurn) {
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    util::Rng rng = util::Rng::indexed(0x72696e67, trial);
    static constexpr int kVirtualNodes[] = {1, 3, 16, 64};
    const int virtual_nodes = kVirtualNodes[trial % 4];
    MapRing reference(virtual_nodes);
    ConsistentHashRing ring(virtual_nodes);
    for (int step = 0; step < 16; ++step) {
      const MapRing reference_before = reference;
      const ConsistentHashRing before = ring;
      const std::string node = "node-" + std::to_string(rng.uniform_int(0, 7));
      // Adds outnumber removes so the ring grows; a repeated add and the
      // removal of an absent node are no-ops in both.
      if (rng.bernoulli(0.65)) {
        reference.add_node(node);
        ring.add_node(node);
      } else {
        reference.remove_node(node);
        ring.remove_node(node);
      }
      ASSERT_EQ(ring.nodes(), reference.nodes());
      for (int k = 0; k < 200; ++k) {
        const std::string key =
            "key" + std::to_string(rng.uniform_int(0, 1 << 30));
        const std::string owner = reference.node_for(key);
        ASSERT_EQ(ring.node_for(key), owner) << key;
        if (!owner.empty()) {
          EXPECT_EQ(ring.nodes()[ring.owner_index(
                        ConsistentHashRing::key_hash(key))],
                    owner);
        }
        const auto n = static_cast<std::size_t>(rng.uniform_int(1, 5));
        EXPECT_EQ(ring.nodes_for(key, n), reference.nodes_for(key, n)) << key;
      }
      const auto expected = MapRing::remap(reference_before, reference);
      const RemapDiff diff = ConsistentHashRing::remap_diff(before, ring);
      ASSERT_EQ(diff.ranges.size(), expected.size()) << "step " << step;
      for (std::size_t r = 0; r < expected.size(); ++r) {
        EXPECT_EQ(diff.ranges[r].begin, expected[r].begin);
        EXPECT_EQ(diff.ranges[r].end, expected[r].end);
        EXPECT_EQ(diff.ranges[r].from, expected[r].from);
        EXPECT_EQ(diff.ranges[r].to, expected[r].to);
      }
    }
  }
}

TEST(ConsistentHashRing, CollidingVirtualNodesGoToTheLaterNode) {
  // These two names reach one FNV-1a state, so each virtual node of one
  // lands on the position of the other's with the same number.
  const std::string a = "40dfc844696501a8";
  const std::string b = "c572b9353e03f747";
  ASSERT_EQ(ConsistentHashRing::key_hash(a + "#0"),
            ConsistentHashRing::key_hash(b + "#0"));
  for (const bool a_first : {true, false}) {
    const std::string& first = a_first ? a : b;
    const std::string& second = a_first ? b : a;
    MapRing reference(4);
    ConsistentHashRing ring(4);
    for (const std::string& node : {std::string("n1"), first, second}) {
      reference.add_node(node);
      ring.add_node(node);
    }
    const ConsistentHashRing with_both = ring;
    // Removing the later node drops the shared positions; the earlier node
    // does not get them back.
    MapRing reference_after = reference;
    reference_after.remove_node(second);
    ConsistentHashRing after = ring;
    after.remove_node(second);
    std::size_t owned_by_second = 0;
    for (int k = 0; k < 2000; ++k) {
      const std::string key = "key" + std::to_string(k);
      ASSERT_EQ(ring.node_for(key), reference.node_for(key));
      EXPECT_NE(ring.node_for(key), first);
      if (ring.node_for(key) == second) ++owned_by_second;
      ASSERT_EQ(after.node_for(key), reference_after.node_for(key));
      EXPECT_EQ(after.node_for(key), "n1");
    }
    EXPECT_GT(owned_by_second, 0u);
    const auto expected = MapRing::remap(reference, reference_after);
    const RemapDiff diff = ConsistentHashRing::remap_diff(with_both, after);
    ASSERT_EQ(diff.ranges.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(diff.ranges[r].begin, expected[r].begin);
      EXPECT_EQ(diff.ranges[r].to, "n1");
    }
  }
}

TEST(ConsistentHashRing, EmptyRing) {
  ConsistentHashRing ring;
  EXPECT_EQ(ring.node_for("anything"), "");
  EXPECT_EQ(ring.node_count(), 0u);
}

TEST(ConsistentHashRing, DuplicateAddIgnored) {
  ConsistentHashRing ring;
  ring.add_node("n1");
  ring.add_node("n1");
  EXPECT_EQ(ring.node_count(), 1u);
}

}  // namespace
}  // namespace tero::store

namespace persistence_tests {
using namespace tero::store;

TEST(Persistence, KvRoundTrip) {
  KvStore kv;
  kv.put("tracked:alice", "1");
  kv.put("weird key,with\nstuff", "value with spaces\nand newline");
  kv.push_back("queue", "first");
  kv.push_back("queue", "second, with comma");
  std::ostringstream snapshot;
  snapshot_kv(kv, snapshot);
  std::istringstream input(snapshot.str());
  KvStore restored = restore_kv(input);
  EXPECT_EQ(restored.get("tracked:alice"), "1");
  EXPECT_EQ(restored.get("weird key,with\nstuff"),
            "value with spaces\nand newline");
  EXPECT_EQ(restored.pop_front("queue"), "first");
  EXPECT_EQ(restored.pop_front("queue"), "second, with comma");
  EXPECT_FALSE(restored.pop_front("queue").has_value());
}

TEST(Persistence, KvEmptySnapshot) {
  KvStore kv;
  std::ostringstream snapshot;
  snapshot_kv(kv, snapshot);
  std::istringstream input(snapshot.str());
  const KvStore restored = restore_kv(input);
  EXPECT_EQ(restored.size(), 0u);
}

TEST(Persistence, KvRejectsGarbage) {
  std::istringstream input("X 3 abc");
  EXPECT_THROW(restore_kv(input), std::invalid_argument);
  std::istringstream truncated("K 10 short");
  EXPECT_THROW(restore_kv(truncated), std::invalid_argument);
}

TEST(Persistence, DocsRoundTrip) {
  DocStore docs;
  docs.insert("latency", {{"streamer", "u1"}, {"ms", "45"}});
  docs.insert("latency", {{"streamer", "u2"}, {"note", "has, comma"}});
  docs.insert("other", {{"k", "v"}});
  std::ostringstream snapshot;
  snapshot_docs(docs, snapshot);
  std::istringstream input(snapshot.str());
  DocStore restored = restore_docs(input);
  EXPECT_EQ(restored.count("latency"), 2u);
  EXPECT_EQ(restored.count("other"), 1u);
  const auto u2 = restored.find_equal("latency", "streamer", "u2");
  ASSERT_EQ(u2.size(), 1u);
  EXPECT_EQ(doc_get(*u2[0], "note"), "has, comma");
}

TEST(Persistence, KvEnumeration) {
  KvStore kv;
  kv.push_back("a", "1");
  kv.push_back("b", "2");
  EXPECT_EQ(kv.list_keys().size(), 2u);
  EXPECT_EQ(kv.list_contents("a"), std::vector<std::string>{"1"});
  EXPECT_TRUE(kv.list_contents("missing").empty());
}

TEST(Persistence, ZeroLengthFieldsRoundTrip) {
  // Empty keys and empty values are legal length-prefixed fields ("0 "):
  // the reader must consume exactly zero bytes and continue at the next
  // record rather than eating the separator or declaring truncation.
  KvStore kv;
  kv.put("", "value under empty key");
  kv.put("empty value", "");
  kv.push_back("queue", "");
  kv.push_back("", "element under empty list key");
  std::ostringstream snapshot;
  snapshot_kv(kv, snapshot);
  std::istringstream input(snapshot.str());
  KvStore restored = restore_kv(input);
  EXPECT_EQ(restored.get(""), "value under empty key");
  EXPECT_EQ(restored.get("empty value"), "");
  EXPECT_EQ(restored.pop_front("queue"), "");
  EXPECT_EQ(restored.pop_front(""), "element under empty list key");
}

TEST(Persistence, ValueEndingExactlyAtStreamEnd) {
  // A record whose value runs to the final byte of the stream (no trailing
  // newline) sits exactly at the length-prefix boundary: read_field must
  // see gcount() == length and the record loop must then hit clean EOF.
  std::istringstream exact("K 1 a 5 hello");
  KvStore restored = restore_kv(exact);
  EXPECT_EQ(restored.get("a"), "hello");

  // One declared byte short of that boundary is truncation, not EOF.
  std::istringstream short_one("K 1 a 6 hello");
  EXPECT_THROW(restore_kv(short_one), std::invalid_argument);

  // Cut exactly after the length prefix: zero of the declared bytes exist.
  std::istringstream prefix_only("K 1 a 5 ");
  EXPECT_THROW(restore_kv(prefix_only), std::invalid_argument);
}

TEST(Persistence, FileRoundTripZeroLengthPayload) {
  // An empty store snapshots to a zero-length payload, so the file is
  // exactly header + "0 <checksum-of-empty>\n" + trailer. The footer scan
  // must not misread the length/checksum line as payload.
  const auto dir =
      std::filesystem::temp_directory_path() / "tero_store_persist_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "empty.tkv").string();
  save_kv_file(KvStore{}, path);
  const KvStore restored = load_kv_file(path);
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_TRUE(restored.list_keys().empty());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Persistence, FileRoundTripZeroLengthFields) {
  // Zero-length keys and values survive the full save/load path, where the
  // payload is additionally framed by the byte count + checksum footer.
  const auto dir =
      std::filesystem::temp_directory_path() / "tero_store_persist_test2";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "fields.tkv").string();
  KvStore kv;
  kv.put("", "");
  kv.put("k", "");
  kv.push_back("list", "");
  save_kv_file(kv, path);
  KvStore restored = load_kv_file(path);
  EXPECT_EQ(restored.get(""), "");
  EXPECT_EQ(restored.get("k"), "");
  EXPECT_EQ(restored.pop_front("list"), "");
  std::filesystem::remove_all(dir);
}

TEST(Persistence, FileTruncatedAtLengthPrefixBoundaryRejected) {
  // Truncate a valid snapshot file so the payload ends exactly where a
  // record's length prefix promises more bytes — then re-append the footer
  // and trailer so only the payload-length check can catch it. load_kv_file
  // must reject rather than restore a half-record.
  const auto dir =
      std::filesystem::temp_directory_path() / "tero_store_persist_test3";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "torn.tkv").string();
  KvStore kv;
  kv.put("key", "0123456789");
  save_kv_file(kv, path);

  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string contents = buffer.str();
  // Drop the final payload bytes (the value body after its "10 " prefix)
  // while keeping the original footer and trailer intact.
  const auto cut = contents.find("0123456789");
  ASSERT_NE(cut, std::string::npos);
  const auto rest = contents.find('\n', cut);
  ASSERT_NE(rest, std::string::npos);
  contents.erase(cut, rest - cut);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();

  EXPECT_THROW(load_kv_file(path), std::runtime_error);
  std::filesystem::remove_all(dir);
}

}  // namespace persistence_tests
