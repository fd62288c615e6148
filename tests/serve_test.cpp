#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/epoch.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_io.hpp"
#include "stats/descriptive.hpp"
#include "store/consistent_hash.hpp"
#include "synth/sessions.hpp"
#include "tero/pipeline.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tero::serve {
namespace {

SnapshotEntry make_entry(const std::string& country, const std::string& game,
                         std::vector<double> values,
                         const std::string& region = "",
                         const std::string& city = "") {
  SnapshotEntry entry;
  entry.location.city = city;
  entry.location.region = region;
  entry.location.country = country;
  entry.game = game;
  entry.sorted_values = std::move(values);
  std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
  entry.samples = entry.sorted_values.size();
  entry.mean_ms = entry.sorted_values.empty()
                      ? 0.0
                      : stats::mean(entry.sorted_values);
  if (!entry.sorted_values.empty()) {
    entry.box = stats::boxplot(entry.sorted_values);
  }
  entry.key = entry_key(entry.location, entry.game);
  entry.streamers = 3;
  return entry;
}

std::vector<SnapshotEntry> three_entries() {
  return {make_entry("DE", "lol", {30, 32, 34, 36, 38}),
          make_entry("FR", "lol", {50, 55, 60, 65, 70}),
          make_entry("BR", "lol", {90, 95, 100, 105, 200})};
}

TEST(Snapshot, FindAndPointStats) {
  const Snapshot snapshot(1, three_entries());
  ASSERT_EQ(snapshot.size(), 3u);
  geo::Location de;
  de.country = "DE";
  const SnapshotEntry* entry = snapshot.find(de, "lol");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->samples, 5u);
  EXPECT_DOUBLE_EQ(entry->mean_ms, 34.0);
  EXPECT_DOUBLE_EQ(entry->percentile(50), 34.0);
  EXPECT_DOUBLE_EQ(entry->ecdf(33.0), 0.4);   // 30, 32 <= 33
  EXPECT_DOUBLE_EQ(entry->ecdf(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(entry->ecdf(0.0), 0.0);
  geo::Location us;
  us.country = "US";
  EXPECT_EQ(snapshot.find(us, "lol"), nullptr);
  EXPECT_EQ(snapshot.find(de, "dota"), nullptr);
}

/// Snapshot::find as a binary search over the key strings: the reference
/// the hash index must match, entry for entry.
const SnapshotEntry* find_by_key_search(const Snapshot& snapshot,
                                        const geo::Location& location,
                                        std::string_view game) {
  const std::string key = entry_key(location, game);
  const auto entries = snapshot.entries();
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const SnapshotEntry& entry, const std::string& k) {
        return entry.key < k;
      });
  if (it == entries.end() || it->key != key) return nullptr;
  return &*it;
}

/// Entries over a small field palette: games where one is a prefix of
/// another ("lo", "lol", "lol2"), empty regions and cities, and repeats.
std::vector<SnapshotEntry> random_entries(util::Rng& rng, std::size_t n) {
  static const char* const kGames[] = {"lol", "lol2", "lo", "valorant",
                                       "dota2"};
  static const char* const kCountries[] = {"DE", "FR", "BR", "US", "D"};
  static const char* const kRegions[] = {"", "Hesse", "Texas"};
  static const char* const kCities[] = {"", "Berlin", "Austin"};
  std::vector<SnapshotEntry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values;
    for (std::int64_t v = rng.uniform_int(0, 6); v > 0; --v) {
      values.push_back(static_cast<double>(rng.uniform_int(10, 200)));
    }
    entries.push_back(make_entry(kCountries[rng.uniform_int(0, 4)],
                                 kGames[rng.uniform_int(0, 4)],
                                 std::move(values),
                                 kRegions[rng.uniform_int(0, 2)],
                                 kCities[rng.uniform_int(0, 2)]));
  }
  return entries;
}

/// find() with and without a precomputed hash agrees with the reference,
/// and the streamed hash is the ring's hash of the built key.
void expect_lookup_matches(const Snapshot& snapshot,
                           const geo::Location& location,
                           const std::string& game) {
  const std::uint64_t hash = entry_key_hash(location, game);
  ASSERT_EQ(hash, store::ConsistentHashRing::key_hash(
                      entry_key(location, game)));
  const SnapshotEntry* expected =
      find_by_key_search(snapshot, location, game);
  EXPECT_EQ(snapshot.find(location, game), expected)
      << entry_key(location, game);
  EXPECT_EQ(snapshot.find(location, game, hash), expected);
}

TEST(Snapshot, HashLookupMatchesKeyBinarySearch) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    util::Rng rng = util::Rng::indexed(0x6c6f6f6b, trial);
    const Snapshot snapshot(
        1, random_entries(rng, static_cast<std::size_t>(
                                   rng.uniform_int(1, 60))));
    for (const SnapshotEntry& entry : snapshot.entries()) {
      ASSERT_NE(snapshot.find(entry.location, entry.game), nullptr);
      expect_lookup_matches(snapshot, entry.location, entry.game);
      // Near misses: each field changed, region and city emptied, and the
      // prefix games.
      geo::Location near = entry.location;
      near.country += "E";
      expect_lookup_matches(snapshot, near, entry.game);
      near = entry.location;
      near.region = near.region.empty() ? "Hesse" : "";
      expect_lookup_matches(snapshot, near, entry.game);
      near = entry.location;
      near.city = near.city.empty() ? "Berlin" : "";
      expect_lookup_matches(snapshot, near, entry.game);
      near = entry.location;
      near.region.clear();
      near.city.clear();
      expect_lookup_matches(snapshot, near, entry.game);
      near = entry.location;
      std::swap(near.region, near.city);
      expect_lookup_matches(snapshot, near, entry.game);
      expect_lookup_matches(snapshot, entry.location, entry.game + "2");
      expect_lookup_matches(snapshot, entry.location,
                            entry.game.substr(0, entry.game.size() - 1));
      expect_lookup_matches(snapshot, entry.location, "");
    }
  }
}

TEST(Snapshot, HashLookupSeesTheKeyNotTheFields) {
  // A '|' inside a field moves where the key's fields split: {game
  // "lol|DE", country "Hesse"} and {game "lol", country "DE|Hesse"} build
  // the same key, so a key-string search finds one from the other.
  SnapshotEntry shifted = make_entry("Hesse", "lol|DE", {40, 50});
  const Snapshot snapshot(1, {shifted, make_entry("FR", "lol", {60})});
  geo::Location split;
  split.country = "DE|Hesse";
  ASSERT_NE(find_by_key_search(snapshot, split, "lol"), nullptr);
  expect_lookup_matches(snapshot, split, "lol");
  expect_lookup_matches(snapshot, shifted.location, "lol|DE");
  split.country = "DE|Hess";
  expect_lookup_matches(snapshot, split, "lol");
}

TEST(Snapshot, DuplicateKeyReturnsTheEntryTheKeySearchReturns) {
  // Two entries with one key share one hash: the lookup scans the equal
  // hashes in entry order and must stop where the key search stops.
  const Snapshot snapshot(
      1, {make_entry("DE", "lol", {10}), make_entry("FR", "lol", {20}),
          make_entry("DE", "lol", {30, 31}), make_entry("DE", "lol2", {40})});
  geo::Location de;
  de.country = "DE";
  const SnapshotEntry* found = snapshot.find(de, "lol");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, find_by_key_search(snapshot, de, "lol"));
  expect_lookup_matches(snapshot, de, "lol2");
  expect_lookup_matches(snapshot, de, "lo");
}

TEST(Snapshot, TopKWorstRanksByP95) {
  const Snapshot snapshot(1, three_entries());
  const auto worst = snapshot.worst_locations("lol", 2);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0]->location.country, "BR");
  EXPECT_EQ(worst[1]->location.country, "FR");
  // k larger than the population clips without crashing.
  EXPECT_EQ(snapshot.worst_locations("lol", 99).size(), 3u);
  EXPECT_TRUE(snapshot.worst_locations("unknown-game", 3).empty());
}

/// The ranking each snapshot builds once must order a game's entries
/// exactly as a per-query scan and full sort of its key block would.
TEST(Snapshot, PrebuiltRankingMatchesPerQuerySort) {
  const auto reference = [](const Snapshot& snapshot, const std::string& game,
                            std::size_t k) {
    std::vector<const SnapshotEntry*> candidates;
    for (const SnapshotEntry& entry : snapshot.entries()) {
      if (entry.key.rfind(game + "|", 0) == 0 && entry.samples > 0) {
        candidates.push_back(&entry);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const SnapshotEntry* a, const SnapshotEntry* b) {
                if (a->box.p95 != b->box.p95) return a->box.p95 > b->box.p95;
                return a->key < b->key;
              });
    if (candidates.size() > k) candidates.resize(k);
    return candidates;
  };
  const std::vector<std::string> games = {"lol", "lol2", "cs go", "dota", "a"};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    std::vector<SnapshotEntry> entries;
    const auto n = rng.uniform_int(0, 60);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::string& game =
          games[static_cast<std::size_t>(rng.uniform_int(0, 4))];
      // Few distinct values, so many p95s tie; some entries have no samples.
      std::vector<double> values;
      const auto samples = rng.uniform_int(0, 4);
      for (std::int64_t v = 0; v < samples; ++v) {
        values.push_back(static_cast<double>(rng.uniform_int(1, 3)) * 10.0);
      }
      entries.push_back(make_entry("C" + std::to_string(i), game,
                                   std::move(values),
                                   rng.bernoulli(0.5) ? "R" : ""));
    }
    const Snapshot snapshot(seed, std::move(entries));
    for (const std::string& game : games) {
      for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{100}}) {
        EXPECT_EQ(snapshot.worst_locations(game, k),
                  reference(snapshot, game, k))
            << "seed " << seed << " game " << game << " k " << k;
      }
    }
    EXPECT_TRUE(snapshot.worst_locations("lo", 5).empty());
  }
}

TEST(Snapshot, BuildsFromPipelineDataset) {
  synth::WorldConfig world_config;
  world_config.seed = 5;
  world_config.num_streamers = 40;
  world_config.p_twitter = 1.0;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = 3;
  synth::SessionGenerator generator(world, behavior, 7);
  const auto streams = generator.generate();

  core::TeroConfig config;
  config.p_latency_visible = 1.0;
  config.threads = 1;

  // The publish hook fires at the end of run() with the finished dataset.
  ServeConfig serve_config;
  QueryService service(serve_config);
  config.on_dataset = publish_hook(service);

  core::Pipeline pipeline(config);
  const core::Dataset dataset = pipeline.run(world, streams);

  const SnapshotPtr snapshot = service.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_EQ(snapshot->size(), dataset.aggregates.size());
  for (const auto& aggregate : dataset.aggregates) {
    const SnapshotEntry* entry =
        snapshot->find(aggregate.location, aggregate.game);
    ASSERT_NE(entry, nullptr) << aggregate.game;
    EXPECT_EQ(entry->samples, aggregate.distribution.size());
    EXPECT_EQ(entry->streamers, aggregate.streamers);
    if (aggregate.box.has_value()) {
      EXPECT_DOUBLE_EQ(entry->box.p50, aggregate.box->p50);
      // Serving percentiles agree with the offline boxplot computation.
      EXPECT_DOUBLE_EQ(entry->percentile(95), aggregate.box->p95);
    }
  }
}

TEST(EpochPublisher, SwapsAtomicallyUnderConcurrentReaders) {
  EpochPublisher publisher;
  EXPECT_EQ(publisher.current(), nullptr);
  EXPECT_EQ(publisher.epoch(), 0u);

  // Each published epoch e carries e entries, all named consistently —
  // readers assert they never see a half-built or mixed snapshot.
  constexpr std::uint64_t kEpochs = 200;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> observed_epochs{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotPtr snapshot = publisher.current();
        if (snapshot == nullptr) continue;
        const std::uint64_t epoch = snapshot->epoch();
        ASSERT_EQ(snapshot->size(), epoch);  // snapshot is internally whole
        ASSERT_GE(epoch, last_seen);         // epochs are monotone per reader
        last_seen = epoch;
        observed_epochs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    std::vector<SnapshotEntry> entries;
    for (std::uint64_t i = 0; i < e; ++i) {
      entries.push_back(make_entry("C" + std::to_string(i), "g",
                                   {double(e), double(e) + 1.0}));
    }
    publisher.publish(std::move(entries));
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(publisher.epoch(), kEpochs);
  EXPECT_GT(observed_epochs.load(), 0u);
  EXPECT_EQ(publisher.current()->size(), kEpochs);
}

TEST(EpochPublisher, RestoredSnapshotKeepsItsEpoch) {
  EpochPublisher publisher;
  publisher.publish(std::make_shared<const Snapshot>(41, three_entries()));
  EXPECT_EQ(publisher.epoch(), 41u);
  // The next built epoch continues past the restored number.
  const std::uint64_t next = publisher.publish(three_entries());
  EXPECT_EQ(next, 42u);
}

TEST(QueryServiceTest, PointQueriesMatchSnapshotMath) {
  QueryService service(ServeConfig{});
  service.publish(three_entries());
  Query query;
  query.location.country = "FR";
  query.game = "lol";
  query.kind = QueryKind::kPercentile;
  query.param = 50;
  EXPECT_DOUBLE_EQ(service.query(query).value, 60.0);
  query.kind = QueryKind::kMean;
  EXPECT_DOUBLE_EQ(service.query(query).value, 60.0);
  query.kind = QueryKind::kCount;
  EXPECT_DOUBLE_EQ(service.query(query).value, 5.0);
  query.kind = QueryKind::kEcdf;
  query.param = 57.0;
  EXPECT_DOUBLE_EQ(service.query(query).value, 0.4);
  query.kind = QueryKind::kTopK;
  query.k = 1;
  const auto top = service.query(query);
  ASSERT_EQ(top.top.size(), 1u);
  geo::Location brazil;
  brazil.country = "BR";
  EXPECT_EQ(top.top[0].location, brazil.to_string());
}

TEST(QueryServiceTest, StatusesAndEmptyService) {
  QueryService service(ServeConfig{});
  Query query;
  query.location.country = "DE";
  query.game = "lol";
  EXPECT_EQ(service.query(query).status, QueryStatus::kNoSnapshot);
  service.publish(three_entries());
  EXPECT_EQ(service.query(query).status, QueryStatus::kOk);
  query.location.country = "US";
  EXPECT_EQ(service.query(query).status, QueryStatus::kNotFound);
}

TEST(QueryServiceTest, NextAnswerAfterPublishComesFromNewEpoch) {
  obs::MetricsRegistry registry;
  ServeConfig config;
  config.shards = 2;
  config.metrics = &registry;
  QueryService service(config);
  service.publish(
      {make_entry("DE", "lol", {10, 20, 30})});

  Query query;
  query.location.country = "DE";
  query.game = "lol";
  query.kind = QueryKind::kMean;
  const auto first = service.query(query);
  EXPECT_DOUBLE_EQ(first.value, 20.0);
  EXPECT_EQ(first.epoch, 1u);
  const auto second = service.query(query);
  EXPECT_EQ(hash_response(0, second), hash_response(0, first));

  // New epoch with different data: the very next query answers from it.
  service.publish({make_entry("DE", "lol", {100, 200, 300})});
  const auto fresh = service.query(query);
  EXPECT_DOUBLE_EQ(fresh.value, 200.0);
  EXPECT_EQ(fresh.epoch, 2u);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(registry.counter("tero.serve.publishes").value(), 2u);
  EXPECT_EQ(registry.gauge("tero.serve.epoch").value(), 2.0);
  // No response cache: the accessors perfbench still reads stay at 0.
  EXPECT_EQ(service.cache_hits(), 0u);
  EXPECT_EQ(service.cache_misses(), 0u);
  // One queue-depth gauge per shard, labeled with the shard; the queried
  // shard saw one query in flight.
  std::size_t depth_gauges = 0;
  for (const auto& [name, gauge] : registry.gauges()) {
    if (name.starts_with("tero.serve.shard_queue_depth{")) ++depth_gauges;
  }
  EXPECT_EQ(depth_gauges, service.shard_count());
  EXPECT_EQ(registry
                .gauge(obs::MetricsRegistry::labeled(
                    "tero.serve.shard_queue_depth",
                    {{"shard", "shard-" + std::to_string(
                                   service.shard_for(query))}}))
                .value(),
            1.0);
}

TEST(QueryServiceTest, BothPublishOverloadsRotateThePreviousEpoch) {
  obs::MetricsRegistry registry;
  fault::FaultInjector injector(
      fault::FaultPlan::parse("serve.shard-0=error@1:max=2"));
  ServeConfig config;
  config.shards = 1;
  config.metrics = &registry;
  config.injector = &injector;
  QueryService service(config);
  Query query;
  query.location.country = "DE";
  query.game = "lol";
  query.kind = QueryKind::kMean;

  // A restored snapshot keeps its epoch; the built one continues past it
  // and demotes the restored one to the degraded path's fallback.
  service.publish(std::make_shared<const Snapshot>(
      41, std::vector<SnapshotEntry>{make_entry("DE", "lol", {10, 20, 30})}));
  EXPECT_EQ(service.publish({make_entry("DE", "lol", {100, 200, 300})}), 42u);
  const auto from_41 = service.query(query, 0.0);
  EXPECT_TRUE(from_41.stale);
  EXPECT_EQ(from_41.stale_age, 1u);
  EXPECT_DOUBLE_EQ(from_41.value, 20.0);

  // And the other way round: the snapshot overload demotes epoch 42.
  service.publish(std::make_shared<const Snapshot>(
      50, std::vector<SnapshotEntry>{make_entry("DE", "lol", {1, 2, 3})}));
  const auto from_42 = service.query(query, 0.1);
  EXPECT_TRUE(from_42.stale);
  EXPECT_EQ(from_42.stale_age, 8u);
  EXPECT_DOUBLE_EQ(from_42.value, 200.0);
  EXPECT_DOUBLE_EQ(service.query(query, 0.2).value, 2.0);  // plan drained

  EXPECT_EQ(service.publish_count(), 3u);
  EXPECT_EQ(registry.counter("tero.serve.publishes").value(), 3u);
  EXPECT_EQ(registry.gauge("tero.serve.epoch").value(), 50.0);
}

TEST(QueryServiceTest, ShardKeyIsTheEntryKeyOrTheTopKGame) {
  Query query;
  query.location.country = "DE";
  query.location.region = "Hesse";
  query.game = "lol";
  EXPECT_EQ(shard_key(query), entry_key(query.location, "lol"));
  query.kind = QueryKind::kRangeDrift;  // history lives with its entry
  EXPECT_EQ(shard_key(query), entry_key(query.location, "lol"));
  query.kind = QueryKind::kTopK;  // one shard per game, location ignored
  EXPECT_EQ(shard_key(query), "topk|lol");
  query.location.country = "FR";
  EXPECT_EQ(shard_key(query), "topk|lol");
}

TEST(QueryServiceTest, ShardingIsStableAndCovering) {
  ServeConfig config;
  config.shards = 4;
  QueryService service(config);
  service.publish(three_entries());
  Query query;
  query.game = "lol";
  std::vector<std::size_t> seen;
  for (const char* country : {"DE", "FR", "BR"}) {
    query.location.country = country;
    const std::size_t shard = service.shard_for(query);
    EXPECT_LT(shard, service.shard_count());
    EXPECT_EQ(shard, service.shard_for(query));  // stable
    seen.push_back(shard);
  }
  // TopK queries shard by game, also inside range.
  query.kind = QueryKind::kTopK;
  EXPECT_LT(service.shard_for(query), service.shard_count());
}

TEST(QueryServiceTest, ShardForMatchesTheRingNodeName) {
  // Today's shard formula: the ring's node name for shard_key(q), parsed
  // back from "shard-<i>".
  util::Rng rng(0x73686172);
  const Snapshot snapshot(1, random_entries(rng, 80));
  LoadGenConfig load;
  load.queries = 4096;
  load.seed = 17;
  load.p_topk = 0.1;
  std::vector<Query> queries = generate_queries(snapshot, load);
  for (std::size_t i = 0; i < queries.size(); i += 13) {
    queries[i].kind = QueryKind::kRangeMean;
  }
  for (const std::size_t shards : {1, 4, 8}) {
    ServeConfig config;
    config.shards = shards;
    const QueryService service(config);
    store::ConsistentHashRing ring(config.ring_virtual_nodes);
    for (std::size_t i = 0; i < shards; ++i) {
      ring.add_node("shard-" + std::to_string(i));
    }
    std::size_t topk = 0;
    for (const Query& query : queries) {
      const std::string key = shard_key(query);
      ASSERT_EQ(placement_hash(query),
                store::ConsistentHashRing::key_hash(key))
          << key;
      ASSERT_EQ(service.shard_for(query),
                std::strtoul(ring.node_for(key).c_str() + 6, nullptr, 10))
          << key;
      if (query.kind == QueryKind::kTopK) ++topk;
    }
    EXPECT_GT(topk, 100u);
  }
}

TEST(QueryServiceTest, EnablingAdmissionShedsTheNextOverRateQuery) {
  ServeConfig config;
  config.shards = 2;
  QueryService service(config);
  service.publish({make_entry("DE", "lol", {1, 2, 3})});
  Query query;
  query.location.country = "DE";
  query.game = "lol";
  query.kind = QueryKind::kMean;
  // Off: nothing sheds and nothing is counted.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(service.query(query, i * 0.001).status, QueryStatus::kOk);
  }
  EXPECT_EQ(service.shed_count(), 0u);
  // On at 10 qps with a burst of 2: two queries pass, the third sheds.
  service.set_admission_rate(0.1, 10.0, 2.0);
  std::vector<QueryStatus> statuses;
  for (int i = 0; i < 100; ++i) {
    statuses.push_back(service.query(query, 0.1 + i * 0.001).status);
  }
  EXPECT_EQ(statuses[0], QueryStatus::kOk);
  EXPECT_EQ(statuses[1], QueryStatus::kOk);
  EXPECT_EQ(statuses[2], QueryStatus::kShed);
  EXPECT_EQ(std::count(statuses.begin(), statuses.end(), QueryStatus::kShed),
            98);
  EXPECT_EQ(service.shed_count(), 98u);
  // Off again: the next query passes and the count holds.
  service.set_admission_rate(0.2, 0.0);
  EXPECT_EQ(service.query(query, 0.2).status, QueryStatus::kOk);
  EXPECT_EQ(service.shed_count(), 98u);
}

TEST(QueryServiceTest, AdmissionToggledUnderConcurrentQueriesCountsEveryShed) {
  // Readers check the enabled flag without the admission lock while the
  // rate flips on and off: every query is answered or shed, and each shed
  // answer is one counted shed.
  QueryService service(ServeConfig{});
  service.publish(three_entries());
  Query query;
  query.location.country = "DE";
  query.game = "lol";
  query.kind = QueryKind::kCount;
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> other{0};
  std::atomic<int> running{3};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 4000; ++i) {
        const QueryStatus status = service.query(query, 1.0).status;
        if (status == QueryStatus::kShed) {
          shed.fetch_add(1);
        } else if (status != QueryStatus::kOk) {
          other.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  // Each enable refills the bucket to its burst of 2, so sheds keep coming.
  for (int flip = 0; running.load() > 0; ++flip) {
    service.set_admission_rate(1.0, flip % 2 == 0 ? 5.0 : 0.0, 2.0);
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(service.shed_count(), shed.load());
}

TEST(QueryServiceTest, ShedsUnderOverloadAndRecovers) {
  obs::MetricsRegistry registry;
  ServeConfig config;
  config.admission_rate_qps = 10.0;
  config.admission_burst = 5.0;
  config.metrics = &registry;
  QueryService service(config);
  service.publish(three_entries());

  Query query;
  query.location.country = "DE";
  query.game = "lol";
  query.kind = QueryKind::kMean;

  // Burst capacity admits the first 5 queries at t=0, then sheds.
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (int i = 0; i < 20; ++i) {
    const auto response = service.query(query, /*now_s=*/0.0);
    if (response.status == QueryStatus::kOk) ++ok;
    if (response.status == QueryStatus::kShed) ++shed;
  }
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(shed, 15u);
  EXPECT_EQ(service.shed_count(), 15u);
  EXPECT_EQ(registry
                .counter(obs::MetricsRegistry::labeled("tero.serve.denied",
                                                       {{"reason", "shed"}}))
                .value(),
            15u);

  // One second later the bucket has refilled rate * 1s = 10 tokens, but the
  // balance is capped at the burst size, so only 5 more get through.
  ok = shed = 0;
  for (int i = 0; i < 20; ++i) {
    const auto response = service.query(query, /*now_s=*/1.0);
    if (response.status == QueryStatus::kOk) ++ok;
    if (response.status == QueryStatus::kShed) ++shed;
  }
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(shed, 15u);
}

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  AdmissionController admission(0.0, 0.0);
  EXPECT_FALSE(admission.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(admission.try_admit(0.0));
  EXPECT_EQ(admission.shed(), 0u);
}

TEST(AdmissionControllerTest, FixedSequenceCountsArePinned) {
  AdmissionController admission(100.0, 5.0);
  for (int i = 0; i < 1000; ++i) (void)admission.try_admit(i * 0.004);
  admission.set_rate(4.0, 0.0);
  EXPECT_FALSE(admission.enabled());
  for (int i = 0; i < 100; ++i) (void)admission.try_admit(4.0 + i * 0.001);
  admission.set_rate(4.1, 50.0, 3.0);
  EXPECT_TRUE(admission.enabled());
  for (int i = 0; i < 500; ++i) (void)admission.try_admit(4.1 + i * 0.01);
  admission.set_rate(9.1, 20.0);
  for (int i = 0; i < 300; ++i) (void)admission.try_admit(9.1 + i * 0.02);
  // Literals from a separate run of this sequence.
  EXPECT_EQ(admission.admitted(), 776u);
  EXPECT_EQ(admission.shed(), 1024u);
}

TEST(AdmissionControllerTest, RateStepUpAtRefillBoundaryMintsNothing) {
  // 10 qps, burst 10; drain the bucket dry at t=0.
  AdmissionController admission(10.0, 10.0);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(admission.try_admit(0.0));
  ASSERT_FALSE(admission.try_admit(0.0));

  // Step up to 100 qps exactly at the t=1s refill boundary. The elapsed
  // second must refill at the *old* 10 qps (10 tokens), not retroactively
  // at the new 100 qps.
  admission.set_rate(1.0, 100.0, 100.0);
  std::uint64_t ok = 0;
  while (admission.try_admit(1.0)) ++ok;
  EXPECT_EQ(ok, 10u);

  // From here the new rate applies: the next second accrues 100 tokens.
  ok = 0;
  while (admission.try_admit(2.0)) ++ok;
  EXPECT_EQ(ok, 100u);
}

TEST(AdmissionControllerTest, RateStepDownAtRefillBoundaryClampsBalance) {
  // 100 qps, burst 100: at the t=1s boundary the balance is a full 100.
  AdmissionController admission(100.0, 100.0);
  ASSERT_TRUE(admission.try_admit(0.0));

  // Step down to 5 qps / burst 5 exactly at the boundary: the balance must
  // clamp to the new burst, never go negative, and never keep the old
  // surplus.
  admission.set_rate(1.0, 5.0, 5.0);
  std::uint64_t ok = 0;
  while (admission.try_admit(1.0)) ++ok;
  EXPECT_EQ(ok, 5u);
  EXPECT_FALSE(admission.try_admit(1.05));  // only 0.25 tokens accrued

  // Refill now runs at the stepped-down rate.
  ok = 0;
  while (admission.try_admit(2.0)) ++ok;
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(admission.rate_qps(), 5.0);
  EXPECT_EQ(admission.burst(), 5.0);
}

TEST(AdmissionControllerTest, RetuneKeepsCountersAndDisableReenable) {
  AdmissionController admission(2.0, 2.0);
  ASSERT_TRUE(admission.try_admit(0.0));
  ASSERT_TRUE(admission.try_admit(0.0));
  ASSERT_FALSE(admission.try_admit(0.0));
  const std::uint64_t admitted_before = admission.admitted();
  const std::uint64_t shed_before = admission.shed();

  // Disable: everything passes, nothing is counted.
  admission.set_rate(10.0, 0.0);
  EXPECT_FALSE(admission.enabled());
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(admission.try_admit(10.0));
  EXPECT_EQ(admission.admitted(), admitted_before);
  EXPECT_EQ(admission.shed(), shed_before);

  // Re-enable much later: the bucket starts full at the new burst — the
  // disabled span must not have accrued tokens beyond that.
  admission.set_rate(100.0, 4.0, 4.0);
  std::uint64_t ok = 0;
  while (admission.try_admit(100.0)) ++ok;
  EXPECT_EQ(ok, 4u);
}

TEST(ZipfSamplerTest, DeterministicAndSkewed) {
  const ZipfSampler zipf(100, 1.1);
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  std::vector<std::size_t> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t a = zipf.sample(rng_a);
    ASSERT_EQ(a, zipf.sample(rng_b));  // same seed, same sequence
    ASSERT_LT(a, 100u);
    ++counts[a];
  }
  // Rank 0 dominates rank 50 heavily under s = 1.1.
  EXPECT_GT(counts[0], 10 * std::max<std::size_t>(counts[50], 1));
}

TEST(LoadGen, ChecksumIdenticalAcrossThreadCounts) {
  // The acceptance criterion: bit-identical query *results* for the same
  // seed at 1 and 8 threads (timings may differ).
  const auto entries = three_entries();
  LoadGenConfig load;
  load.queries = 5000;
  load.seed = 123;

  LoadTestReport reports[2];
  const std::size_t thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    ServeConfig config;
    config.shards = 4;
    QueryService service(config);
    service.publish(std::vector<SnapshotEntry>(entries));
    util::ThreadPool pool(thread_counts[i]);
    reports[i] = run_loadtest(service, load,
                              thread_counts[i] > 1 ? &pool : nullptr);
  }
  EXPECT_EQ(reports[0].checksum, reports[1].checksum);
  EXPECT_EQ(reports[0].ok, reports[1].ok);
  EXPECT_EQ(reports[0].not_found, reports[1].not_found);
  EXPECT_EQ(reports[0].shed, 0u);
  EXPECT_EQ(reports[1].shed, 0u);
  EXPECT_EQ(reports[0].issued, 5000u);
  EXPECT_GT(reports[0].ok, 0u);
}

TEST(LoadGen, OpenLoopShedIsDeterministicAndBoundsAdmission) {
  const auto entries = three_entries();
  LoadGenConfig load;
  load.queries = 4000;
  load.seed = 9;
  load.offered_qps = 100000.0;  // far above the admission cap

  LoadTestReport reports[2];
  const std::size_t thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    ServeConfig config;
    config.shards = 2;
    config.admission_rate_qps = 25000.0;  // a quarter of offered
    config.admission_burst = 64.0;
    QueryService service(config);
    service.publish(std::vector<SnapshotEntry>(entries));
    util::ThreadPool pool(thread_counts[i]);
    reports[i] = run_loadtest(service, load,
                              thread_counts[i] > 1 ? &pool : nullptr);
  }
  EXPECT_EQ(reports[0].checksum, reports[1].checksum);
  EXPECT_EQ(reports[0].shed, reports[1].shed);
  EXPECT_EQ(reports[0].ok, reports[1].ok);
  // Offered 4x the admitted rate: roughly three quarters shed.
  EXPECT_GT(reports[0].shed, reports[0].issued / 2);
  EXPECT_GT(reports[0].ok, 0u);
  EXPECT_EQ(reports[0].ok + reports[0].not_found + reports[0].shed,
            reports[0].issued);
}

TEST(LoadGen, QueriesDependOnlyOnSeed) {
  const Snapshot snapshot(1, three_entries());
  LoadGenConfig load;
  load.queries = 200;
  load.seed = 4;
  const auto a = generate_queries(snapshot, load);
  const auto b = generate_queries(snapshot, load);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].game, b[i].game);
    EXPECT_EQ(a[i].location, b[i].location);
    EXPECT_DOUBLE_EQ(a[i].param, b[i].param);
  }
  load.seed = 5;
  const auto c = generate_queries(snapshot, load);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != c[i].kind || a[i].location != c[i].location ||
        a[i].param != c[i].param) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(SnapshotIo, RoundTripsBitExactly) {
  auto entries = three_entries();
  entries[0].anomaly_flagged = true;
  entries[0].shared_anomalies = 2;
  entries[0].server_city = "Frankfurt am Main";
  entries[0].avg_corrected_distance_km = 123.456789012345;
  entries[1].sorted_values = {0.1, 1.0 / 3.0, 2.5000000000000004, 47.25};
  entries[1].samples = entries[1].sorted_values.size();
  const Snapshot original(7, std::move(entries));

  std::ostringstream out;
  save_snapshot(original, out);
  std::istringstream in(out.str());
  const SnapshotPtr restored = load_snapshot(in);

  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->epoch(), 7u);
  ASSERT_EQ(restored->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original.entries()[i];
    const auto& b = restored->entries()[i];
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.location, b.location);
    EXPECT_EQ(a.game, b.game);
    EXPECT_EQ(a.streamers, b.streamers);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.anomaly_flagged, b.anomaly_flagged);
    EXPECT_EQ(a.shared_anomalies, b.shared_anomalies);
    EXPECT_EQ(a.server_city, b.server_city);
    // %.17g round-trips doubles exactly — restored snapshots answer
    // queries bit-identically.
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.box.p5, b.box.p5);
    EXPECT_EQ(a.box.p95, b.box.p95);
    EXPECT_EQ(a.avg_corrected_distance_km, b.avg_corrected_distance_km);
    ASSERT_EQ(a.sorted_values.size(), b.sorted_values.size());
    for (std::size_t j = 0; j < a.sorted_values.size(); ++j) {
      EXPECT_EQ(a.sorted_values[j], b.sorted_values[j]) << i << ":" << j;
    }
  }

  // Served answers agree bit-for-bit between original and restored.
  QueryService service_a(ServeConfig{});
  QueryService service_b(ServeConfig{});
  service_a.publish(std::make_shared<const Snapshot>(original));
  service_b.publish(restored);
  LoadGenConfig load;
  load.queries = 2000;
  load.seed = 31;
  const auto report_a = run_loadtest(service_a, load, nullptr);
  const auto report_b = run_loadtest(service_b, load, nullptr);
  EXPECT_EQ(report_a.checksum, report_b.checksum);

  std::istringstream garbage("not a snapshot");
  EXPECT_THROW((void)load_snapshot(garbage), std::invalid_argument);
}

// ------------------------------------------------------------- range kinds --

TEST(QueryServiceTest, RangeKindsAnswerFromTimeSeriesStore) {
  constexpr std::int64_t kDayMs = 86'400'000;
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  geo::Location de;
  de.country = "DE";
  const std::string key = entry_key(de, "lol");
  for (int day = 0; day < 10; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      store.append(key, day * kDayMs + hour * 3'600'000,
                   40.0 + static_cast<double>(day));
    }
    store.advance_to((day + 1) * kDayMs);
  }

  ServeConfig config;
  config.tsdb = &store;
  QueryService service(config);
  service.publish(three_entries());

  Query query;
  query.kind = QueryKind::kRangeMean;
  query.location = de;
  query.game = "lol";
  query.t0_ms = 0;
  query.t1_ms = 10 * kDayMs;
  query.window_ms = kDayMs;
  QueryResponse response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  ASSERT_EQ(response.series.size(), 10u);
  EXPECT_DOUBLE_EQ(response.series.front().value, 40.0);
  EXPECT_DOUBLE_EQ(response.series.back().value, 49.0);
  EXPECT_DOUBLE_EQ(response.value, response.series.back().value);
  for (std::size_t day = 0; day < response.series.size(); ++day) {
    EXPECT_EQ(response.series[day].count, 24u) << day;
    EXPECT_EQ(response.series[day].t_ms,
              static_cast<std::int64_t>(day) * kDayMs);
  }

  // An identical repeat reads the store again and answers the same bits.
  const QueryResponse repeat = service.query(query);
  EXPECT_EQ(hash_response(7, repeat), hash_response(7, response));

  query.kind = QueryKind::kRangeCount;
  response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  EXPECT_DOUBLE_EQ(response.value, 24.0);

  query.kind = QueryKind::kRangePercentile;
  query.param = 99.0;
  response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  EXPECT_NEAR(response.series.back().value, 49.0, 0.5);

  // Week-over-week drift at day 10: [d3,d10) mean-of-days minus [d-4,d3).
  query.kind = QueryKind::kRangeDrift;
  query.t1_ms = 10 * kDayMs;
  response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  EXPECT_GT(response.value, 0.0);  // latency ramped up week over week

  // A key the store has never seen -> kNotFound, not a zero answer.
  query.kind = QueryKind::kRangeMean;
  query.game = "unknown-game";
  EXPECT_EQ(service.query(query).status, QueryStatus::kNotFound);

  // Degenerate window -> invalid_argument propagates (caller bug).
  query.game = "lol";
  query.window_ms = 0;
  EXPECT_THROW((void)service.query(query), std::invalid_argument);
}

TEST(QueryServiceTest, ThrowingRangeQueryReleasesItsShardSlot) {
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  obs::MetricsRegistry registry;
  ServeConfig config;
  config.shards = 1;
  config.metrics = &registry;
  config.tsdb = &store;
  QueryService service(config);
  service.publish(three_entries());

  Query bad;
  bad.kind = QueryKind::kRangeMean;
  bad.location.country = "DE";
  bad.game = "lol";
  bad.t1_ms = 86'400'000;
  bad.window_ms = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW((void)service.query(bad), std::invalid_argument);
  }
  Query good;
  good.kind = QueryKind::kMean;
  good.location.country = "DE";
  good.game = "lol";
  EXPECT_EQ(service.query(good).status, QueryStatus::kOk);
  // Only the good query was in flight when it entered the shard.
  EXPECT_EQ(registry.gauge("tero.serve.shard_queue_depth{shard=shard-0}")
                .value(),
            1.0);
}

TEST(QueryServiceTest, RangeKindsWithoutStoreAreUnavailable) {
  QueryService service(ServeConfig{});
  service.publish(three_entries());
  Query query;
  query.kind = QueryKind::kRangeMean;
  query.location.country = "DE";
  query.game = "lol";
  query.t1_ms = 86'400'000;
  EXPECT_EQ(service.query(query).status, QueryStatus::kUnavailable);
}

TEST(QueryServiceTest, RangeQueriesSeeNewAppends) {
  constexpr std::int64_t kDayMs = 86'400'000;
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  geo::Location de;
  de.country = "DE";
  const std::string key = entry_key(de, "lol");
  store.append(key, 1'000, 10.0);

  ServeConfig config;
  config.tsdb = &store;
  QueryService service(config);
  service.publish(three_entries());

  Query query;
  query.kind = QueryKind::kRangeCount;
  query.location = de;
  query.game = "lol";
  query.t0_ms = 0;
  query.t1_ms = kDayMs;
  query.window_ms = kDayMs;
  QueryResponse response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  EXPECT_DOUBLE_EQ(response.value, 1.0);

  // The next range query reads the store afresh and counts the new append.
  store.append(key, 2'000, 11.0);
  response = service.query(query);
  EXPECT_DOUBLE_EQ(response.value, 2.0);
}

}  // namespace
}  // namespace tero::serve
