#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "tsdb/encoding.hpp"
#include "tsdb/segment.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;

namespace tero::tsdb {
namespace {

// ===========================================================================
// Chunk codec
// ===========================================================================

std::vector<Sample> ramp(std::size_t n, std::int64_t t0, std::int64_t step,
                         double v0, double slope) {
  std::vector<Sample> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back({t0 + static_cast<std::int64_t>(i) * step,
                       v0 + slope * static_cast<double>(i)});
  }
  return samples;
}

TEST(ChunkCodec, RoundTripsEmptyAndSingle) {
  EXPECT_TRUE(decode_chunk(encode_chunk({})).empty());
  const std::vector<Sample> one = {{123456789, 42.5}};
  EXPECT_EQ(decode_chunk(encode_chunk(one)), one);
}

TEST(ChunkCodec, RoundTripsSteadyCadence) {
  const auto samples = ramp(500, 1'000'000, 250, 30.0, 0.0);
  const std::string bytes = encode_chunk(samples);
  EXPECT_EQ(decode_chunk(bytes), samples);
  // A constant-value steady cadence is the codec's best case: roughly two
  // bits per sample after the header, far below 16 raw bytes.
  EXPECT_LT(bytes.size() * 5, samples.size() * kRawSampleBytes);
}

TEST(ChunkCodec, RejectsTimestampRegression) {
  const std::vector<Sample> bad = {{100, 1.0}, {99, 2.0}};
  EXPECT_THROW((void)encode_chunk(bad), std::invalid_argument);
}

TEST(ChunkCodec, CountMatchesHeader) {
  const auto samples = ramp(37, 5, 3, 1.0, 0.5);
  EXPECT_EQ(chunk_count(encode_chunk(samples)), 37u);
}

TEST(ChunkCodec, CursorStreamsSamplesInOrder) {
  const auto samples = ramp(64, 0, 1000, 10.0, 1.0);
  const std::string bytes = encode_chunk(samples);  // must outlive the cursor
  ChunkCursor cursor(bytes);
  EXPECT_EQ(cursor.count(), samples.size());
  Sample sample;
  std::size_t i = 0;
  while (cursor.next(sample)) {
    ASSERT_LT(i, samples.size());
    EXPECT_EQ(sample, samples[i]);
    ++i;
  }
  EXPECT_EQ(i, samples.size());
  EXPECT_NO_THROW(cursor.expect_end());
}

/// The fuzz-ish satellite: 10 seeds x stream shapes round-trip bit-exact,
/// and every single-byte corruption of the encoding errors out — never
/// silently yields wrong samples.
std::vector<Sample> random_stream(util::Rng& rng, int shape,
                                  std::size_t count) {
  std::vector<Sample> samples;
  samples.reserve(count);
  std::int64_t t = rng.uniform_int(0, 1'000'000'000);
  for (std::size_t i = 0; i < count; ++i) {
    switch (shape) {
      case 0:  // constant value, steady cadence
        samples.push_back({t, 25.0});
        t += 500;
        break;
      case 1:  // monotone ramp, jittered cadence
        samples.push_back({t, 10.0 + static_cast<double>(i) * 0.25});
        t += rng.uniform_int(1, 2000);
        break;
      case 2:  // NaN-free jitter around a mean
        samples.push_back({t, 40.0 + rng.normal(0.0, 12.0)});
        t += rng.uniform_int(0, 750);
        break;
      default:  // duplicate timestamps (several thumbnails per ms)
        samples.push_back({t, std::floor(rng.uniform(10.0, 90.0))});
        if (rng.bernoulli(0.5)) t += rng.uniform_int(1, 100);
        break;
    }
  }
  return samples;
}

TEST(ChunkCodec, FuzzRoundTripAndCorruptionSweep) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (int shape = 0; shape < 4; ++shape) {
      util::Rng rng = util::Rng::indexed(seed, static_cast<unsigned>(shape));
      const auto samples =
          random_stream(rng, shape, 64 + seed * 7 + static_cast<unsigned>(shape));
      const std::string bytes = encode_chunk(samples);
      ASSERT_EQ(decode_chunk(bytes), samples)
          << "seed " << seed << " shape " << shape;

      // Corrupt every byte (all 8 bit flips would octuple the runtime for
      // no extra coverage: the checksum catches any byte change).
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string corrupt = bytes;
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0x2a);
        EXPECT_THROW((void)decode_chunk(corrupt), ChunkCorruptError)
            << "seed " << seed << " shape " << shape << " byte " << i;
      }
      // Truncations at every length must also fail loudly.
      for (std::size_t len = 0; len < bytes.size(); len += 7) {
        EXPECT_THROW((void)decode_chunk(bytes.substr(0, len)),
                     ChunkCorruptError);
      }
    }
  }
}

// ===========================================================================
// Segments
// ===========================================================================

TEST(SegmentTest, BuildFindAndPersistRoundTrip) {
  std::map<std::string, std::vector<Sample>> series;
  series["alpha"] = ramp(100, 0, 1000, 20.0, 0.1);
  series["beta"] = ramp(50, 500, 2000, 60.0, -0.2);
  const Segment segment = build_segment(7, 0, series);
  EXPECT_EQ(segment.id, 7u);
  EXPECT_EQ(segment.sample_count, 150u);
  EXPECT_EQ(segment.raw_bytes, 150u * kRawSampleBytes);
  ASSERT_NE(segment.find("alpha"), nullptr);
  EXPECT_EQ(segment.find("alpha")->count, 100u);
  EXPECT_EQ(segment.find("gamma"), nullptr);

  const fs::path dir = fs::temp_directory_path() / "tero_tsdb_segment_test";
  fs::create_directories(dir);
  const std::string path = (dir / "seg.tkv").string();
  save_segment(segment, path);
  const Segment loaded = load_segment(path);
  EXPECT_EQ(loaded.id, segment.id);
  EXPECT_EQ(loaded.sample_count, segment.sample_count);
  EXPECT_EQ(loaded.compressed_bytes, segment.compressed_bytes);
  ASSERT_NE(loaded.find("beta"), nullptr);
  EXPECT_EQ(decode_chunk(loaded.find("beta")->bytes), series["beta"]);
  fs::remove_all(dir);
}

TEST(SegmentTest, MergePreservesEverySampleInTimeOrder) {
  std::map<std::string, std::vector<Sample>> first, second;
  first["k"] = ramp(40, 0, 100, 1.0, 1.0);
  second["k"] = ramp(40, 4000, 100, 41.0, 1.0);
  second["only-late"] = ramp(5, 4500, 10, 9.0, 0.0);
  const auto a = std::make_shared<const Segment>(build_segment(1, 0, first));
  const auto b = std::make_shared<const Segment>(build_segment(2, 0, second));
  const std::vector<std::shared_ptr<const Segment>> inputs = {a, b};
  const Segment merged = merge_segments(inputs, 3, 1);
  EXPECT_EQ(merged.level, 1u);
  EXPECT_EQ(merged.sample_count, 85u);
  const auto all = decode_chunk(merged.find("k")->bytes);
  ASSERT_EQ(all.size(), 80u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const Sample& x, const Sample& y) {
                               return x.t_ms < y.t_ms;
                             }));
  EXPECT_EQ(all.front().t_ms, 0);
  EXPECT_EQ(all.back().t_ms, 4000 + 39 * 100);
}

// ===========================================================================
// TimeSeriesStore
// ===========================================================================

constexpr std::int64_t kDayMs = 86'400'000;

/// Deterministic workload: `keys` series, `days` virtual days of samples,
/// advancing the store one day at a time (exactly the stream-sink cadence).
void load_store(TimeSeriesStore& store, std::uint64_t seed, int keys,
                int days, int per_day = 24) {
  for (int day = 0; day < days; ++day) {
    for (int k = 0; k < keys; ++k) {
      util::Rng rng = util::Rng::indexed(
          seed, static_cast<std::uint64_t>(day) * 1000 +
                    static_cast<std::uint64_t>(k));
      const std::string key = "game" + std::to_string(k % 3) + "|US|key" +
                              std::to_string(k);
      for (int i = 0; i < per_day; ++i) {
        const std::int64_t t = static_cast<std::int64_t>(day) * kDayMs +
                               static_cast<std::int64_t>(i) * (kDayMs / per_day);
        store.append(key, t, std::floor(rng.uniform(20.0, 80.0)));
      }
    }
    store.advance_to((static_cast<std::int64_t>(day) + 1) * kDayMs);
  }
}

TEST(StoreTest, SealsCompactsAndAnswersRangeQueries) {
  TsdbConfig config;
  config.compact_fanin = 4;
  TimeSeriesStore store(config);
  load_store(store, 42, 6, 10);

  const auto stats = store.stats();
  EXPECT_EQ(stats.sealed_until_ms, 10 * kDayMs);
  EXPECT_EQ(stats.head_samples, 0u);
  EXPECT_EQ(stats.segment_samples, 6u * 10u * 24u);
  // 10 daily seals with fanin 4 compact twice: 10 -> 2x level1 + 2x level0.
  EXPECT_EQ(stats.segments, 4u);
  EXPECT_GT(stats.raw_bytes, stats.compressed_bytes * 4);

  RangeQuery query;
  query.key = "game0|US|key0";
  query.t0_ms = 0;
  query.t1_ms = 10 * kDayMs;
  query.window_ms = kDayMs;
  query.agg = RangeAgg::kCount;
  const auto counts = store.range(query);
  ASSERT_EQ(counts.size(), 10u);
  for (const RangePoint& point : counts) {
    EXPECT_EQ(point.count, 24u);
    EXPECT_DOUBLE_EQ(point.value, 24.0);
  }

  query.agg = RangeAgg::kPercentile;
  query.pct = 99.0;
  const auto p99 = store.range(query);
  ASSERT_EQ(p99.size(), 10u);
  for (const RangePoint& point : p99) {
    EXPECT_GE(point.value, 20.0);
    EXPECT_LE(point.value, 81.0);
  }

  // Mean over a window must match the materialized series exactly.
  query.agg = RangeAgg::kMean;
  const auto means = store.range(query);
  const auto all = store.series(query.key);
  double expect = 0.0;
  for (const Sample& sample : all) {
    if (sample.t_ms < kDayMs) expect += sample.value;
  }
  expect /= 24.0;
  EXPECT_DOUBLE_EQ(means.front().value, expect);
}

TEST(StoreTest, RangeCoversHeadAndRejectsBadQueries) {
  TimeSeriesStore store(TsdbConfig{});
  store.append("k", 10, 5.0);
  store.append("k", 20, 7.0);  // still in the head: never advanced
  RangeQuery query;
  query.key = "k";
  query.t0_ms = 0;
  query.t1_ms = 100;
  query.window_ms = 100;
  query.agg = RangeAgg::kMean;
  const auto points = store.range(query);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points.front().count, 2u);
  EXPECT_DOUBLE_EQ(points.front().value, 6.0);

  query.t1_ms = query.t0_ms;
  EXPECT_THROW((void)store.range(query), std::invalid_argument);
  query.t1_ms = 100;
  query.window_ms = 0;
  EXPECT_THROW((void)store.range(query), std::invalid_argument);
  query.window_ms = 1;
  query.t1_ms = query.t0_ms + (TimeSeriesStore::kMaxWindows + 1);
  EXPECT_THROW((void)store.range(query), std::invalid_argument);
}

TEST(StoreTest, RejectsAppendsBehindSealedFrontier) {
  TimeSeriesStore store(TsdbConfig{});
  store.append("k", kDayMs + 5, 1.0);
  store.advance_to(2 * kDayMs);
  EXPECT_THROW(store.append("k", kDayMs - 1, 2.0), std::invalid_argument);
  EXPECT_NO_THROW(store.append("k", 2 * kDayMs, 3.0));
}

TEST(StoreTest, RetentionDropsExpiredSegments) {
  TsdbConfig config;
  config.retention_ms = 3 * kDayMs;
  config.compact_fanin = 100;  // keep daily segments distinct
  TimeSeriesStore store(config);
  load_store(store, 7, 2, 8);
  const auto stats = store.stats();
  // Only segments whose max_t is within the trailing 3 days survive.
  EXPECT_LE(stats.segments, 4u);
  RangeQuery query;
  query.key = "game0|US|key0";
  query.t0_ms = 0;
  query.t1_ms = kDayMs;
  query.window_ms = kDayMs;
  query.agg = RangeAgg::kCount;
  EXPECT_EQ(store.range(query).front().count, 0u);
}

TEST(StoreTest, DriftComparesAdjacentWeeks) {
  TimeSeriesStore store(TsdbConfig{});
  const std::string key = "g|US";
  for (int day = 0; day < 14; ++day) {
    const double value = day < 7 ? 30.0 : 50.0;  // step change last week
    for (int i = 0; i < 24; ++i) {
      store.append(key, day * kDayMs + i * 3'600'000, value);
    }
    store.advance_to((day + 1) * kDayMs);
  }
  const double drift = store.drift(key, 14 * kDayMs, 99.0);
  EXPECT_NEAR(drift, 20.0, 2.0);  // sketch alpha is 1%
}

TEST(StoreTest, BitIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TimeSeriesStore serial(TsdbConfig{});
    load_store(serial, seed, 5, 9);

    util::ThreadPool pool(8);
    TsdbConfig parallel_config;
    parallel_config.pool = &pool;
    TimeSeriesStore parallel(parallel_config);
    load_store(parallel, seed, 5, 9);

    EXPECT_EQ(serial.segment_layout(), parallel.segment_layout())
        << "seed " << seed;
    EXPECT_EQ(serial.dataset_digest(), parallel.dataset_digest())
        << "seed " << seed;
  }
}

// ===========================================================================
// Durability and crash recovery
// ===========================================================================

class StoreDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The test name keeps each test's directory apart: ctest runs every
    // test in its own process, all with the same random_seed.
    dir_ = (fs::temp_directory_path() /
            ("tero_tsdb_store_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(StoreDiskTest, ReopensWithSegmentsAndHead) {
  std::uint64_t digest = 0;
  {
    TsdbConfig config;
    config.dir = dir_;
    TimeSeriesStore store(config);
    load_store(store, 3, 4, 5);
    store.append("late|key", 5 * kDayMs + 17, 33.0);  // stays in the head
    digest = store.dataset_digest();
  }
  TsdbConfig config;
  config.dir = dir_;
  TimeSeriesStore reopened(config);
  EXPECT_EQ(reopened.sealed_until(), 5 * kDayMs);
  EXPECT_EQ(reopened.dataset_digest(), digest);
  const auto late = reopened.series("late|key");
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late.front().t_ms, 5 * kDayMs + 17);
}

TEST_F(StoreDiskTest, TornWalTailIsDiscardedAcknowledgedSamplesSurvive) {
  {
    TsdbConfig config;
    config.dir = dir_;
    TimeSeriesStore store(config);
    store.append("k", 100, 1.0);
    store.append("k", 200, 2.0);
  }
  // Simulate a torn tail: append garbage that looks like a partial record.
  {
    std::ofstream wal(dir_ + "/wal.log",
                      std::ios::binary | std::ios::app);
    wal << "R 1 k 300 461";  // truncated mid-record
  }
  TsdbConfig config;
  config.dir = dir_;
  TimeSeriesStore reopened(config);
  const auto samples = reopened.series("k");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].t_ms, 100);
  EXPECT_EQ(samples[1].t_ms, 200);
}

TEST_F(StoreDiskTest, CrashDuringSealNeverLosesAcknowledgedSamples) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("tsdb.seal=crash@1:max=1", 5));
  {
    TsdbConfig config;
    config.dir = dir_;
    config.injector = &injector;
    TimeSeriesStore store(config);
    EXPECT_THROW(load_store(store, 11, 3, 4), std::runtime_error);
  }
  // Recovery: every acknowledged append is still there, in the WAL-backed
  // head — the seal never completed, so nothing was ever allowed to leave
  // the WAL's protection.
  TsdbConfig config;
  config.dir = dir_;
  TimeSeriesStore recovered(config);
  EXPECT_EQ(recovered.sealed_until(), 0);
  std::uint64_t recovered_count = 0;
  for (const auto& key : recovered.keys()) {
    recovered_count += recovered.series(key).size();
  }
  EXPECT_EQ(recovered_count, 3u * 1u * 24u);  // day 0 was fully appended
}

TEST_F(StoreDiskTest, CrashDuringCompactionRecoversLossless) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("tsdb.compact=crash@1:max=1", 9));
  std::uint64_t pre_crash_digest = 0;
  bool crashed = false;
  {
    TsdbConfig config;
    config.dir = dir_;
    config.injector = &injector;
    TimeSeriesStore store(config);
    try {
      load_store(store, 9, 3, 8);
    } catch (const std::runtime_error&) {
      crashed = true;
    }
    // In-memory object stays consistent even after the injected crash.
    pre_crash_digest = store.dataset_digest();
  }
  ASSERT_TRUE(crashed);
  TsdbConfig config;
  config.dir = dir_;
  TimeSeriesStore recovered(config);
  EXPECT_EQ(recovered.dataset_digest(), pre_crash_digest);
}

TEST_F(StoreDiskTest, ReadFaultSurfacesAsRuntimeError) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("tsdb.read=error@1", 1));
  TsdbConfig config;
  config.injector = &injector;
  TimeSeriesStore store(config);
  store.append("k", 10, 1.0);
  RangeQuery query;
  query.key = "k";
  query.t0_ms = 0;
  query.t1_ms = 100;
  query.window_ms = 100;
  EXPECT_THROW((void)store.range(query), std::runtime_error);
}

TEST_F(StoreDiskTest, MetricsTrackSegmentsAndBytes) {
  obs::MetricsRegistry metrics;
  TsdbConfig config;
  config.metrics = &metrics;
  TimeSeriesStore store(config);
  load_store(store, 2, 3, 5);
  EXPECT_EQ(metrics.counter("tero.tsdb.seals").value(), 5u);
  EXPECT_GT(metrics.counter("tero.tsdb.compactions").value(), 0u);
  EXPECT_GT(metrics.gauge("tero.tsdb.bytes_raw").value(),
            metrics.gauge("tero.tsdb.bytes_compressed").value());
  RangeQuery query;
  query.key = "game0|US|key0";
  query.t0_ms = 0;
  query.t1_ms = 5 * kDayMs;
  query.window_ms = kDayMs;
  (void)store.range(query);
  EXPECT_EQ(metrics.counter("tero.tsdb.range_queries").value(), 1u);
  EXPECT_GT(metrics.histogram("tero.tsdb.read_segments").count(), 0u);
}

}  // namespace
}  // namespace tero::tsdb
