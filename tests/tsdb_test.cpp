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
  EXPECT_EQ(ChunkCursor(encode_chunk(samples)).count(), 37u);
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

/// One chunk that reaches every codec branch: each delta-of-delta bucket at
/// both of its edges, the 64-bit escape (including zigzag values with the
/// top bit set), and every XOR window length 1..64, each written once as a
/// new window and once reused by a single bit inside it.
std::vector<Sample> every_bucket_stream() {
  std::vector<std::int64_t> deltas = {0, 1ll << 62, 0};
  constexpr std::int64_t kBase = 1ll << 41;  // keeps every delta >= 0
  deltas.push_back(kBase);
  for (const std::int64_t dod :
       {1ll, -1ll, 63ll, -64ll, 64ll, -65ll, 255ll, -256ll, 256ll, -257ll,
        2047ll, -2048ll, 2048ll, -2049ll, 1ll << 40, -(1ll << 40)}) {
    deltas.push_back(deltas.back() + dod);
    deltas.push_back(kBase);
  }
  std::vector<std::uint64_t> xors = {0};
  for (unsigned length = 1; length <= 64; ++length) {
    // Odd lengths sit at the top, even ones at the bottom, so no window
    // fits inside its predecessor and each one is written fresh.
    const unsigned leading = length % 2 == 1 ? 0 : 64 - length;
    const unsigned trailing = 64 - leading - length;
    std::uint64_t window = 1ull << (63 - leading);
    window |= 1ull << trailing;
    xors.push_back(window);
    xors.push_back(1ull << (trailing + length / 2));  // reuses that window
    xors.push_back(0);
  }
  std::vector<Sample> samples;
  std::int64_t t = -5;
  std::uint64_t bits = std::bit_cast<std::uint64_t>(42.0);
  for (std::size_t i = 0; i < std::max(deltas.size(), xors.size()); ++i) {
    t += i < deltas.size() ? deltas[i] : kBase;
    bits ^= i < xors.size() ? xors[i] : 0;
    samples.push_back({t, std::bit_cast<double>(bits)});
  }
  return samples;
}

/// Bitwise sample equality: the every-bucket stream holds NaN bit patterns.
bool same_bits(const std::vector<Sample>& a, const std::vector<Sample>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const Sample& x, const Sample& y) {
                      return x.t_ms == y.t_ms &&
                             std::bit_cast<std::uint64_t>(x.value) ==
                                 std::bit_cast<std::uint64_t>(y.value);
                    });
}

std::uint64_t hash_bytes(const std::string& bytes) {
  return util::fnv1a64({bytes.data(), bytes.size()});
}

/// The codec's format is frozen: these digests pin the exact bytes
/// encode_chunk produced before the word-at-a-time writer replaced the
/// bit-at-a-time one.
TEST(ChunkCodec, GoldenBytesArePinned) {
  std::uint64_t fuzz_digest = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (int shape = 0; shape < 4; ++shape) {
      util::Rng rng = util::Rng::indexed(seed, static_cast<unsigned>(shape));
      const auto samples = random_stream(
          rng, shape, 64 + seed * 7 + static_cast<unsigned>(shape));
      fuzz_digest =
          util::mix_seed(fuzz_digest, hash_bytes(encode_chunk(samples)));
    }
  }
  EXPECT_EQ(fuzz_digest, 0xbf1569a87be3077eULL);

  const auto samples = every_bucket_stream();
  const std::string bytes = encode_chunk(samples);
  EXPECT_TRUE(same_bits(decode_chunk(bytes), samples));
  EXPECT_EQ(bytes.size(), 826u);
  EXPECT_EQ(hash_bytes(bytes), 0xbaf5da45a630be3cULL);
  EXPECT_EQ(hash_bytes(encode_chunk({})), 0x9efbe3239edd166bULL);
  EXPECT_EQ(hash_bytes(encode_chunk(std::vector<Sample>{{-7, 1.5}})),
            0xb8b1a5493a8aa3daULL);
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

/// Re-append a valid checksum, so a mutated payload reaches the parser
/// proper instead of stopping at the checksum check.
std::string reseal(std::string payload) {
  const std::uint64_t sum = util::fnv1a64({payload.data(), payload.size()});
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
  }
  return payload;
}

std::string varint(std::uint64_t value) {
  std::string out;
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
  return out;
}

/// The codec corpus: the fuzz shapes, the every-bucket stream, and an
/// hourly 16-day run shaped like the serving history.
std::vector<std::string> codec_corpus() {
  std::vector<std::string> corpus;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (int shape = 0; shape < 4; ++shape) {
      util::Rng rng = util::Rng::indexed(seed, static_cast<unsigned>(shape));
      corpus.push_back(encode_chunk(random_stream(
          rng, shape, 64 + seed * 7 + static_cast<unsigned>(shape))));
    }
  }
  corpus.push_back(encode_chunk(every_bucket_stream()));
  util::Rng rng(99);
  std::vector<Sample> hourly;
  for (int h = 0; h < 16 * 24; ++h) {
    hourly.push_back({h * 3'600'000ll + 1'800'000,
                      std::floor(rng.uniform(20.0, 120.0))});
  }
  corpus.push_back(encode_chunk(hourly));
  return corpus;
}

/// Seeded hostile inputs with a valid checksum: bit flips, truncations and
/// lies in the count varint. Each must either raise ChunkCorruptError or
/// decode to exactly the declared count, in non-decreasing time order.
TEST(ChunkCodec, MutatedChunksAreRejectedOrConsistent) {
  std::size_t rejected = 0;
  std::size_t decoded = 0;
  const auto corpus = codec_corpus();
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    const std::string payload = corpus[c].substr(0, corpus[c].size() - 8);
    std::size_t header = 0;
    while (static_cast<unsigned char>(payload[header]) & 0x80) ++header;
    ++header;  // bytes of the count varint
    for (std::uint64_t trial = 0; trial < 300; ++trial) {
      util::Rng rng = util::Rng::indexed(0x6d757461 + c, trial);
      std::string mutated = payload;
      switch (trial % 3) {
        case 0: {  // flip 1-3 bits anywhere in the payload
          const auto flips = rng.uniform_int(1, 3);
          for (std::int64_t f = 0; f < flips; ++f) {
            const auto bit = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(mutated.size()) * 8 - 1));
            mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^
                                                 (0x80 >> (bit % 8)));
          }
          break;
        }
        case 1:  // truncate
          mutated.resize(static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(mutated.size()) - 1)));
          break;
        default: {  // the count varint lies
          const std::uint64_t count = ChunkCursor(corpus[c]).count();
          const std::uint64_t lies[] = {
              count + 1, count - 1, count + 2, 0, count * 2,
              static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
              ~std::uint64_t{0}};
          mutated = varint(lies[rng.uniform_int(0, 6)]) +
                    payload.substr(header);
          break;
        }
      }
      const std::string bytes = reseal(mutated);
      try {
        ChunkCursor cursor(bytes);
        std::vector<Sample> samples;
        Sample sample;
        while (cursor.next(sample)) samples.push_back(sample);
        cursor.expect_end();
        EXPECT_EQ(samples.size(), cursor.count());
        EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end(),
                                   [](const Sample& a, const Sample& b) {
                                     return a.t_ms < b.t_ms;
                                   }))
            << "corpus " << c << " trial " << trial;
        ++decoded;
      } catch (const ChunkCorruptError&) {
        ++rejected;
      }
    }
  }
  // Both outcomes occur, so neither half of the contract is vacuous.
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 100u);
}

/// Chunks in memory are read without the checksum pass: on every corpus
/// chunk the verified cursor yields the checked cursor's samples, and both
/// keep the header bounds.
TEST(ChunkCodec, VerifiedCursorMatchesCheckedCursor) {
  const auto corpus = codec_corpus();
  ASSERT_EQ(corpus.size(), 42u);
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    ChunkCursor checked(corpus[c]);
    ChunkCursor verified(corpus[c], ChunkCursor::kVerified);
    ASSERT_EQ(verified.count(), checked.count());
    Sample a;
    Sample b;
    for (bool more = true; more;) {
      more = checked.next(a);
      ASSERT_EQ(verified.next(b), more) << "corpus " << c;
      if (!more) break;
      ASSERT_EQ(b.t_ms, a.t_ms) << "corpus " << c;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(b.value),
                std::bit_cast<std::uint64_t>(a.value))
          << "corpus " << c;
    }
    EXPECT_NO_THROW(checked.expect_end());
    EXPECT_NO_THROW(verified.expect_end());
  }
  // A count larger than the bits could hold, a first value cut short, and
  // bytes shorter than a checksum.
  const std::string payload = corpus.back().substr(0, corpus.back().size() - 8);
  std::size_t header = 0;
  while (static_cast<unsigned char>(payload[header]) & 0x80) ++header;
  const std::string bad[] = {
      reseal(varint(std::uint64_t{1} << 40) + payload.substr(header + 1)),
      reseal(varint(5) + varint(0) + "abc"),
      "short",
  };
  for (const std::string& bytes : bad) {
    EXPECT_THROW(ChunkCursor{bytes}, ChunkCorruptError);
    EXPECT_THROW((ChunkCursor{bytes, ChunkCursor::kVerified}),
                 ChunkCorruptError);
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

/// A chunk whose checksum holds but whose bits do not decode to their end
/// is rejected when the segment loads, not when a query first reaches the
/// bad bits.
TEST(SegmentTest, LoadRejectsChunkWithValidChecksumButMalformedBits) {
  std::map<std::string, std::vector<Sample>> series;
  series["alpha"] = ramp(100, 0, 1000, 20.0, 0.1);
  series["beta"] = ramp(50, 500, 2000, 60.0, -0.2);
  const fs::path dir = fs::temp_directory_path() / "tero_tsdb_malformed_test";
  fs::create_directories(dir);
  const std::string path = (dir / "seg.tkv").string();
  const std::string good = build_segment(1, 0, series).find("beta")->bytes;
  const std::string payload = good.substr(0, good.size() - 8);
  // A stray byte after the last sample, and a stream cut one byte short:
  // the header (and so the sample count) is intact in both.
  const std::string stray_byte = reseal(payload + '\0');
  const std::string cut_short = reseal(payload.substr(0, payload.size() - 1));
  for (const std::string& bad : {stray_byte, cut_short}) {
    ASSERT_EQ(ChunkCursor(bad).count(), 50u);
    Segment segment = build_segment(1, 0, series);
    segment.chunks[1].bytes = bad;
    save_segment(segment, path);
    EXPECT_THROW((void)load_segment(path), std::runtime_error);
  }
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

/// Reference answer for range(): every sample of series(), which visits
/// segments then the head in the same order range() folds them, counted,
/// summed and fed to one fresh QuantileSketch per window.
std::vector<RangePoint> brute_range(const TimeSeriesStore& store,
                                    const RangeQuery& query) {
  const auto windows = static_cast<std::size_t>(
      (query.t1_ms - query.t0_ms + query.window_ms - 1) / query.window_ms);
  std::vector<RangePoint> points(windows);
  std::vector<double> sums(windows, 0.0);
  std::vector<obs::QuantileSketch> sketches(windows);
  for (const Sample& sample : store.series(query.key)) {
    if (sample.t_ms < query.t0_ms || sample.t_ms >= query.t1_ms) continue;
    const auto w = static_cast<std::size_t>((sample.t_ms - query.t0_ms) /
                                            query.window_ms);
    ++points[w].count;
    sums[w] += sample.value;
    sketches[w].add(sample.value);
  }
  for (std::size_t w = 0; w < windows; ++w) {
    points[w].t_ms =
        query.t0_ms + static_cast<std::int64_t>(w) * query.window_ms;
    if (points[w].count == 0) continue;
    switch (query.agg) {
      case RangeAgg::kCount:
        points[w].value = static_cast<double>(points[w].count);
        break;
      case RangeAgg::kMean:
        points[w].value = sums[w] / static_cast<double>(points[w].count);
        break;
      case RangeAgg::kPercentile:
        points[w].value = sketches[w].quantile(query.pct / 100.0);
        break;
    }
  }
  return points;
}

TEST(StoreTest, RangeMatchesBruteForceBitForBit) {
  constexpr std::int64_t kHourMs = 3'600'000;
  TimeSeriesStore store(TsdbConfig{});
  const std::vector<std::string> keys = {"g|a", "g|b", "g|c"};
  // 21 sealed days at fanin 4 leave a level-2, a level-1 and a level-0
  // segment; day 21 stays in the head. Timestamps jitter and repeat, and
  // values include zeros, negatives and (for one key) NaN.
  for (int day = 0; day < 22; ++day) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      util::Rng rng = util::Rng::indexed(77, static_cast<std::uint64_t>(day) *
                                                 10 + k);
      std::int64_t t = day * kDayMs;
      while (t < (day + 1) * kDayMs) {
        double value = std::floor(rng.uniform(-5.0, 90.0));
        if (k == 2 && rng.bernoulli(0.02)) value = std::nan("");
        store.append(keys[k], t, value);
        if (rng.bernoulli(0.8)) t += rng.uniform_int(1, 2 * kHourMs);
      }
    }
    if (day < 21) store.advance_to((day + 1) * kDayMs);
  }
  ASSERT_EQ(store.stats().segments, 3u);
  ASSERT_GT(store.stats().head_samples, 0u);

  const auto same = [](const std::vector<RangePoint>& a,
                       const std::vector<RangePoint>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const RangePoint& x, const RangePoint& y) {
                        return x.t_ms == y.t_ms && x.count == y.count &&
                               std::bit_cast<std::uint64_t>(x.value) ==
                                   std::bit_cast<std::uint64_t>(y.value);
                      });
  };
  util::Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    RangeQuery query;
    query.key = keys[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const std::int64_t windows[] = {kHourMs, 5 * kHourMs, kDayMs,
                                    3 * kDayMs, 7 * kDayMs};
    query.window_ms = windows[rng.uniform_int(0, 4)];
    query.t0_ms = rng.uniform_int(-kDayMs, 22 * kDayMs);
    query.t1_ms = query.t0_ms + rng.uniform_int(1, 10 * kDayMs);
    query.agg = RangeAgg::kCount;
    EXPECT_TRUE(same(store.range(query), brute_range(store, query)))
        << "count trial " << trial;
    query.agg = RangeAgg::kMean;
    EXPECT_TRUE(same(store.range(query), brute_range(store, query)))
        << "mean trial " << trial;
    query.agg = RangeAgg::kPercentile;
    for (const double pct : {0.0, 50.0, 90.0, 99.0, 100.0}) {
      query.pct = pct;
      EXPECT_TRUE(same(store.range(query), brute_range(store, query)))
          << "p" << pct << " trial " << trial;
    }
  }
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
