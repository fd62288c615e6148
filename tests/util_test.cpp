#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/event_loop.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace tero::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(Rng, SkipNormalsMatchesRepeatedNormal) {
  for (const std::uint64_t n : {0u, 1u, 2u, 3u, 57600u}) {
    for (const bool spare : {false, true}) {
      Rng reference(1000 + n);
      // An odd number of normal() calls leaves the pair's sine half cached.
      if (spare) (void)reference.normal();
      Rng skipped = reference;
      for (std::uint64_t i = 0; i < n; ++i) (void)reference.normal();
      skipped.skip_normals(n);
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(skipped.next_u64(), reference.next_u64())
            << "n=" << n << " spare=" << spare << " draw " << i;
      }
      EXPECT_EQ(skipped.normal(), reference.normal())
          << "n=" << n << " spare=" << spare;
    }
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, PoissonMean) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) sum += static_cast<double>(rng.poisson(4.0));
  EXPECT_NEAR(sum / 5000.0, 4.0, 0.15);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, PickWeightedRespectsWeights) {
  Rng rng(23);
  const std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.pick_weighted(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(29);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesThrowsWhenKTooLarge) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Fnv1a, StableKnownValue) {
  const std::string empty;
  EXPECT_EQ(fnv1a64(std::span<const char>{empty.data(), 0}),
            0xcbf29ce484222325ULL);
}

TEST(Strings, ToLowerTrim) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(Strings, Split) {
  const auto pieces = split("a, b,,c", ", ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(Strings, IcontainsAndIequals) {
  EXPECT_TRUE(iequals("HeLLo", "hello"));
  EXPECT_FALSE(iequals("hello", "hell"));
  EXPECT_TRUE(icontains("Greetings from Detroit!", "detroit"));
  EXPECT_FALSE(icontains("abc", "abcd"));
}

TEST(Strings, ContainsWordRespectsBoundaries) {
  EXPECT_TRUE(contains_word("I live in Denmark now", "denmark"));
  EXPECT_FALSE(contains_word("I live in Denmarkian", "denmark"));
  EXPECT_TRUE(contains_word("Denmark", "denmark"));
  EXPECT_FALSE(contains_word("", "x"));
}

TEST(Strings, ParseUintOr) {
  EXPECT_EQ(parse_uint_or("123", -1), 123);
  EXPECT_EQ(parse_uint_or("12a", -1), -1);
  EXPECT_EQ(parse_uint_or("", -1), -1);
  EXPECT_EQ(parse_uint_or("1234567890", -1), -1);  // too long
}

TEST(Strings, DigitsOnly) {
  EXPECT_EQ(digits_only("ping 45ms"), "45");
  EXPECT_EQ(digits_only("abc"), "");
}

TEST(Table, PrintsHeaderAndRows) {
  Table table({"a", "bb"});
  table.add_row({"1", "2"}).add_row({"333"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_double(1.234, 2), "1.23");
  EXPECT_EQ(fmt_percent(0.5, 1), "50.0%");
  EXPECT_EQ(fmt_pm(1.0, 0.5, 1), "1.0 +/- 0.5");
}

TEST(EventLoop, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(2.0, [&] { order.push_back(2); });
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  loop.schedule_at(3.0, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoop, TiesBreakInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  loop.schedule_at(1.0, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, HandlersMaySchedule) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1.0, [&] {
    ++fired;
    loop.schedule_after(1.0, [&] { ++fired; });
  });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(loop.now(), 2.0);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1.0, [&] { ++fired; });
  loop.schedule_at(5.0, [&] { ++fired; });
  loop.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 2.0);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, RejectsPastScheduling) {
  EventLoop loop;
  loop.schedule_at(5.0, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(1.0, [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace tero::util
