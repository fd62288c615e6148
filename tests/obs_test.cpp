#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"

namespace tero::obs {
namespace {

TEST(Json, ParsesScalarsAndNesting) {
  const auto value = parse_json(
      R"({"a": 1.5, "b": "x\ny", "c": [true, false, null], "d": {"e": -2e3}})");
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.at("a").number, 1.5);
  EXPECT_EQ(value.at("b").string, "x\ny");
  ASSERT_TRUE(value.at("c").is_array());
  ASSERT_EQ(value.at("c").array.size(), 3u);
  EXPECT_TRUE(value.at("c").array[0].boolean);
  EXPECT_EQ(value.at("c").array[2].type, JsonValue::Type::kNull);
  EXPECT_EQ(value.at("d").at("e").number, -2000.0);
  EXPECT_FALSE(value.contains("missing"));
  EXPECT_THROW((void)value.at("missing"), std::out_of_range);
}

TEST(Json, RejectsGarbage) {
  EXPECT_THROW(parse_json(""), std::invalid_argument);
  EXPECT_THROW(parse_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_json("{}trailing"), std::invalid_argument);
  EXPECT_THROW(parse_json("[1,]"), std::invalid_argument);
  EXPECT_THROW(parse_json("'single'"), std::invalid_argument);
}

TEST(Json, EscapeRoundTrips) {
  const std::string nasty = "a\"b\\c\n\t\x01";
  const auto parsed = parse_json("\"" + json_escape(nasty) + "\"");
  EXPECT_EQ(parsed.string, nasty);
}

TEST(Counter, AddsAcrossThreads) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10'000; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 40'000u);
}

TEST(Histogram, BucketsAreCumulativeLeStyle) {
  Histogram histogram({1.0, 10.0, 100.0});
  for (const double v : {0.5, 1.0, 5.0, 50.0, 500.0, 5000.0}) {
    histogram.observe(v);
  }
  EXPECT_EQ(histogram.count(), 6u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 5556.5);
  // Per-bucket (non-cumulative); the last entry is the +Inf overflow bucket.
  const auto counts = histogram.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);      // 0.5, 1.0 (le is inclusive)
  EXPECT_EQ(counts[1], 1u);      // 5.0
  EXPECT_EQ(counts[2], 1u);      // 50.0
  EXPECT_EQ(counts[3], 2u);      // 500.0, 5000.0
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(QuantileSketch, QuantilesWithinRelativeError) {
  QuantileSketch sketch(0.01);
  for (int i = 1; i <= 10'000; ++i) sketch.add(static_cast<double>(i));
  EXPECT_EQ(sketch.count(), 10'000u);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = q * 10'000.0;
    EXPECT_NEAR(sketch.quantile(q), exact, exact * 0.03) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeMatchesCombinedStream) {
  QuantileSketch a(0.01);
  QuantileSketch b(0.01);
  QuantileSketch combined(0.01);
  for (int i = 1; i <= 1000; ++i) {
    const double low = i * 0.5;
    const double high = 1000.0 + i;
    a.add(low);
    b.add(high);
    combined.add(low);
    combined.add(high);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  for (const double q : {0.25, 0.5, 0.75, 0.95}) {
    // Same-alpha merge is exact: bucket counts add.
    EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q)) << "q=" << q;
  }
}

/// quantile_of_values must answer exactly what add() + quantile() would.
TEST(QuantileSketch, QuantileOfValuesMatchesAddThenQuantile) {
  const auto bits = [](double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
  };
  const double gamma = (1.0 + QuantileSketch::kDefaultAlpha) /
                       (1.0 - QuantileSketch::kDefaultAlpha);
  // Zeros, negatives, NaN, values around the 1e-9 underflow cut and around
  // bucket boundaries, and heavy duplication.
  const std::vector<double> pool = {
      0.0, -0.0, -3.5, -1e300, std::nan(""), 1e-9,
      std::nextafter(1e-9, 1.0), 1e-12, 1.0, std::pow(gamma, 17),
      std::nextafter(std::pow(gamma, 17), 0.0),
      std::nextafter(std::pow(gamma, 17), 1e9), 24.0, 25.0, 87.5, 1e6};
  std::mt19937_64 gen(11);
  for (int round = 0; round < 400; ++round) {
    std::vector<double> values(gen() % 40);
    for (double& value : values) {
      value = gen() % 3 == 0
                  ? std::ldexp(static_cast<double>(gen() % 100000), -7)
                  : pool[gen() % pool.size()];
    }
    for (const double q :
         {0.0, 1e-9, 0.01, 0.5, 0.9, 0.99, 1.0,
          static_cast<double>(gen() % 1001) / 1000.0}) {
      QuantileSketch sketch;
      for (const double value : values) sketch.add(value);
      std::vector<double> scratch = values;
      EXPECT_EQ(bits(QuantileSketch::quantile_of_values(
                    QuantileSketch::kDefaultAlpha, scratch, q)),
                bits(sketch.quantile(q)))
          << "round " << round << " q " << q << " n " << values.size();
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(QuantileSketch::quantile_of_values(0.01, empty, 0.5), 0.0);
}

TEST(Registry, LabeledNamesAreStable) {
  EXPECT_EQ(MetricsRegistry::labeled("tero.x", {{"a", "1"}, {"b", "two"}}),
            "tero.x{a=1,b=two}");
  EXPECT_EQ(MetricsRegistry::labeled("tero.y", {}), "tero.y");
}

TEST(Registry, LabeledConveniencesUpdateNamedSeries) {
  MetricsRegistry registry;
  registry.add_counter("tero.serve.requests", {{"shard", "shard-0"}});
  registry.add_counter("tero.serve.requests", {{"shard", "shard-0"}}, 4);
  registry.add_counter("tero.serve.requests", {{"shard", "shard-1"}});
  registry.set_gauge("tero.serve.shard_queue_depth", {{"shard", "shard-0"}},
                     3.0);
  registry.set_gauge("tero.serve.shard_queue_depth", {{"shard", "shard-0"}},
                     1.0);
  // The conveniences route through the same registry slots the verbose
  // labeled() + counter()/gauge() spelling would hit.
  EXPECT_EQ(
      registry.counter("tero.serve.requests{shard=shard-0}").value(), 5u);
  EXPECT_EQ(
      registry.counter("tero.serve.requests{shard=shard-1}").value(), 1u);
  EXPECT_EQ(
      registry.gauge("tero.serve.shard_queue_depth{shard=shard-0}").value(),
      1.0);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(Registry, ReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& first = registry.counter("tero.test.events");
  first.add(3);
  Counter& again = registry.counter("tero.test.events");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.value(), 3u);
  // First registration fixes histogram bounds.
  Histogram& h1 = registry.histogram("tero.test.ms", {1.0, 2.0});
  Histogram& h2 = registry.histogram("tero.test.ms", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Registry, JsonRoundTripsThroughParser) {
  MetricsRegistry registry;
  registry.counter("tero.funnel.thumbnails").add(120);
  registry.gauge("tero.pool.max_queue_depth").set(7.0);
  auto& histogram = registry.histogram("tero.stage.extraction.ms",
                                       {1.0, 10.0, 100.0});
  histogram.observe(2.0);
  histogram.observe(20.0);
  histogram.observe(200.0);

  std::ostringstream out;
  registry.write_json(out);
  const auto parsed = parse_json(out.str());

  EXPECT_EQ(parsed.at("counters").at("tero.funnel.thumbnails").number, 120.0);
  EXPECT_EQ(parsed.at("gauges").at("tero.pool.max_queue_depth").number, 7.0);
  const auto& h = parsed.at("histograms").at("tero.stage.extraction.ms");
  EXPECT_EQ(h.at("count").number, 3.0);
  EXPECT_DOUBLE_EQ(h.at("sum").number, 222.0);
  EXPECT_DOUBLE_EQ(h.at("mean").number, 74.0);
  EXPECT_TRUE(h.at("quantiles").contains("p50"));
  const auto& buckets = h.at("buckets").array;
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[1].at("le").number, 10.0);
  EXPECT_EQ(buckets[1].at("count").number, 1.0);
  // The overflow bucket serializes its bound as the string "+Inf".
  EXPECT_TRUE(buckets[3].at("le").is_string());
  EXPECT_EQ(buckets[3].at("le").string, "+Inf");
  EXPECT_EQ(buckets[3].at("count").number, 1.0);
}

TEST(Registry, TableListsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("tero.a").add(1);
  registry.gauge("tero.b").set(2.5);
  registry.histogram("tero.c", {1.0}).observe(0.5);
  std::ostringstream out;
  registry.write_table(out);
  const std::string table = out.str();
  for (const char* name : {"tero.a", "tero.b", "tero.c"}) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
}

TEST(Registry, IterationIsNameSorted) {
  MetricsRegistry registry;
  registry.counter("tero.zeta").add(1);
  registry.counter("tero.alpha").add(1);
  registry.counter("tero.mid").add(1);
  const auto listed = registry.counters();
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].first, "tero.alpha");
  EXPECT_EQ(listed[1].first, "tero.mid");
  EXPECT_EQ(listed[2].first, "tero.zeta");
}

TEST(Registry, RemoveAndResetDropSeries) {
  MetricsRegistry registry;
  registry.counter("tero.a").add(1);
  registry.gauge("tero.b").set(2.0);
  registry.histogram("tero.c").observe(3.0);
  EXPECT_TRUE(registry.remove("tero.b"));
  EXPECT_FALSE(registry.remove("tero.b"));  // already gone
  EXPECT_FALSE(registry.remove("tero.never"));
  EXPECT_EQ(registry.size(), 2u);
  registry.reset();
  EXPECT_EQ(registry.size(), 0u);
  // Recreating after reset starts from zero state.
  EXPECT_EQ(registry.counter("tero.a").value(), 0u);
}

TEST(Registry, MutationEpochTracksStructuralChangesOnly) {
  MetricsRegistry registry;
  const std::uint64_t start = registry.mutation_epoch();
  registry.counter("tero.a");
  EXPECT_EQ(registry.mutation_epoch(), start + 1);
  // Re-resolving and mutating values are not structural changes.
  registry.counter("tero.a").add(100);
  EXPECT_EQ(registry.mutation_epoch(), start + 1);
  registry.gauge("tero.b");
  registry.histogram("tero.c");
  EXPECT_EQ(registry.mutation_epoch(), start + 3);
  registry.remove("tero.never");  // no-op remove doesn't bump
  EXPECT_EQ(registry.mutation_epoch(), start + 3);
  registry.remove("tero.a");
  EXPECT_EQ(registry.mutation_epoch(), start + 4);
  registry.reset();
  EXPECT_EQ(registry.mutation_epoch(), start + 5);
}

TEST(Exemplars, SelectionIsOrderIndependent) {
  // The min-wise reservoir must elect the same exemplar per bucket no
  // matter what order (or thread) the samples arrived in.
  const std::vector<std::pair<double, std::uint64_t>> samples = {
      {0.5, 1}, {0.7, 2}, {5.0, 3}, {7.5, 4}, {0.2, 5}, {6.1, 6}, {200.0, 7},
  };
  Histogram forward({1.0, 10.0, 100.0});
  forward.enable_exemplars(42);
  for (const auto& [value, span] : samples) forward.record(value, span);
  Histogram reverse({1.0, 10.0, 100.0});
  reverse.enable_exemplars(42);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    reverse.record(it->first, it->second);
  }
  const auto a = forward.exemplars();
  const auto b = reverse.exemplars();
  ASSERT_EQ(a.size(), 4u);  // 3 bounds + overflow
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].valid(), b[i].valid()) << "bucket " << i;
    EXPECT_EQ(a[i].span_id, b[i].span_id) << "bucket " << i;
    EXPECT_EQ(a[i].rank, b[i].rank) << "bucket " << i;
  }
  // Every populated bucket elected someone; the empty le=100 bucket did not.
  EXPECT_TRUE(a[0].valid());
  EXPECT_TRUE(a[1].valid());
  EXPECT_FALSE(a[2].valid());  // no sample in (10, 100]
  EXPECT_TRUE(a[3].valid());   // 200.0 overflows
  EXPECT_EQ(a[3].span_id, 7u);
}

TEST(Exemplars, DisabledHistogramRecordsWithoutCapture) {
  Histogram histogram({1.0});
  histogram.record(0.5, 9);  // exemplars never enabled
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_FALSE(histogram.exemplars_enabled());
  EXPECT_TRUE(histogram.exemplars().empty());
}

TEST(Prom, LabelEscapingCoversTheSpecials) {
  EXPECT_EQ(prom_escape_label(R"(plain)"), "plain");
  EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prom_escape_label("two\nlines"), "two\\nlines");
}

TEST(Prom, NameSanitizesToTheExpositionCharset) {
  EXPECT_EQ(prom_name("tero.serve.cache_hits"), "tero_serve_cache_hits");
  EXPECT_EQ(prom_name("weird-name!"), "weird_name_");
  EXPECT_EQ(prom_name("9lives"), "_9lives");  // leading digit gains '_'
}

TEST(Prom, SplitLabeledNameHandlesGoodAndMalformed) {
  const auto parsed = split_labeled_name("tero.x{shard=3,zone=us-west}");
  EXPECT_EQ(parsed.name, "tero.x");
  ASSERT_EQ(parsed.labels.size(), 2u);
  EXPECT_EQ(parsed.labels[0].first, "shard");
  EXPECT_EQ(parsed.labels[0].second, "3");
  EXPECT_EQ(parsed.labels[1].second, "us-west");
  // Malformed blocks stay opaque: the whole string remains the name.
  EXPECT_EQ(split_labeled_name("tero.x{unclosed").name, "tero.x{unclosed");
  EXPECT_TRUE(split_labeled_name("tero.plain").labels.empty());
}

TEST(Prom, RegistryExportValidatesAndCarriesExemplars) {
  MetricsRegistry registry;
  registry.counter("tero.test.events{shard=0}").add(3);
  registry.gauge("tero.test.depth").set(1.5);
  auto& histogram = registry.histogram("tero.test.ms", {1.0, 10.0});
  histogram.enable_exemplars(7);
  histogram.record(0.5, 21);
  histogram.record(4.0, 22);
  std::ostringstream out;
  write_prom(registry, out);
  EXPECT_EQ(validate_prom_text(out.str()), "");
  EXPECT_NE(out.str().find("# {span_id="), std::string::npos);
}

TEST(Prom, ValidatorRejectsBrokenExposition) {
  EXPECT_EQ(validate_prom_text("# just a comment\n"), "");
  EXPECT_NE(validate_prom_text("name_only\n"), "");          // missing value
  EXPECT_NE(validate_prom_text("name not_a_number\n"), "");  // bad value
  EXPECT_NE(validate_prom_text("bad name 1\n"), "");  // space inside name
}

TEST(ScopedTimerTest, ObservesElapsedOnceAndNullIsNoop) {
  MetricsRegistry registry;
  auto& histogram = registry.histogram("tero.test.ms");
  {
    ScopedTimer timer(&histogram);
  }
  EXPECT_EQ(histogram.count(), 1u);
  {
    ScopedTimer null_timer(nullptr);  // must not crash or observe anywhere
  }
  EXPECT_EQ(histogram.count(), 1u);
}

TEST(ScopedTimerTest, MoveTransfersTheSingleObservation) {
  MetricsRegistry registry;
  auto& histogram = registry.histogram("tero.test.ms");
  {
    ScopedTimer outer(nullptr);
    {
      ScopedTimer inner(&histogram);
      outer = std::move(inner);
      // inner is disarmed: its destruction here must not record.
    }
    EXPECT_EQ(histogram.count(), 0u);  // outer still holds the measurement
  }
  EXPECT_EQ(histogram.count(), 1u);

  // Move construction likewise leaves exactly one observation.
  {
    ScopedTimer first(&histogram);
    ScopedTimer second(std::move(first));
  }
  EXPECT_EQ(histogram.count(), 2u);

  // Assigning over an armed timer closes it out first: two observations
  // total, one per started timer.
  {
    ScopedTimer a(&histogram);
    ScopedTimer b(&histogram);
    a = std::move(b);
  }
  EXPECT_EQ(histogram.count(), 4u);
}

TEST(Trace, JsonRoundTripsWithNestedSpans) {
  TraceRecorder recorder;
  {
    ScopedSpan outer(&recorder, "stage.extraction", "stage");
    {
      ScopedSpan inner(&recorder, "extraction.task", "task");
    }
  }
  recorder.add_instant("download.crash", "download");
  EXPECT_EQ(recorder.span_count(), 3u);

  std::ostringstream out;
  recorder.write_json(out);
  const auto parsed = parse_json(out.str());
  ASSERT_TRUE(parsed.is_array());
  ASSERT_EQ(parsed.array.size(), 3u);

  // Inner spans close first, so they serialize before their parent.
  const auto& inner = parsed.array[0];
  const auto& outer = parsed.array[1];
  const auto& instant = parsed.array[2];
  EXPECT_EQ(inner.at("name").string, "extraction.task");
  EXPECT_EQ(inner.at("ph").string, "X");
  EXPECT_EQ(outer.at("name").string, "stage.extraction");
  EXPECT_EQ(outer.at("cat").string, "stage");
  // Nesting: the outer span encloses the inner one on the same track.
  EXPECT_EQ(inner.at("tid").number, outer.at("tid").number);
  EXPECT_GE(inner.at("ts").number, outer.at("ts").number);
  EXPECT_LE(inner.at("ts").number + inner.at("dur").number,
            outer.at("ts").number + outer.at("dur").number);
  EXPECT_EQ(instant.at("ph").string, "i");
  EXPECT_EQ(instant.at("name").string, "download.crash");
  EXPECT_FALSE(instant.contains("dur"));
}

TEST(Trace, NullRecorderScopedSpanIsNoop) {
  ScopedSpan span(nullptr, "anything");
  // Nothing to assert beyond "does not crash": the null recorder contract.
}

TEST(Trace, MovedFromSpanDoesNotDoubleRecord) {
  TraceRecorder recorder;
  {
    ScopedSpan outer(nullptr, "placeholder");
    {
      ScopedSpan inner(&recorder, "work", "task");
      outer = std::move(inner);
      // inner is disarmed: leaving this scope must not close the span.
    }
    EXPECT_EQ(recorder.span_count(), 0u);
  }
  EXPECT_EQ(recorder.span_count(), 1u);  // exactly one "work" span

  // Move construction transfers the span rather than duplicating it, and
  // assigning over a live span closes that span out first.
  {
    ScopedSpan first(&recorder, "a");
    ScopedSpan second(std::move(first));
    ScopedSpan replacement(&recorder, "b");
    second = std::move(replacement);  // closes "a", adopts "b"
  }
  EXPECT_EQ(recorder.span_count(), 3u);  // work + a + b, no extras
}

TEST(Trace, ThreadsGetSmallStableIds) {
  TraceRecorder recorder;
  recorder.add_span("main", "t", 0, 1);
  std::thread other([&] { recorder.add_span("worker", "t", 2, 1); });
  other.join();
  std::ostringstream out;
  recorder.write_json(out);
  const auto parsed = parse_json(out.str());
  ASSERT_EQ(parsed.array.size(), 2u);
  EXPECT_EQ(parsed.array[0].at("tid").number, 0.0);
  EXPECT_EQ(parsed.array[1].at("tid").number, 1.0);
}

}  // namespace
}  // namespace tero::obs
