#include <gtest/gtest.h>

#include "tero/channel.hpp"
#include "analysis/outlier_rejection.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tero/export.hpp"
#include "tero/pipeline.hpp"
#include "tero/realtime.hpp"
#include <algorithm>
#include <set>
#include <sstream>

namespace tero::core {
namespace {

synth::TruePoint point_at(double t, int latency) {
  synth::TruePoint point;
  point.t = t;
  point.latency_ms = latency;
  return point;
}

TEST(Channel, DigitDropShortens) {
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const int dropped = drop_leading_digits(245, rng);
    EXPECT_TRUE(dropped == 45 || dropped == 5) << dropped;
  }
  EXPECT_EQ(drop_leading_digits(7, rng), 0);
}

TEST(Channel, ConfusionChangesOneDigit) {
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const int confused = confuse_digit(42, rng);
    EXPECT_NE(confused, 42);
    EXPECT_GE(confused, 1);
    EXPECT_LE(confused, 99);
  }
}

TEST(NoiseChannel, RatesApproximatelyHonored) {
  NoiseChannelConfig config;
  auto channel = make_noise_channel(config);
  util::Rng rng(3);
  const auto& spec = ocr::ui_spec_for("League of Legends");
  int missed = 0;
  int wrong = 0;
  int total = 20000;
  for (int i = 0; i < total; ++i) {
    const auto m = channel->extract(point_at(i * 300.0, 87), spec, rng);
    if (!m.has_value()) {
      ++missed;
    } else if (m->latency_ms != 87) {
      ++wrong;
    }
  }
  EXPECT_NEAR(missed / static_cast<double>(total), config.miss_rate, 0.02);
  const double error_rate =
      wrong / static_cast<double>(total - missed);
  EXPECT_NEAR(error_rate, config.error_rate, 0.01);
}

TEST(NoiseChannel, AlternativesOftenCorrectOnError) {
  NoiseChannelConfig config;
  config.miss_rate = 0.0;
  config.error_rate = 1.0;  // force errors
  auto channel = make_noise_channel(config);
  util::Rng rng(4);
  const auto& spec = ocr::ui_spec_for("League of Legends");
  int with_correct_alt = 0;
  int extracted = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto m = channel->extract(point_at(i * 300.0, 87), spec, rng);
    if (!m.has_value()) continue;
    ++extracted;
    if (m->alternative_ms == 87) ++with_correct_alt;
  }
  ASSERT_GT(extracted, 1000);
  EXPECT_NEAR(with_correct_alt / static_cast<double>(extracted),
              config.p_alt_correct_on_error, 0.05);
}

TEST(OcrChannel, ExtractsCleanPoints) {
  synth::ThumbnailConfig thumbnails;
  thumbnails.p_occlusion = 0.0;
  thumbnails.p_low_contrast = 0.0;
  thumbnails.p_clock = 0.0;
  thumbnails.p_heavy_noise = 0.0;
  thumbnails.p_compression = 0.0;
  auto channel = make_ocr_channel(thumbnails);
  util::Rng rng(5);
  const auto& spec = ocr::ui_spec_for("League of Legends");
  int correct = 0;
  for (int i = 0; i < 20; ++i) {
    const int truth = static_cast<int>(rng.uniform_int(10, 250));
    const auto m = channel->extract(point_at(i * 300.0, truth), spec, rng);
    if (m.has_value() && m->latency_ms == truth) ++correct;
  }
  EXPECT_GE(correct, 18);
}

TEST(TruncateLocation, Granularities) {
  const geo::Location full{"Paris", "Ile-de-France", "France"};
  EXPECT_EQ(truncate_location(full, geo::Granularity::kCountry),
            (geo::Location{"", "", "France"}));
  EXPECT_EQ(truncate_location(full, geo::Granularity::kRegion),
            (geo::Location{"", "Ile-de-France", "France"}));
  EXPECT_EQ(truncate_location(full, geo::Granularity::kCity), full);
}

class PipelineTest : public ::testing::Test {
 protected:
  static synth::WorldConfig locatable_world(std::size_t per_focus = 30) {
    synth::WorldConfig config;
    config.seed = 77;
    // Everybody locatable: the figures need dense located populations.
    config.p_twitter = 1.0;
    config.p_twitter_backlink = 1.0;
    config.p_twitter_location = 1.0;
    config.games = {"League of Legends"};
    config.focus_locations = {
        geo::Location{"", "Illinois", "United States"},
        geo::Location{"", "", "Poland"},
    };
    config.streamers_per_focus = per_focus;
    return config;
  }

  static TeroConfig fast_config() {
    TeroConfig config;
    config.p_latency_visible = 1.0;  // dense series for the analysis
    config.use_full_ocr = false;
    config.aggregate_granularity = geo::Granularity::kRegion;
    return config;
  }
};

TEST_F(PipelineTest, EndToEndProducesAggregates) {
  const synth::World world(locatable_world());
  synth::BehaviorConfig behavior;
  behavior.days = 6;
  synth::SessionGenerator generator(world, behavior, 7);
  const auto streams = generator.generate();
  ASSERT_FALSE(streams.empty());

  Pipeline pipeline(fast_config());
  const Dataset dataset = pipeline.run(world, streams);

  EXPECT_EQ(dataset.funnel.streamers_total, 60u);
  EXPECT_GT(dataset.funnel.streamers_located, 50u);  // near-universal
  EXPECT_GT(dataset.funnel.ocr_ok, 1000u);
  EXPECT_GT(dataset.funnel.retained, 500u);
  EXPECT_FALSE(dataset.entries.empty());
  EXPECT_FALSE(dataset.aggregates.empty());

  const auto* illinois = dataset.find_aggregate(
      geo::Location{"", "Illinois", "United States"}, "League of Legends");
  ASSERT_NE(illinois, nullptr);
  ASSERT_TRUE(illinois->box.has_value());
  EXPECT_EQ(illinois->server_city, "Chicago");
  EXPECT_GT(illinois->streamers, 10u);
  EXPECT_GT(illinois->avg_corrected_distance_km, 0.0);

  const auto* poland = dataset.find_aggregate(geo::Location{"", "", "Poland"},
                                              "League of Legends");
  ASSERT_NE(poland, nullptr);
  ASSERT_TRUE(poland->box.has_value());
  // Poland's last-mile penalty shows up against Illinois despite both being
  // "close" to their servers.
  EXPECT_GT(poland->box->p50, illinois->box->p50);
  // Boxplots are ordered.
  EXPECT_LE(illinois->box->p5, illinois->box->p25);
  EXPECT_LE(illinois->box->p25, illinois->box->p50);
  EXPECT_LE(illinois->box->p50, illinois->box->p75);
  EXPECT_LE(illinois->box->p75, illinois->box->p95);
}

// The location stage on a pool gives the same LocatedWorld as the serial
// loop: every source, a relocation and unlocated streamers included.
TEST(LocateStreamers, SameResultOnOneAndFourThreads) {
  synth::WorldConfig config;
  config.num_streamers = 400;
  config.seed = 31;
  config.p_move = 0.1;
  const synth::World world(config);
  const LocatedWorld serial = locate_streamers(world);
  util::ThreadPool pool(4);
  const LocatedWorld pooled = locate_streamers(world, &pool);
  EXPECT_EQ(pooled.located, serial.located);
  EXPECT_EQ(pooled.sources, serial.sources);
  EXPECT_EQ(pooled.located_after, serial.located_after);
  EXPECT_EQ(pooled.streamers_located, serial.streamers_located);

  std::set<social::LocationSource> sources(serial.sources.begin(),
                                           serial.sources.end());
  EXPECT_EQ(sources.size(), 4u) << "every source, kNone included";
  EXPECT_GT(std::count_if(serial.located_after.begin(),
                          serial.located_after.end(),
                          [](const auto& l) { return l.has_value(); }),
            0);
}

TEST_F(PipelineTest, LocationErrorsAreRare) {
  const synth::World world(locatable_world(50));
  synth::BehaviorConfig behavior;
  behavior.days = 3;
  synth::SessionGenerator generator(world, behavior, 9);
  const auto streams = generator.generate();
  Pipeline pipeline(fast_config());
  const Dataset dataset = pipeline.run(world, streams);
  std::size_t wrong = 0;
  for (const auto& entry : dataset.entries) {
    if (!entry.location.compatible_with(entry.true_location)) ++wrong;
  }
  ASSERT_FALSE(dataset.entries.empty());
  // Underlying-tool errors + deliberate liars stay in the low percent range
  // (§4.2.1: 1.46%, plus our p_false_location).
  EXPECT_LT(static_cast<double>(wrong) / dataset.entries.size(), 0.10);
}

TEST_F(PipelineTest, AggregateGranularitySwitch) {
  const synth::World world(locatable_world());
  synth::BehaviorConfig behavior;
  behavior.days = 4;
  synth::SessionGenerator generator(world, behavior, 10);
  const auto streams = generator.generate();
  Pipeline pipeline(fast_config());
  Dataset dataset = pipeline.run(world, streams);
  const auto country_aggregates = aggregate_entries(
      dataset.entries, TeroConfig{}.analysis, geo::Granularity::kCountry);
  bool found_us = false;
  for (const auto& aggregate : country_aggregates) {
    EXPECT_TRUE(aggregate.location.region.empty());
    if (aggregate.location.country == "United States") found_us = true;
  }
  EXPECT_TRUE(found_us);
}

}  // namespace
}  // namespace tero::core

namespace channel_tests {
using namespace tero;
using namespace tero::core;

TEST(Pipeline, VisibilityGatesExtraction) {
  synth::WorldConfig world_config;
  world_config.focus_locations = {geo::Location{"", "", "Germany"}};
  world_config.streamers_per_focus = 30;
  world_config.games = {"League of Legends"};
  world_config.p_twitter = 1.0;
  world_config.p_twitter_backlink = 1.0;
  world_config.p_twitter_location = 1.0;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = 4;
  synth::SessionGenerator generator(world, behavior, 8);
  const auto streams = generator.generate();

  TeroConfig config;
  config.p_latency_visible = 0.35;  // the paper's measured rate
  config.noise.miss_rate = 0.0;
  Pipeline pipeline(config);
  const Dataset dataset = pipeline.run(world, streams);
  ASSERT_GT(dataset.funnel.thumbnails, 500u);
  const double extraction_rate =
      static_cast<double>(dataset.funnel.ocr_ok) /
      static_cast<double>(dataset.funnel.thumbnails);
  EXPECT_NEAR(extraction_rate, 0.35, 0.05);
}

TEST(Channel, DoubleDropOnThreeDigits) {
  util::Rng rng(10);
  int doubles = 0;
  for (int i = 0; i < 1000; ++i) {
    if (drop_leading_digits(245, rng) == 5) ++doubles;
  }
  // A quarter of multi-digit drops lose two digits.
  EXPECT_NEAR(doubles / 1000.0, 0.25, 0.05);
}

TEST(Channel, ConfusionNeverReturnsNonPositive) {
  util::Rng rng(11);
  for (int value : {1, 9, 10, 99, 100, 999}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_GE(confuse_digit(value, rng), 1);
    }
  }
}

TEST(NoiseChannel, PreservesTimestamps) {
  auto channel = make_noise_channel(NoiseChannelConfig{.miss_rate = 0.0});
  util::Rng rng(12);
  synth::TruePoint point;
  point.t = 12345.5;
  point.latency_ms = 77;
  const auto m =
      channel->extract(point, ocr::ui_spec_for("League of Legends"), rng);
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->time_s, 12345.5);
}

}  // namespace channel_tests

namespace export_tests {
using namespace tero;
using namespace tero::core;

Dataset tiny_dataset() {
  StreamerGameEntry entry;
  entry.pseudonym = "u0001";
  entry.game = "League of Legends";
  entry.location = geo::Location{"", "Illinois", "United States"};
  analysis::Stream stream;
  stream.streamer = entry.pseudonym;
  stream.game = entry.game;
  for (int i = 0; i < 8; ++i) {
    analysis::Measurement m;
    m.time_s = i * 300.0;
    m.latency_ms = 18 + (i % 3);
    stream.points.push_back(m);
  }
  entry.clean.retained.push_back(stream);
  entry.clean.points_retained = 8;
  Dataset dataset;
  dataset.entries.push_back(std::move(entry));

  LocationGameAggregate aggregate;
  aggregate.location = geo::Location{"", "Illinois", "United States"};
  aggregate.game = "League of Legends";
  aggregate.streamers = 1;
  aggregate.distribution = {18, 19, 20, 18, 19};
  aggregate.box = stats::boxplot(aggregate.distribution);
  aggregate.server_city = "Chicago";
  aggregate.avg_corrected_distance_km = 447;
  dataset.aggregates.push_back(std::move(aggregate));
  return dataset;
}

TEST(Export, MeasurementsRoundTrip) {
  const Dataset dataset = tiny_dataset();
  std::ostringstream out;
  const auto rows = export_measurements(dataset, out);
  EXPECT_EQ(rows, 8u);
  std::istringstream in(out.str());
  const auto streams = import_measurements(in);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].streamer, "u0001");
  EXPECT_EQ(streams[0].points.size(), 8u);
  EXPECT_EQ(streams[0].points[3].latency_ms, 18);
}

TEST(Export, ImportSplitsStreamsAtGaps) {
  std::string csv =
      "pseudonym,game,city,region,country,time_s,latency_ms\n"
      "u1,g,,R,C,0,40\n"
      "u1,g,,R,C,300,41\n"
      "u1,g,,R,C,90000,42\n";  // > 30 min gap -> new stream
  std::istringstream in(csv);
  const auto streams = import_measurements(in);
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0].points.size(), 2u);
  EXPECT_EQ(streams[1].points.size(), 1u);
}

TEST(Export, AggregatesWriteBoxplots) {
  const Dataset dataset = tiny_dataset();
  std::ostringstream out;
  const auto rows = export_aggregates(dataset, out);
  EXPECT_EQ(rows, 1u);
  EXPECT_NE(out.str().find("Chicago"), std::string::npos);
  EXPECT_NE(out.str().find("Illinois"), std::string::npos);
}

TEST(Export, CsvEscaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_unescape(csv_escape("a,b\"c")), "a,b\"c");
}

TEST(Export, ImportRejectsGarbage) {
  std::istringstream empty("");
  EXPECT_THROW(import_measurements(empty), std::invalid_argument);
  std::istringstream bad_header("nope\n");
  EXPECT_THROW(import_measurements(bad_header), std::invalid_argument);
  std::istringstream bad_row(
      "pseudonym,game,city,region,country,time_s,latency_ms\nu1,g,1\n");
  EXPECT_THROW(import_measurements(bad_row), std::invalid_argument);
}

TEST(Realtime, EmitsSpikeAfterFinalizeLag) {
  RealtimeAnalyzer::Config config;
  config.finalize_lag_s = 1800.0;
  RealtimeAnalyzer analyzer(config);
  const geo::Location loc{"", "Illinois", "United States"};
  analyzer.register_streamer("u1", loc);
  std::size_t spikes = 0;
  // Stable 45s, a 2-point spike at 120, then stable again for long enough
  // that the spike finalizes.
  std::vector<int> series(8, 45);
  series.push_back(120);
  series.push_back(122);
  for (int i = 0; i < 12; ++i) series.push_back(45);
  for (std::size_t i = 0; i < series.size(); ++i) {
    analysis::Measurement m;
    m.time_s = static_cast<double>(i) * 300.0;
    m.latency_ms = series[i];
    const auto out = analyzer.ingest("u1", "League of Legends", m);
    spikes += out.spikes.size();
  }
  EXPECT_EQ(spikes, 1u);
  EXPECT_EQ(analyzer.spikes_emitted(), 1u);
  EXPECT_EQ(analyzer.measurements_ingested(), series.size());
}

TEST(Realtime, MetricsCountAlertsAndFinalizeLag) {
  obs::MetricsRegistry registry;
  RealtimeAnalyzer::Config config;
  config.finalize_lag_s = 1800.0;
  config.metrics = &registry;
  RealtimeAnalyzer analyzer(config);
  const geo::Location loc{"", "Illinois", "United States"};
  analyzer.register_streamer("u1", loc);
  std::vector<int> series(8, 45);
  series.push_back(120);
  series.push_back(122);
  for (int i = 0; i < 12; ++i) series.push_back(45);
  for (std::size_t i = 0; i < series.size(); ++i) {
    analysis::Measurement m;
    m.time_s = static_cast<double>(i) * 300.0;
    m.latency_ms = series[i];
    analyzer.ingest("u1", "League of Legends", m);
  }
  EXPECT_EQ(registry.counter("tero.realtime.measurements").value(),
            series.size());
  EXPECT_EQ(registry.counter("tero.realtime.spike_alerts").value(), 1u);
  // The spike's finalize lag landed in the histogram exactly once.
  EXPECT_EQ(registry
                .histogram("tero.realtime.finalize_lag_s",
                           {60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0,
                            14400.0, 43200.0, 86400.0})
                .count(),
            1u);
}

TEST(Realtime, NoDuplicateSpikeAlerts) {
  RealtimeAnalyzer analyzer;
  const geo::Location loc{"", "", "Germany"};
  analyzer.register_streamer("u1", loc);
  std::size_t spikes = 0;
  std::vector<int> series(8, 30);
  series.push_back(110);
  for (int i = 0; i < 30; ++i) series.push_back(30);
  for (std::size_t i = 0; i < series.size(); ++i) {
    analysis::Measurement m;
    m.time_s = static_cast<double>(i) * 300.0;
    m.latency_ms = series[i];
    spikes += analyzer.ingest("u1", "Dota 2", m).spikes.size();
  }
  EXPECT_EQ(spikes, 1u);  // the same spike never re-alerts
}

TEST(Realtime, DistributionAccumulatesGraduatedPoints) {
  RealtimeAnalyzer::Config config;
  config.buffer_points = 10;
  RealtimeAnalyzer analyzer(config);
  const geo::Location loc{"", "", "France"};
  analyzer.register_streamer("u1", loc);
  for (int i = 0; i < 60; ++i) {
    analysis::Measurement m;
    m.time_s = i * 300.0;
    m.latency_ms = 25 + (i % 2);
    analyzer.ingest("u1", "League of Legends", m);
  }
  const auto values = analyzer.distribution(loc, "League of Legends");
  EXPECT_GT(values.size(), 30u);
  for (double v : values) {
    EXPECT_GE(v, 25.0);
    EXPECT_LE(v, 26.0);
  }
}

TEST(OutlierRejection, DropsInconsistentStreamer) {
  analysis::AnalysisConfig config;
  const std::vector<analysis::LatencyCluster> location_clusters = {
      {110, 130, 0.9, 45}, {20, 30, 0.05, 2}};
  const std::vector<analysis::LatencyCluster> consistent = {{112, 125, 1.0, 30}};
  const std::vector<analysis::LatencyCluster> outlier = {{18, 24, 1.0, 30}};
  EXPECT_TRUE(analysis::streamer_consistent_with_location(
      consistent, location_clusters, config));
  // The 5%-weight low cluster must not vouch for the outlier.
  EXPECT_FALSE(analysis::streamer_consistent_with_location(
      outlier, location_clusters, config));
  const auto outliers = analysis::find_location_outliers(
      {consistent, outlier}, location_clusters, config);
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0], 1u);
}

TEST(OutlierRejection, EmptyLocationClustersVouchForEveryone) {
  analysis::AnalysisConfig config;
  const std::vector<analysis::LatencyCluster> streamer = {{18, 24, 1.0, 30}};
  EXPECT_TRUE(
      analysis::streamer_consistent_with_location(streamer, {}, config));
}

}  // namespace export_tests

namespace relocation_tests {
using namespace tero;
using namespace tero::core;

TEST(Pipeline, RelocatedStreamerYieldsTwoEndpoints) {
  // §3.1.1: a streamer who moves and advertises the new location becomes
  // two distinct {streamer, location} end-points.
  synth::WorldConfig world_config;
  world_config.seed = 31;
  world_config.games = {"League of Legends"};
  world_config.focus_locations = {geo::Location{"", "", "Germany"}};
  world_config.streamers_per_focus = 20;
  world_config.p_twitter = 1.0;
  world_config.p_twitter_backlink = 1.0;
  world_config.p_twitter_location = 1.0;
  world_config.p_false_location = 0.0;
  world_config.p_move = 0.5;  // force plenty of relocations
  world_config.move_day_min = 4;
  world_config.move_day_max = 5;
  const synth::World world(world_config);

  std::size_t relocated = 0;
  for (const auto& streamer : world.streamers()) {
    if (streamer.relocation.has_value()) ++relocated;
  }
  ASSERT_GT(relocated, 3u);

  synth::BehaviorConfig behavior;
  behavior.days = 10;
  synth::SessionGenerator generator(world, behavior, 32);
  const auto streams = generator.generate();

  TeroConfig config;
  config.p_latency_visible = 1.0;
  Pipeline pipeline(config);
  const Dataset dataset = pipeline.run(world, streams);

  // At least one pseudonym should appear with two different locations.
  std::map<std::string, std::set<std::string>> locations_per_pseudonym;
  for (const auto& entry : dataset.entries) {
    locations_per_pseudonym[entry.pseudonym].insert(
        entry.location.to_string());
  }
  std::size_t multi_location = 0;
  for (const auto& [pseudonym, locations] : locations_per_pseudonym) {
    if (locations.size() >= 2) ++multi_location;
  }
  EXPECT_GT(multi_location, 0u);

  // And the post-move entries' believed location matches the move's ground
  // truth for correctly-geoparsed profiles.
  std::size_t consistent_epochs = 0;
  for (const auto& entry : dataset.entries) {
    if (entry.location.compatible_with(entry.true_location)) {
      ++consistent_epochs;
    }
  }
  EXPECT_GT(static_cast<double>(consistent_epochs) / dataset.entries.size(),
            0.8);
}

}  // namespace relocation_tests

namespace determinism_tests {
using namespace tero;
using namespace tero::core;

// Bit-identical comparison of everything Pipeline::run produces. EXPECT_EQ
// on doubles is intentional throughout: the determinism contract is
// *bit-identical* output for any thread count, not merely close output.

void expect_same_measurement(const analysis::Measurement& a,
                             const analysis::Measurement& b) {
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.alternative_ms, b.alternative_ms);
}

void expect_same_clean(const analysis::CleanResult& a,
                       const analysis::CleanResult& b) {
  ASSERT_EQ(a.retained.size(), b.retained.size());
  for (std::size_t s = 0; s < a.retained.size(); ++s) {
    EXPECT_EQ(a.retained[s].streamer, b.retained[s].streamer);
    EXPECT_EQ(a.retained[s].game, b.retained[s].game);
    ASSERT_EQ(a.retained[s].points.size(), b.retained[s].points.size());
    for (std::size_t p = 0; p < a.retained[s].points.size(); ++p) {
      expect_same_measurement(a.retained[s].points[p],
                              b.retained[s].points[p]);
    }
  }
  ASSERT_EQ(a.spikes.size(), b.spikes.size());
  for (std::size_t s = 0; s < a.spikes.size(); ++s) {
    EXPECT_EQ(a.spikes[s].start_s, b.spikes[s].start_s);
    EXPECT_EQ(a.spikes[s].end_s, b.spikes[s].end_s);
    EXPECT_EQ(a.spikes[s].peak_latency_ms, b.spikes[s].peak_latency_ms);
    EXPECT_EQ(a.spikes[s].baseline_ms, b.spikes[s].baseline_ms);
  }
  EXPECT_EQ(a.points_in, b.points_in);
  EXPECT_EQ(a.points_retained, b.points_retained);
  EXPECT_EQ(a.points_corrected, b.points_corrected);
  EXPECT_EQ(a.points_discarded, b.points_discarded);
  EXPECT_EQ(a.spike_points, b.spike_points);
  EXPECT_EQ(a.glitch_segments, b.glitch_segments);
  EXPECT_EQ(a.discarded_entirely, b.discarded_entirely);
}

void expect_same_clusters(const std::vector<analysis::LatencyCluster>& a,
                          const std::vector<analysis::LatencyCluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].min_ms, b[c].min_ms);
    EXPECT_EQ(a[c].max_ms, b[c].max_ms);
    EXPECT_EQ(a[c].weight, b[c].weight);
    EXPECT_EQ(a[c].point_count, b[c].point_count);
  }
}

void expect_same_dataset(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.funnel.streamers_total, b.funnel.streamers_total);
  EXPECT_EQ(a.funnel.streamers_located, b.funnel.streamers_located);
  EXPECT_EQ(a.funnel.thumbnails, b.funnel.thumbnails);
  EXPECT_EQ(a.funnel.visible, b.funnel.visible);
  EXPECT_EQ(a.funnel.ocr_ok, b.funnel.ocr_ok);
  EXPECT_EQ(a.funnel.retained, b.funnel.retained);
  EXPECT_EQ(a.funnel.clustered, b.funnel.clustered);

  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const auto& ea = a.entries[i];
    const auto& eb = b.entries[i];
    EXPECT_EQ(ea.pseudonym, eb.pseudonym);
    EXPECT_EQ(ea.game, eb.game);
    EXPECT_EQ(ea.location, eb.location);
    EXPECT_EQ(ea.true_location, eb.true_location);
    EXPECT_EQ(ea.location_source, eb.location_source);
    expect_same_clean(ea.clean, eb.clean);
    expect_same_clusters(ea.clusters, eb.clusters);
    EXPECT_EQ(ea.is_static, eb.is_static);
    EXPECT_EQ(ea.high_quality, eb.high_quality);
    EXPECT_EQ(ea.location_outlier, eb.location_outlier);
    EXPECT_EQ(ea.possible_location_change, eb.possible_location_change);
    ASSERT_EQ(ea.endpoint_changes.size(), eb.endpoint_changes.size());
    for (std::size_t c = 0; c < ea.endpoint_changes.size(); ++c) {
      EXPECT_EQ(ea.endpoint_changes[c].time_s, eb.endpoint_changes[c].time_s);
      EXPECT_EQ(ea.endpoint_changes[c].same_stream,
                eb.endpoint_changes[c].same_stream);
      EXPECT_EQ(ea.endpoint_changes[c].from_cluster,
                eb.endpoint_changes[c].from_cluster);
      EXPECT_EQ(ea.endpoint_changes[c].to_cluster,
                eb.endpoint_changes[c].to_cluster);
    }
  }

  ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
  for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
    const auto& ga = a.aggregates[i];
    const auto& gb = b.aggregates[i];
    EXPECT_EQ(ga.location, gb.location);
    EXPECT_EQ(ga.game, gb.game);
    EXPECT_EQ(ga.streamers, gb.streamers);
    expect_same_clusters(ga.clusters, gb.clusters);
    EXPECT_EQ(ga.distribution, gb.distribution);
    ASSERT_EQ(ga.box.has_value(), gb.box.has_value());
    if (ga.box.has_value()) {
      EXPECT_EQ(ga.box->p5, gb.box->p5);
      EXPECT_EQ(ga.box->p25, gb.box->p25);
      EXPECT_EQ(ga.box->p50, gb.box->p50);
      EXPECT_EQ(ga.box->p75, gb.box->p75);
      EXPECT_EQ(ga.box->p95, gb.box->p95);
    }
    EXPECT_EQ(ga.avg_corrected_distance_km, gb.avg_corrected_distance_km);
    EXPECT_EQ(ga.server_city, gb.server_city);
    EXPECT_EQ(ga.shared.spike_probability, gb.shared.spike_probability);
    EXPECT_EQ(ga.shared.sufficient_data, gb.shared.sufficient_data);
    ASSERT_EQ(ga.shared.anomalies.size(), gb.shared.anomalies.size());
    for (std::size_t s = 0; s < ga.shared.anomalies.size(); ++s) {
      EXPECT_EQ(ga.shared.anomalies[s].start_s, gb.shared.anomalies[s].start_s);
      EXPECT_EQ(ga.shared.anomalies[s].end_s, gb.shared.anomalies[s].end_s);
      EXPECT_EQ(ga.shared.anomalies[s].streamers,
                gb.shared.anomalies[s].streamers);
      EXPECT_EQ(ga.shared.anomalies[s].probability,
                gb.shared.anomalies[s].probability);
    }
  }
}

TEST(Determinism, PipelineOutputIsBitIdenticalAcrossThreadCounts) {
  synth::WorldConfig world_config;
  world_config.seed = 77;
  world_config.p_twitter = 1.0;
  world_config.p_twitter_backlink = 1.0;
  world_config.p_twitter_location = 1.0;
  world_config.games = {"League of Legends", "Dota 2"};
  world_config.focus_locations = {
      geo::Location{"", "Illinois", "United States"},
      geo::Location{"", "", "Poland"},
  };
  world_config.streamers_per_focus = 25;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = 5;
  synth::SessionGenerator generator(world, behavior, 7);
  const auto streams = generator.generate();
  ASSERT_FALSE(streams.empty());

  auto run_with_threads = [&](std::size_t threads) {
    TeroConfig config;
    config.p_latency_visible = 1.0;
    config.seed = 4242;
    config.threads = threads;
    Pipeline pipeline(config);
    return pipeline.run(world, streams);
  };

  const Dataset serial = run_with_threads(1);
  const Dataset two = run_with_threads(2);
  const Dataset eight = run_with_threads(8);
  ASSERT_FALSE(serial.entries.empty());
  expect_same_dataset(serial, two);
  expect_same_dataset(serial, eight);
}

// The observability sinks are observational only (DESIGN.md §8): attaching a
// registry and a trace recorder must not change a single bit of the output,
// at any thread count.
TEST(Determinism, MetricsAndTraceDoNotChangeOutput) {
  synth::WorldConfig world_config;
  world_config.seed = 78;
  world_config.p_twitter = 1.0;
  world_config.p_twitter_backlink = 1.0;
  world_config.p_twitter_location = 1.0;
  world_config.games = {"League of Legends"};
  world_config.focus_locations = {
      geo::Location{"", "Illinois", "United States"},
      geo::Location{"", "", "Poland"},
  };
  world_config.streamers_per_focus = 20;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = 4;
  synth::SessionGenerator generator(world, behavior, 7);
  const auto streams = generator.generate();
  ASSERT_FALSE(streams.empty());

  auto run = [&](std::size_t threads, obs::MetricsRegistry* metrics,
                 obs::TraceRecorder* trace) {
    TeroConfig config;
    config.p_latency_visible = 1.0;
    config.seed = 4242;
    config.threads = threads;
    config.metrics = metrics;
    config.trace = trace;
    Pipeline pipeline(config);
    return pipeline.run(world, streams);
  };

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    obs::MetricsRegistry registry;
    obs::TraceRecorder recorder;
    const Dataset plain = run(threads, nullptr, nullptr);
    const Dataset observed = run(threads, &registry, &recorder);
    expect_same_dataset(plain, observed);

    // The registry holds the same funnel the dataset reports.
    EXPECT_EQ(registry.counter("tero.funnel.thumbnails").value(),
              observed.funnel.thumbnails);
    EXPECT_EQ(registry.counter("tero.funnel.retained").value(),
              observed.funnel.retained);
    EXPECT_GT(recorder.span_count(), 0u);
  }
}

TEST(Funnel, StagesAreMonotonicAndExportMatches) {
  synth::WorldConfig world_config;
  world_config.seed = 79;
  world_config.p_twitter = 1.0;
  world_config.p_twitter_backlink = 1.0;
  world_config.p_twitter_location = 1.0;
  world_config.games = {"League of Legends"};
  world_config.focus_locations = {geo::Location{"", "", "Germany"}};
  world_config.streamers_per_focus = 25;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = 4;
  synth::SessionGenerator generator(world, behavior, 6);
  const auto streams = generator.generate();

  TeroConfig config;
  config.p_latency_visible = 0.6;  // make thumbnails > visible strict
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  Pipeline pipeline(config);
  const Dataset dataset = pipeline.run(world, streams);

  const auto& funnel = dataset.funnel;
  EXPECT_GT(funnel.thumbnails, 0u);
  EXPECT_GE(funnel.thumbnails, funnel.visible);
  EXPECT_GE(funnel.visible, funnel.ocr_ok);
  EXPECT_GE(funnel.ocr_ok, funnel.retained);
  EXPECT_GE(funnel.streamers_total, funnel.streamers_located);

  // Export accounting rides on the same funnel: the measurement CSV has
  // exactly funnel.retained data rows.
  std::ostringstream out;
  const auto rows = export_measurements(dataset, out, &registry);
  EXPECT_EQ(rows, funnel.retained);
  EXPECT_EQ(registry.counter("tero.funnel.exported_measurements").value(),
            funnel.retained);

  // The metrics JSON carries the full funnel and the pool counters (zeros
  // when the pipeline ran serially, but always present).
  std::ostringstream json;
  registry.write_json(json);
  const auto parsed = obs::parse_json(json.str());
  const auto& counters = parsed.at("counters");
  for (const char* key :
       {"tero.funnel.thumbnails", "tero.funnel.visible",
        "tero.funnel.ocr_ok", "tero.funnel.retained",
        "tero.funnel.clustered", "tero.pool.tasks_run", "tero.pool.parks"}) {
    EXPECT_TRUE(counters.contains(key)) << key;
  }
}

TEST(Determinism, AggregateEntriesIdenticalWithAndWithoutPool) {
  synth::WorldConfig world_config;
  world_config.seed = 91;
  world_config.p_twitter = 1.0;
  world_config.p_twitter_backlink = 1.0;
  world_config.p_twitter_location = 1.0;
  world_config.games = {"League of Legends"};
  world_config.focus_locations = {geo::Location{"", "", "Germany"},
                                  geo::Location{"", "", "Poland"}};
  world_config.streamers_per_focus = 20;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = 4;
  synth::SessionGenerator generator(world, behavior, 5);
  const auto streams = generator.generate();

  TeroConfig config;
  config.p_latency_visible = 1.0;
  config.threads = 1;
  Pipeline pipeline(config);
  Dataset base = pipeline.run(world, streams);
  auto entries_serial = base.entries;
  auto entries_pooled = base.entries;

  const auto serial = aggregate_entries(entries_serial, config.analysis,
                                        geo::Granularity::kCountry, true);
  util::ThreadPool pool(8);
  const auto pooled = aggregate_entries(entries_pooled, config.analysis,
                                        geo::Granularity::kCountry, true,
                                        &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].location, pooled[i].location);
    EXPECT_EQ(serial[i].game, pooled[i].game);
    EXPECT_EQ(serial[i].streamers, pooled[i].streamers);
    EXPECT_EQ(serial[i].distribution, pooled[i].distribution);
  }
  // The per-entry mutations (outlier flags, endpoint changes) match too.
  ASSERT_EQ(entries_serial.size(), entries_pooled.size());
  for (std::size_t i = 0; i < entries_serial.size(); ++i) {
    EXPECT_EQ(entries_serial[i].location_outlier,
              entries_pooled[i].location_outlier);
    EXPECT_EQ(entries_serial[i].possible_location_change,
              entries_pooled[i].possible_location_change);
    EXPECT_EQ(entries_serial[i].endpoint_changes.size(),
              entries_pooled[i].endpoint_changes.size());
  }
}

}  // namespace determinism_tests
