#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "synth/latency_model.hpp"
#include "synth/sessions.hpp"
#include "synth/text_gen.hpp"
#include "synth/thumbnail.hpp"
#include "synth/world.hpp"

namespace tero::synth {
namespace {

TEST(LatencyModel, GrowsWithDistance) {
  const LatencyModel model;
  const auto& catalog = geo::GameCatalog::builtin();
  const geo::Game* lol = catalog.find("League of Legends");
  ASSERT_NE(lol, nullptr);
  const auto illinois = model.expected_rtt_ms(
      *lol, geo::Location{"", "Illinois", "United States"});
  const auto hawaii = model.expected_rtt_ms(
      *lol, geo::Location{"", "Hawaii", "United States"});
  ASSERT_TRUE(illinois.has_value());
  ASSERT_TRUE(hawaii.has_value());
  EXPECT_LT(*illinois, 20.0);   // paper Fig. 9a: Illinois is US-best
  EXPECT_GT(*hawaii, 100.0);    // Hawaii ~6,800 km from Chicago
}

TEST(LatencyModel, UnknownServersYieldNullopt) {
  const LatencyModel model;
  const auto& catalog = geo::GameCatalog::builtin();
  const geo::Game* apex = catalog.find("Apex Legends");
  ASSERT_NE(apex, nullptr);
  EXPECT_FALSE(model.expected_rtt_ms(*apex, geo::Location{"", "", "France"})
                   .has_value());
}

TEST(LatencyModel, RegionalPenaltiesApplied) {
  const auto dc =
      regional_penalty(geo::Location{"", "District of Columbia",
                                     "United States"});
  const auto missouri =
      regional_penalty(geo::Location{"", "Missouri", "United States"});
  EXPECT_GT(dc.extra_ms, 25.0);        // the paper's worst doughnut state
  EXPECT_LT(missouri.extra_ms, 5.0);   // and one of its best
  const auto poland = regional_penalty(geo::Location{"", "", "Poland"});
  const auto swiss = regional_penalty(geo::Location{"", "", "Switzerland"});
  EXPECT_GT(poland.extra_ms, swiss.extra_ms + 15.0);
}

TEST(LatencyModel, MeasurementsPositiveAndCentered) {
  const LatencyModel model;
  util::Rng rng(1);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const int v = model.draw_measurement(40.0, RegionalPenalty{}, 2.0, rng);
    EXPECT_GE(v, 1);
    sum += v;
  }
  EXPECT_NEAR(sum / 2000.0, 44.0, 3.0);
}

TEST(TextGen, UsernamesLookReasonable) {
  util::Rng rng(2);
  std::set<std::string> names;
  for (int i = 0; i < 100; ++i) {
    const std::string name = random_username(rng);
    EXPECT_GE(name.size(), 6u);
    names.insert(name);
  }
  EXPECT_GT(names.size(), 90u);  // few collisions
}

TEST(TextGen, LocationDescriptionNamesThePlace) {
  util::Rng rng(3);
  const auto* barcelona = geo::Gazetteer::world().find_any("Barcelona");
  ASSERT_NE(barcelona, nullptr);
  for (int i = 0; i < 20; ++i) {
    const std::string text = location_description(*barcelona, rng);
    EXPECT_NE(text.find("Barcelona"), std::string::npos) << text;
  }
}

TEST(TextGen, MisleadingUsesDemonym) {
  util::Rng rng(4);
  const auto* denmark = geo::Gazetteer::world().find_any("Denmark");
  ASSERT_NE(denmark, nullptr);
  const std::string text = misleading_description(*denmark, rng);
  EXPECT_NE(text.find("Denmarkian"), std::string::npos);
}

TEST(World, PopulationSizedAndUnique) {
  WorldConfig config;
  config.num_streamers = 300;
  config.seed = 5;
  const World world(config);
  EXPECT_EQ(world.streamers().size(), 300u);
  std::set<std::string> ids;
  for (const auto& streamer : world.streamers()) {
    ids.insert(streamer.id);
    ASSERT_NE(streamer.home, nullptr);
    EXPECT_TRUE(streamer.home_location.valid());
    EXPECT_FALSE(streamer.main_game.empty());
  }
  EXPECT_EQ(ids.size(), 300u);
}

TEST(World, ProfileProbabilitiesRoughlyHonored) {
  WorldConfig config;
  config.num_streamers = 4000;
  config.seed = 6;
  const World world(config);
  std::size_t with_twitter = 0;
  std::size_t with_tag = 0;
  for (const auto& streamer : world.streamers()) {
    if (streamer.has_twitter) ++with_twitter;
    if (streamer.twitch.country_tag.has_value()) ++with_tag;
  }
  EXPECT_NEAR(static_cast<double>(with_twitter) / 4000.0,
              config.p_twitter, 0.03);
  EXPECT_NEAR(static_cast<double>(with_tag) / 4000.0, config.p_country_tag,
              0.02);
}

TEST(World, FocusLocationsPinHomes) {
  WorldConfig config;
  config.focus_locations = {geo::Location{"", "California", "United States"},
                            geo::Location{"", "", "Poland"}};
  config.streamers_per_focus = 25;
  const World world(config);
  EXPECT_EQ(world.streamers().size(), 50u);
  std::size_t california = 0;
  for (const auto& streamer : world.streamers()) {
    if (streamer.home_location.region == "California") ++california;
  }
  EXPECT_EQ(california, 25u);
}

TEST(Sessions, PointsSpacedLikeThumbnails) {
  WorldConfig config;
  config.num_streamers = 30;
  const World world(config);
  SessionGenerator generator(world, BehaviorConfig{}, 11);
  const auto streams = generator.generate();
  ASSERT_FALSE(streams.empty());
  std::size_t checked = 0;
  for (const auto& stream : streams) {
    for (std::size_t i = 1; i < stream.points.size(); ++i) {
      const double gap = stream.points[i].t - stream.points[i - 1].t;
      ASSERT_GE(gap, 299.0);
      ASSERT_LE(gap, 361.0);
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(Sessions, SpikesAndChangesOccur) {
  WorldConfig config;
  config.num_streamers = 120;
  const World world(config);
  BehaviorConfig behavior;
  behavior.days = 10;
  SessionGenerator generator(world, behavior, 12);
  const auto streams = generator.generate();
  std::size_t spikes = 0;
  std::size_t server_changes = 0;
  std::size_t game_changes = 0;
  for (const auto& stream : streams) {
    spikes += stream.spikes_total;
    server_changes += stream.server_changes;
    if (stream.ended_with_game_change) ++game_changes;
  }
  EXPECT_GT(spikes, 50u);
  EXPECT_GT(server_changes, 0u);
  EXPECT_GT(game_changes, 20u);
}

TEST(Sessions, LatencyReflectsServerDistance) {
  // A California streamer on the primary (Chicago) LoL server sits near
  // the model expectation; alt-server points differ.
  WorldConfig config;
  config.focus_locations = {geo::Location{"", "California", "United States"}};
  config.streamers_per_focus = 10;
  config.games = {"League of Legends"};
  const World world(config);
  SessionGenerator generator(world, BehaviorConfig{}, 13);
  const auto streams = generator.generate();
  std::vector<double> primary_values;
  for (const auto& stream : streams) {
    for (const auto& point : stream.points) {
      if (!point.on_alt_server && !point.in_spike) {
        primary_values.push_back(point.latency_ms);
      }
    }
  }
  ASSERT_GT(primary_values.size(), 100u);
  double sum = 0.0;
  for (double v : primary_values) sum += v;
  const double mean = sum / static_cast<double>(primary_values.size());
  EXPECT_GT(mean, 40.0);  // ~2,900 km corrected distance to Chicago
  EXPECT_LT(mean, 90.0);
}

TEST(Thumbnail, VisibleLatencyRendered) {
  const ThumbnailRenderer renderer;
  util::Rng rng(14);
  const auto& spec = ocr::ui_spec_for("League of Legends");
  const auto rendered =
      renderer.render_with(spec, 87, Corruption::kNone, rng);
  EXPECT_TRUE(rendered.latency_visible);
  EXPECT_EQ(rendered.image.width(), ocr::kThumbnailWidth);
  // The UI panel region contains bright text pixels.
  const auto crop = rendered.image.crop(spec.latency_region);
  int bright = 0;
  for (auto p : crop.pixels()) {
    if (p > 150) ++bright;
  }
  EXPECT_GT(bright, 20);
}

TEST(Thumbnail, VisibilityRateHonored) {
  ThumbnailConfig config;
  config.p_latency_visible = 0.35;
  const ThumbnailRenderer renderer(config);
  util::Rng rng(15);
  const auto& spec = ocr::ui_spec_for("League of Legends");
  int visible = 0;
  for (int i = 0; i < 1000; ++i) {
    if (renderer.render(spec, 50, rng).latency_visible) ++visible;
  }
  EXPECT_NEAR(visible / 1000.0, 0.35, 0.05);
}

TEST(Thumbnail, RegionRenderMatchesFullFrameInsideRegion) {
  ThumbnailConfig full_config;
  full_config.full_frame = true;
  const ThumbnailRenderer region_renderer;
  const ThumbnailRenderer full_renderer(full_config);
  std::vector<const ocr::GameUiSpec*> specs;
  for (const auto& spec : ocr::all_ui_specs()) specs.push_back(&spec);
  specs.push_back(&ocr::ui_spec_for("a game without a spec"));
  // Every built-in region has an even x and width, so no skip ever starts
  // or ends on a cached spare; an odd x with an even width makes both
  // happen.
  const ocr::GameUiSpec odd{"odd", {213, 7, 100, 21}, "", "ms", 2};
  specs.push_back(&odd);
  const Corruption corruptions[] = {
      Corruption::kNone,        Corruption::kOcclusion,
      Corruption::kLowContrast, Corruption::kClock,
      Corruption::kHeavyNoise,  Corruption::kCompression,
  };
  for (const ocr::GameUiSpec* spec : specs) {
    const image::Rect& region = spec->latency_region;
    for (const Corruption corruption : corruptions) {
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        util::Rng a(seed);
        util::Rng b(seed);
        const auto part = region_renderer.render_with(
            *spec, static_cast<int>(5 + 19 * seed), corruption, a);
        const auto full = full_renderer.render_with(
            *spec, static_cast<int>(5 + 19 * seed), corruption, b);
        ASSERT_TRUE(part.image.crop(region) == full.image.crop(region))
            << spec->game << " corruption " << static_cast<int>(corruption)
            << " seed " << seed;
        ASSERT_EQ(a.next_u64(), b.next_u64())
            << spec->game << " corruption " << static_cast<int>(corruption)
            << " seed " << seed;
      }
    }
  }
  // render()'s branch without a measurement on screen.
  ThumbnailConfig hidden;
  hidden.p_latency_visible = 0.0;
  ThumbnailConfig hidden_full = hidden;
  hidden_full.full_frame = true;
  const ThumbnailRenderer hidden_region_renderer(hidden);
  const ThumbnailRenderer hidden_full_renderer(hidden_full);
  for (const ocr::GameUiSpec* spec : specs) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      util::Rng a(seed);
      util::Rng b(seed);
      const auto part = hidden_region_renderer.render(*spec, 50, a);
      const auto full = hidden_full_renderer.render(*spec, 50, b);
      ASSERT_FALSE(part.latency_visible);
      ASSERT_TRUE(part.image.crop(spec->latency_region) ==
                  full.image.crop(spec->latency_region))
          << spec->game << " seed " << seed;
      ASSERT_EQ(a.next_u64(), b.next_u64()) << spec->game << " seed " << seed;
    }
  }
}

TEST(Thumbnail, CorruptionModesDistinct) {
  const ThumbnailRenderer renderer;
  util::Rng rng(16);
  const auto& spec = ocr::ui_spec_for("League of Legends");
  const auto clean = renderer.render_with(spec, 45, Corruption::kNone, rng);
  const auto low =
      renderer.render_with(spec, 45, Corruption::kLowContrast, rng);
  // Low contrast: far fewer bright pixels in the panel.
  auto bright_count = [&](const RenderedThumbnail& thumbnail) {
    const image::GrayImage crop = thumbnail.image.crop(spec.latency_region);
    int bright = 0;
    for (auto p : crop.pixels()) {
      if (p > 150) ++bright;
    }
    return bright;
  };
  EXPECT_GT(bright_count(clean), bright_count(low) + 10);
}

}  // namespace
}  // namespace tero::synth

namespace behavior_tests {
using namespace tero::synth;
using namespace tero;

TEST(Sessions, DeterministicForSameSeed) {
  WorldConfig config;
  config.num_streamers = 40;
  const World world(config);
  SessionGenerator a(world, BehaviorConfig{}, 99);
  SessionGenerator b(world, BehaviorConfig{}, 99);
  const auto sa = a.generate();
  const auto sb = b.generate();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].points.size(), sb[i].points.size());
    for (std::size_t p = 0; p < sa[i].points.size(); ++p) {
      EXPECT_EQ(sa[i].points[p].latency_ms, sb[i].points[p].latency_ms);
      EXPECT_DOUBLE_EQ(sa[i].points[p].t, sb[i].points[p].t);
    }
  }
}

TEST(Sessions, CasualSliceReducesVolume) {
  WorldConfig config;
  config.num_streamers = 200;
  const World world(config);
  BehaviorConfig all_casual;
  all_casual.p_casual = 1.0;
  BehaviorConfig no_casual;
  no_casual.p_casual = 0.0;
  std::size_t casual_points = 0;
  std::size_t regular_points = 0;
  for (const auto& s : SessionGenerator(world, all_casual, 3).generate()) {
    casual_points += s.points.size();
  }
  for (const auto& s : SessionGenerator(world, no_casual, 3).generate()) {
    regular_points += s.points.size();
  }
  EXPECT_LT(casual_points * 5, regular_points);
}

TEST(Sessions, MislabeledStreamersProduceJunk) {
  WorldConfig config;
  config.focus_locations = {geo::Location{"", "", "Netherlands"}};
  config.streamers_per_focus = 30;
  config.games = {"League of Legends"};
  const World world(config);
  BehaviorConfig behavior;
  behavior.p_mislabeled = 1.0;  // everyone reads junk sometimes
  behavior.spike_rate_per_hour = 0.0;
  behavior.shared_events_per_region_day = 0.0;
  SessionGenerator generator(world, behavior, 5);
  int junky = 0;
  int total = 0;
  for (const auto& stream : generator.generate()) {
    for (const auto& point : stream.points) {
      ++total;
      // Netherlands base is ~10 ms; junk values scatter to 1-999.
      if (point.latency_ms > 100) ++junky;
    }
  }
  ASSERT_GT(total, 100);
  EXPECT_GT(static_cast<double>(junky) / total, 0.15);
}

TEST(Sessions, AltPreferenceCreatesSecondLatencyMode) {
  WorldConfig config;
  config.focus_locations = {geo::Location{"", "", "Netherlands"}};
  config.streamers_per_focus = 40;
  config.games = {"League of Legends"};
  const World world(config);
  BehaviorConfig behavior;
  behavior.p_alt_preference = 1.0;
  behavior.spike_rate_per_hour = 0.0;
  behavior.shared_events_per_region_day = 0.0;
  SessionGenerator generator(world, behavior, 6);
  int off_primary = 0;
  int total = 0;
  for (const auto& stream : generator.generate()) {
    for (const auto& point : stream.points) {
      ++total;
      if (point.on_alt_server) ++off_primary;
    }
  }
  ASSERT_GT(total, 100);
  EXPECT_GT(static_cast<double>(off_primary) / total, 0.5);
}

TEST(Thumbnail, RollCorruptionRespectsMix) {
  ThumbnailConfig config;
  config.p_occlusion = 0.5;
  config.p_low_contrast = 0.0;
  config.p_clock = 0.0;
  config.p_heavy_noise = 0.0;
  config.p_compression = 0.5;
  util::Rng rng(9);
  int occluded = 0;
  int compressed = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto corruption = roll_corruption(config, rng);
    if (corruption == Corruption::kOcclusion) ++occluded;
    if (corruption == Corruption::kCompression) ++compressed;
  }
  EXPECT_NEAR(occluded / 2000.0, 0.5, 0.05);
  EXPECT_NEAR(compressed / 2000.0, 0.5, 0.05);
}

}  // namespace behavior_tests
