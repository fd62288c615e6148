#include <gtest/gtest.h>

#include <exception>
#include <string_view>
#include <thread>
#include <vector>

#include "image/arena.hpp"
#include "image/draw.hpp"
#include "ocr/engine.hpp"
#include "ocr/extractor.hpp"
#include "ocr/game_ui.hpp"
#include "image/ops.hpp"
#include "ocr/preprocess.hpp"
#include "synth/thumbnail.hpp"
#include "util/rng.hpp"

namespace tero::ocr {
namespace {

image::GrayImage render_clean(const GameUiSpec& spec, int latency,
                              util::Rng& rng, int foreground = 230) {
  image::GrayImage thumb(kThumbnailWidth, kThumbnailHeight, 40);
  image::TextStyle style;
  style.scale = spec.text_scale;
  style.foreground = static_cast<std::uint8_t>(foreground);
  style.background = 25;
  thumb.fill_rect(spec.latency_region, 25);
  const std::string text =
      spec.prefix + std::to_string(latency) + spec.suffix;
  image::draw_text(thumb, spec.latency_region.x + 2,
                   spec.latency_region.y + 3, text, style);
  image::add_noise(thumb, 5.0, rng);
  return thumb;
}

TEST(Engines, ThreeDistinctEngines) {
  const auto engines = make_builtin_engines();
  ASSERT_EQ(engines.size(), 3u);
  EXPECT_NE(engines[0]->name(), engines[1]->name());
  EXPECT_NE(engines[1]->name(), engines[2]->name());
}

TEST(Engines, RecognizeCleanDigitsOnBinaryInput) {
  // Render "47" large and clean, preprocess, and expect every engine to see
  // the digits.
  image::GrayImage img(80, 30, 10);
  image::TextStyle style;
  style.scale = 3;
  style.foreground = 255;
  style.background = 10;
  image::draw_text(img, 4, 4, "47", style);
  const auto binary = preprocess(img, PreprocessConfig{});
  for (const auto& engine : make_builtin_engines()) {
    const OcrOutput out = engine->recognize(binary);
    EXPECT_NE(out.text.find('4'), std::string::npos) << engine->name();
    EXPECT_NE(out.text.find('7'), std::string::npos) << engine->name();
  }
}

TEST(Preprocess, PolarityNormalized) {
  // Dark text on light panel: after preprocessing, ink must be minority
  // foreground either way.
  image::GrayImage img(60, 24, 220);
  image::TextStyle style;
  style.scale = 2;
  style.foreground = 20;
  style.background = 220;
  image::draw_text(img, 2, 2, "88", style);
  const auto binary = preprocess(img, PreprocessConfig{});
  EXPECT_LT(image::foreground_ratio(binary), 0.5);
}

TEST(GameUi, AllNineGamesHaveSpecs) {
  EXPECT_EQ(all_ui_specs().size(), 9u);
  const auto& lol = ui_spec_for("League of Legends");
  EXPECT_EQ(lol.game, "League of Legends");
  // Latency is never displayed mid-screen (§1): regions hug an edge.
  for (const auto& spec : all_ui_specs()) {
    const bool near_edge =
        spec.latency_region.x < 40 ||
        spec.latency_region.x + spec.latency_region.w > kThumbnailWidth - 40 ||
        spec.latency_region.y < 40 ||
        spec.latency_region.y + spec.latency_region.h > kThumbnailHeight - 40;
    EXPECT_TRUE(near_edge) << spec.game;
  }
}

TEST(GameUi, UnknownGameGetsGenericSpec) {
  EXPECT_EQ(ui_spec_for("No Such Game").game, "generic");
}

TEST(Cleanup, StripsLabelsAndParses) {
  const GameUiSpec& spec = ui_spec_for("League of Legends");  // "ping N ms"
  OcrOutput out;
  out.text = "ping45ms";
  EXPECT_EQ(LatencyExtractor::cleanup(out, spec), 45);
}

TEST(Cleanup, RepairsConfusablesAdjacentToDigits) {
  const GameUiSpec& spec = ui_spec_for("Teamfight Tactics");  // suffix "ms"
  OcrOutput out;
  out.text = "4Bms";  // B ~ 8
  EXPECT_EQ(LatencyExtractor::cleanup(out, spec), 48);
  out.text = "1O5ms";  // O ~ 0
  EXPECT_EQ(LatencyExtractor::cleanup(out, spec), 105);
}

TEST(Cleanup, RejectsZeroAndTooLong) {
  const GameUiSpec& spec = ui_spec_for("Teamfight Tactics");
  OcrOutput out;
  out.text = "0ms";  // placeholder while waiting for a match (App. E)
  EXPECT_FALSE(LatencyExtractor::cleanup(out, spec).has_value());
  out.text = "1234ms";  // > 3 digits
  EXPECT_FALSE(LatencyExtractor::cleanup(out, spec).has_value());
  out.text = "ms";
  EXPECT_FALSE(LatencyExtractor::cleanup(out, spec).has_value());
}

TEST(Cleanup, ClockFailureMode) {
  // The Fig. 6d failure mode: a clock where latency should be. A "9:41"
  // clock parses to a plausible-but-wrong 941... except that the 3-digit
  // rule would keep it, so data analysis must catch it downstream; a
  // "12:34" clock concatenates to 4 digits and is rejected outright.
  const GameUiSpec& spec = ui_spec_for("Teamfight Tactics");
  OcrOutput out;
  out.text = "9:41";
  const auto value = LatencyExtractor::cleanup(out, spec);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, 941);
  out.text = "12:34";
  EXPECT_FALSE(LatencyExtractor::cleanup(out, spec).has_value());
}

class ExtractorPerGame : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtractorPerGame, ReadsCleanRenders) {
  const GameUiSpec& spec = ui_spec_for(GetParam());
  LatencyExtractor extractor;
  util::Rng rng(11);
  int correct = 0;
  constexpr int kTrials = 25;
  for (int i = 0; i < kTrials; ++i) {
    const int truth = static_cast<int>(rng.uniform_int(5, 299));
    const auto thumb = render_clean(spec, truth, rng);
    const auto reading = extractor.extract(thumb, spec);
    if (reading.primary == truth) ++correct;
  }
  EXPECT_GE(correct, kTrials - 1) << spec.game;
}

INSTANTIATE_TEST_SUITE_P(
    AllGames, ExtractorPerGame,
    ::testing::Values("League of Legends", "Teamfight Tactics",
                      "Call of Duty Warzone", "Genshin Impact", "Dota 2",
                      "Among Us", "Lost Ark", "Apex Legends"));

TEST(Extractor, OcclusionCausesDigitDrop) {
  const GameUiSpec& spec = ui_spec_for("League of Legends");
  LatencyExtractor extractor;
  util::Rng rng(5);
  int drops = 0;
  int trials = 0;
  for (int i = 0; i < 30; ++i) {
    const int truth = static_cast<int>(rng.uniform_int(40, 99));
    auto thumb = render_clean(spec, truth, rng);
    // Cover the leading digit with a panel-coloured box.
    image::TextStyle style;
    style.scale = spec.text_scale;
    const int digits_x = spec.latency_region.x + 2 +
                         image::text_width(spec.prefix, style) + style.scale;
    thumb.fill_rect(image::Rect{digits_x - 2, spec.latency_region.y, 14,
                                spec.latency_region.h},
                    25);
    const auto reading = extractor.extract(thumb, spec);
    if (!reading.primary.has_value()) continue;
    ++trials;
    if (*reading.primary == truth % 10) ++drops;
  }
  EXPECT_GT(trials, 10);
  EXPECT_GT(drops, trials / 2);  // digit drop dominates (§3.2.1)
}

TEST(Extractor, LowContrastCausesMisses) {
  const GameUiSpec& spec = ui_spec_for("League of Legends");
  LatencyExtractor extractor;
  util::Rng rng(6);
  int misses = 0;
  for (int i = 0; i < 20; ++i) {
    const int truth = static_cast<int>(rng.uniform_int(20, 200));
    const auto thumb = render_clean(spec, truth, rng, /*foreground=*/40);
    if (!extractor.extract(thumb, spec).primary.has_value()) ++misses;
  }
  EXPECT_GT(misses, 12);  // Fig. 6b: the dominant miss cause
}

TEST(Extractor, SingleEngineAccessibleForTable4) {
  const GameUiSpec& spec = ui_spec_for("League of Legends");
  LatencyExtractor extractor;
  util::Rng rng(8);
  const auto thumb = render_clean(spec, 57, rng);
  int hits = 0;
  for (std::size_t e = 0; e < extractor.engines().size(); ++e) {
    if (extractor.extract_with_engine(thumb, spec, e) == 57) ++hits;
  }
  EXPECT_GE(hits, 2);  // at least two engines read a clean render
}

// Every reading field, for seeded renders over all games and corruption
// modes, hashed and pinned: segmentation, the engines, the vote and the
// reprocess path must keep reading thumbnails exactly as before.
TEST(Extractor, ReadingsArePinned) {
  const synth::ThumbnailRenderer renderer;
  const LatencyExtractor extractor;
  const auto specs = all_ui_specs();
  const synth::Corruption corruptions[] = {
      synth::Corruption::kNone,        synth::Corruption::kOcclusion,
      synth::Corruption::kLowContrast, synth::Corruption::kClock,
      synth::Corruption::kHeavyNoise,  synth::Corruption::kCompression,
  };
  std::string fields;
  int reprocessed = 0;
  int ambiguous = 0;
  int alternatives = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    util::Rng rng = util::Rng::indexed(2023, i);
    const GameUiSpec& spec = specs[i % specs.size()];
    const auto corruption = corruptions[(i / specs.size()) % 6];
    const int truth = static_cast<int>(rng.uniform_int(5, 400));
    const auto rendered = renderer.render_with(spec, truth, corruption, rng);
    const LatencyReading reading = extractor.extract(rendered.image, spec);
    fields += std::to_string(reading.primary.value_or(-1)) + ',' +
              std::to_string(reading.alternative.value_or(-1)) + ',' +
              (reading.ambiguous ? '1' : '0') +
              (reading.reprocessed ? '1' : '0') + ';';
    reprocessed += reading.reprocessed ? 1 : 0;
    ambiguous += reading.ambiguous ? 1 : 0;
    alternatives += reading.alternative.has_value() ? 1 : 0;
  }
  EXPECT_GT(reprocessed, 0);
  EXPECT_GT(ambiguous, 0);
  EXPECT_GT(alternatives, 0);
  EXPECT_EQ(util::fnv1a64(fields), 0x7aa18a38bddab496ULL);
}

// What extraction takes from a fresh thread's arena, per game, over one
// render of each corruption mode: the bytes of the blocks it reserves, and
// its high-water mark. Both are pinned at the code whose arena overloads of
// upscale_bilinear and gaussian_blur kept their scratch until the
// extraction's frame ended. They release it as they return, so neither
// figure may rise above its pin.
TEST(Extractor, ArenaFootprintIsPinned) {
  struct Footprint {
    std::string_view game;
    std::size_t reserved;
    std::size_t high_water;
  };
  const Footprint pinned[] = {
      {"League of Legends", 262144, 186272},
      {"Teamfight Tactics", 262144, 210880},
      {"Call of Duty Warzone", 524288, 279408},
      {"Call of Duty Modern Warfare", 524288, 279408},
      {"Genshin Impact", 262144, 202432},
      {"Dota 2", 262144, 202432},
      {"Among Us", 262144, 202432},
      {"Lost Ark", 262144, 202432},
      {"Apex Legends", 262144, 202432},
  };
  const synth::ThumbnailRenderer renderer;
  const LatencyExtractor extractor;
  const synth::Corruption corruptions[] = {
      synth::Corruption::kNone,        synth::Corruption::kOcclusion,
      synth::Corruption::kLowContrast, synth::Corruption::kClock,
      synth::Corruption::kHeavyNoise,  synth::Corruption::kCompression,
  };
  for (const GameUiSpec& spec : all_ui_specs()) {
    util::Rng rng(404);
    std::vector<image::GrayImage> thumbnails;
    for (const synth::Corruption corruption : corruptions) {
      thumbnails.push_back(
          renderer.render_with(spec, 87, corruption, rng).image);
    }
    std::size_t reserved = 0;
    std::size_t high_water = 0;
    std::exception_ptr error;
    std::thread([&] {
      try {
        for (const image::GrayImage& thumbnail : thumbnails) {
          (void)extractor.extract(thumbnail, spec);
        }
        const image::Arena& arena = image::Arena::thread_local_arena();
        reserved = arena.reserved();
        high_water = arena.high_water();
      } catch (...) {
        error = std::current_exception();
      }
    }).join();
    if (error) std::rethrow_exception(error);
    const Footprint* expected = nullptr;
    for (const Footprint& footprint : pinned) {
      if (footprint.game == spec.game) expected = &footprint;
    }
    ASSERT_NE(expected, nullptr) << spec.game << " " << reserved << " "
                                 << high_water;
    EXPECT_LE(reserved, expected->reserved) << spec.game;
    EXPECT_LE(high_water, expected->high_water) << spec.game;
  }
}

TEST(Extractor, EmptyPanelYieldsMiss) {
  const GameUiSpec& spec = ui_spec_for("League of Legends");
  LatencyExtractor extractor;
  image::GrayImage thumb(kThumbnailWidth, kThumbnailHeight, 40);
  const auto reading = extractor.extract(thumb, spec);
  EXPECT_FALSE(reading.primary.has_value());
}

}  // namespace
}  // namespace tero::ocr

namespace corruption_tests {
using namespace tero;
using namespace tero::ocr;

// The synthetic corruption modes must map onto the paper's error taxonomy:
// occlusion -> digit drop, low contrast -> miss, clock -> discard,
// compression -> vote rejection. Parameterized over the corruption enum.
class CorruptionBehaviour
    : public ::testing::TestWithParam<tero::synth::Corruption> {};

TEST_P(CorruptionBehaviour, MatchesTaxonomy) {
  const auto corruption = GetParam();
  const tero::synth::ThumbnailRenderer renderer;
  const LatencyExtractor extractor;
  util::Rng rng(123);
  const auto& spec = ui_spec_for("League of Legends");
  int correct = 0;
  int miss = 0;
  int drop = 0;
  int wrong_other = 0;
  constexpr int kTrials = 60;
  for (int i = 0; i < kTrials; ++i) {
    const int truth = static_cast<int>(rng.uniform_int(100, 299));
    const auto thumb = renderer.render_with(spec, truth, corruption, rng);
    const auto reading = extractor.extract(thumb.image, spec);
    if (!reading.primary.has_value()) {
      ++miss;
    } else if (*reading.primary == truth) {
      ++correct;
    } else if (*reading.primary == truth % 100 ||
               *reading.primary == truth % 10) {
      ++drop;
    } else {
      ++wrong_other;
    }
  }
  switch (corruption) {
    case tero::synth::Corruption::kNone:
      EXPECT_GE(correct, kTrials - 2);
      break;
    case tero::synth::Corruption::kOcclusion:
      EXPECT_GE(drop, kTrials / 2);  // the digit-drop factory
      break;
    case tero::synth::Corruption::kLowContrast:
      EXPECT_GE(miss + correct, kTrials * 2 / 3);  // mostly misses/survives
      EXPECT_GE(miss, kTrials / 10);
      break;
    case tero::synth::Corruption::kClock:
      EXPECT_EQ(correct, 0);  // never reads the truth off a clock
      break;
    case tero::synth::Corruption::kHeavyNoise:
      EXPECT_GE(correct + miss, kTrials * 3 / 4);
      break;
    case tero::synth::Corruption::kCompression:
      EXPECT_GE(miss, kTrials / 4);  // disagreement -> vote rejection
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CorruptionBehaviour,
    ::testing::Values(tero::synth::Corruption::kNone,
                      tero::synth::Corruption::kOcclusion,
                      tero::synth::Corruption::kLowContrast,
                      tero::synth::Corruption::kClock,
                      tero::synth::Corruption::kHeavyNoise,
                      tero::synth::Corruption::kCompression));

}  // namespace corruption_tests
