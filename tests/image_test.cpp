#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "image/draw.hpp"
#include "image/font.hpp"
#include "image/image.hpp"
#include "image/ops.hpp"
#include "ocr/game_ui.hpp"
#include "ocr/preprocess.hpp"
#include "synth/thumbnail.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tero::image {
namespace {

/// The per-pixel 8-connected flood fill connected_components used before
/// it labelled row runs: components in the order the raster scan meets
/// their first pixel, small ones dropped, then the same std::sort by x.
std::vector<Component> flood_fill_components(const GrayImage& img,
                                             int min_area) {
  std::vector<Component> components;
  if (img.empty()) return components;
  const int w = img.width();
  const int h = img.height();
  std::vector<int> labels(static_cast<std::size_t>(w) * h, -1);
  std::vector<std::pair<int, int>> stack;
  int next_label = 0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (img.at(x, y) != 255 ||
          labels[static_cast<std::size_t>(y) * w + x] != -1) {
        continue;
      }
      Component comp;
      int min_x = x, max_x = x, min_y = y, max_y = y;
      stack.clear();
      stack.emplace_back(x, y);
      labels[static_cast<std::size_t>(y) * w + x] = next_label;
      while (!stack.empty()) {
        const auto [cx, cy] = stack.back();
        stack.pop_back();
        ++comp.area;
        min_x = std::min(min_x, cx);
        max_x = std::max(max_x, cx);
        min_y = std::min(min_y, cy);
        max_y = std::max(max_y, cy);
        for (int dy = -1; dy <= 1; ++dy) {
          const int ny = cy + dy;
          if (ny < 0 || ny >= h) continue;
          for (int dx = -1; dx <= 1; ++dx) {
            const int nx = cx + dx;
            if (nx < 0 || nx >= w) continue;
            int& label = labels[static_cast<std::size_t>(ny) * w + nx];
            if (img.at(nx, ny) == 255 && label == -1) {
              label = next_label;
              stack.emplace_back(nx, ny);
            }
          }
        }
      }
      comp.bounds = Rect{min_x, min_y, max_x - min_x + 1, max_y - min_y + 1};
      if (comp.area >= min_area) components.push_back(comp);
      ++next_label;
    }
  }
  std::sort(components.begin(), components.end(),
            [](const Component& a, const Component& b) {
              return a.bounds.x < b.bounds.x;
            });
  return components;
}

/// gaussian_blur as it was computed pixel by pixel, converting a byte to
/// double at every tap: a clamped-border horizontal pass truncated to u8,
/// then the vertical pass over it, taps in order i = -r..r.
GrayImage reference_blur(const GrayImage& img, double sigma) {
  const int r = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  std::vector<double> taps(2 * static_cast<std::size_t>(r) + 1);
  double total = 0.0;
  for (int i = -r; i <= r; ++i) {
    taps[static_cast<std::size_t>(i + r)] =
        std::exp(-0.5 * (i * i) / (sigma * sigma));
    total += taps[static_cast<std::size_t>(i + r)];
  }
  for (double& t : taps) t /= total;
  const int w = img.width();
  const int h = img.height();
  GrayImage horizontal(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double sum = 0.0;
      for (int i = -r; i <= r; ++i) {
        sum += taps[static_cast<std::size_t>(i + r)] *
               static_cast<double>(img.at(std::clamp(x + i, 0, w - 1), y));
      }
      horizontal.set(x, y,
                     static_cast<std::uint8_t>(std::clamp(sum, 0.0, 255.0)));
    }
  }
  GrayImage out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double sum = 0.0;
      for (int i = -r; i <= r; ++i) {
        sum += taps[static_cast<std::size_t>(i + r)] *
               static_cast<double>(
                   horizontal.at(x, std::clamp(y + i, 0, h - 1)));
      }
      out.set(x, y, static_cast<std::uint8_t>(std::clamp(sum, 0.0, 255.0)));
    }
  }
  return out;
}

/// upscale_bilinear as it was computed pixel by pixel.
GrayImage reference_upscale(const GrayImage& img, int factor) {
  if (factor == 1) return img;
  GrayImage out(img.width() * factor, img.height() * factor);
  for (int y = 0; y < out.height(); ++y) {
    const double sy = (y + 0.5) / factor - 0.5;
    const int y0 = std::clamp(static_cast<int>(std::floor(sy)), 0,
                              img.height() - 1);
    const int y1 = std::min(y0 + 1, img.height() - 1);
    const double fy = std::clamp(sy - y0, 0.0, 1.0);
    for (int x = 0; x < out.width(); ++x) {
      const double sx = (x + 0.5) / factor - 0.5;
      const int x0 = std::clamp(static_cast<int>(std::floor(sx)), 0,
                                img.width() - 1);
      const int x1 = std::min(x0 + 1, img.width() - 1);
      const double fx = std::clamp(sx - x0, 0.0, 1.0);
      const double top = img.at(x0, y0) * (1 - fx) + img.at(x1, y0) * fx;
      const double bottom = img.at(x0, y1) * (1 - fx) + img.at(x1, y1) * fx;
      out.set(x, y, static_cast<std::uint8_t>(
                        std::clamp(top * (1 - fy) + bottom * fy, 0.0, 255.0)));
    }
  }
  return out;
}

/// The inputs the reference tests feed each geometry. On a flat image or
/// a ramp the exact blur of a pixel is its own value, so the rounding of
/// each add decides whether it truncates to that value or one below: there
/// a changed tap order shows.
enum class Fill { kRandom, kBinary, kFlat, kRamp };

GrayImage test_image(int w, int h, Fill fill, util::Rng& rng) {
  GrayImage img(w, h);
  const auto level = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto dx = rng.uniform_int(1, 9);
  const auto dy = rng.uniform_int(1, 9);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      switch (fill) {
        case Fill::kRandom:
          img.set(x, y, static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
          break;
        case Fill::kBinary:
          img.set(x, y, rng.bernoulli(0.3) ? 255 : 0);
          break;
        case Fill::kFlat:
          img.set(x, y, level);
          break;
        case Fill::kRamp:
          img.set(x, y, static_cast<std::uint8_t>(level + dx * x + dy * y));
          break;
      }
    }
  }
  return img;
}

/// Success when the images match; otherwise names the first differing
/// pixel.
::testing::AssertionResult same_pixels(const GrayImage& got,
                                       const GrayImage& want) {
  if (got.width() != want.width() || got.height() != want.height()) {
    return ::testing::AssertionFailure()
           << "size " << got.width() << "x" << got.height() << ", want "
           << want.width() << "x" << want.height();
  }
  for (int y = 0; y < got.height(); ++y) {
    for (int x = 0; x < got.width(); ++x) {
      if (got.at(x, y) != want.at(x, y)) {
        return ::testing::AssertionFailure()
               << "pixel (" << x << ", " << y << ") is "
               << int{got.at(x, y)} << ", want " << int{want.at(x, y)};
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Puts the SIMD switch back to what it was when a test ends, however it
/// ends.
struct RestoreSimd {
  ~RestoreSimd() { util::simd::set_enabled(saved); }
  const bool saved = util::simd::enabled();
};

TEST(GrayImage, ConstructionAndFill) {
  GrayImage img(10, 5, 7);
  EXPECT_EQ(img.width(), 10);
  EXPECT_EQ(img.height(), 5);
  EXPECT_EQ(img.at(9, 4), 7);
  img.fill(200);
  EXPECT_EQ(img.at(0, 0), 200);
}

TEST(GrayImage, FillRectClipsToBounds) {
  GrayImage img(10, 10, 0);
  img.fill_rect(Rect{8, 8, 10, 10}, 255);
  EXPECT_EQ(img.at(9, 9), 255);
  EXPECT_EQ(img.at(7, 7), 0);
}

TEST(GrayImage, CropClips) {
  GrayImage img(10, 10, 0);
  img.set(5, 5, 99);
  const GrayImage crop = img.crop(Rect{5, 5, 100, 100});
  EXPECT_EQ(crop.width(), 5);
  EXPECT_EQ(crop.height(), 5);
  EXPECT_EQ(crop.at(0, 0), 99);
}

TEST(GrayImage, PgmRoundTrip) {
  GrayImage img(7, 3, 0);
  img.set(2, 1, 123);
  const GrayImage back = GrayImage::from_pgm(img.to_pgm());
  EXPECT_EQ(back, img);
}

TEST(GrayImage, FromPgmRejectsGarbage) {
  EXPECT_THROW(GrayImage::from_pgm("P6\n1 1\n255\nx"), std::invalid_argument);
  EXPECT_THROW(GrayImage::from_pgm("P5\n4 4\n255\nxy"), std::invalid_argument);
}

TEST(Rect, IntersectEmptyWhenDisjoint) {
  const Rect a{0, 0, 5, 5};
  const Rect b{10, 10, 5, 5};
  EXPECT_TRUE(a.intersect(b).empty());
  EXPECT_FALSE(a.intersect(Rect{3, 3, 5, 5}).empty());
}

TEST(Font, CoversDigitsAndLabels) {
  for (char c : std::string("0123456789")) {
    EXPECT_TRUE(find_glyph(c).has_value()) << c;
  }
  for (char c : std::string("msping")) {
    EXPECT_TRUE(find_glyph(c).has_value()) << c;
  }
  EXPECT_FALSE(find_glyph('~').has_value());
  EXPECT_GE(font_alphabet().size(), 25u);
}

TEST(Font, GlyphsAreWellFormed) {
  for (char c : font_alphabet()) {
    const auto glyph = find_glyph(c);
    ASSERT_TRUE(glyph.has_value());
    for (const auto& row : glyph->rows) {
      EXPECT_EQ(row.size(), static_cast<std::size_t>(kGlyphWidth));
      for (char pixel : row) {
        EXPECT_TRUE(pixel == '#' || pixel == '.');
      }
    }
  }
}

TEST(Draw, TextWidthScalesLinearly) {
  TextStyle style;
  style.scale = 2;
  const int w1 = text_width("12", style);
  const int w2 = text_width("1234", style);
  EXPECT_EQ(w2 - w1, w1 + style.letter_spacing * style.scale);
  EXPECT_EQ(text_height(style), kGlyphHeight * 2);
}

TEST(Draw, RendersInkAtExpectedPlace) {
  GrayImage img(60, 30, 0);
  TextStyle style;
  style.scale = 2;
  style.foreground = 255;
  style.background = 10;
  draw_text(img, 2, 2, "1", style);
  // The '1' glyph has ink in its middle column.
  int ink = 0;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (img.at(x, y) == 255) ++ink;
    }
  }
  EXPECT_GT(ink, 10);
}

TEST(Draw, NoiseChangesPixelsBounded) {
  GrayImage img(20, 20, 128);
  util::Rng rng(1);
  add_noise(img, 10.0, rng);
  bool changed = false;
  for (int y = 0; y < 20; ++y) {
    for (int x = 0; x < 20; ++x) {
      if (img.at(x, y) != 128) changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(Ops, UpscalePreservesMeanRoughly) {
  GrayImage img(8, 8, 0);
  img.fill_rect(Rect{0, 0, 4, 8}, 200);
  const GrayImage up = upscale_bilinear(img, 3);
  EXPECT_EQ(up.width(), 24);
  double mean_in = 0.0, mean_out = 0.0;
  for (auto p : img.pixels()) mean_in += p;
  for (auto p : up.pixels()) mean_out += p;
  mean_in /= img.pixels().size();
  mean_out /= up.pixels().size();
  EXPECT_NEAR(mean_in, mean_out, 5.0);
}

TEST(Ops, GaussianBlurSmoothsEdges) {
  GrayImage img(20, 20, 0);
  img.fill_rect(Rect{10, 0, 10, 20}, 255);
  const GrayImage blurred = gaussian_blur(img, 2.0);
  // The edge pixel should now be intermediate.
  EXPECT_GT(blurred.at(10, 10), 30);
  EXPECT_LT(blurred.at(10, 10), 225);
}

// Every output bit of the f64-row blur against the per-pixel formula:
// edge-only rows and columns (widths and heights below 2r + 1), the
// 8-output vector tails, and the 4x-upscaled crop sizes the extractor
// blurs, with the vector kernels on and off, through both overloads.
TEST(Ops, GaussianBlurMatchesPerPixelReference) {
  const RestoreSimd restore;
  util::Rng rng(1717);
  Arena arena;
  const int widths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17, 97,
                        384, 389, 402, 491, 600};
  const int heights[] = {1, 2, 3, 7, 8, 88};
  for (const double sigma : {0.3, 0.5, 1.0, 1.2, 2.0, 3.0}) {
    for (const int w : widths) {
      for (const int h : heights) {
        for (const Fill fill :
             {Fill::kRandom, Fill::kBinary, Fill::kFlat, Fill::kRamp}) {
          const GrayImage img = test_image(w, h, fill, rng);
          const GrayImage want = reference_blur(img, sigma);
          for (const bool simd_on : {true, false}) {
            util::simd::set_enabled(simd_on);
            const Arena::Frame frame(arena);
            ASSERT_TRUE(same_pixels(gaussian_blur(img, sigma), want))
                << "heap sigma " << sigma << " " << w << "x" << h << " fill "
                << static_cast<int>(fill) << " simd " << simd_on;
            ASSERT_TRUE(same_pixels(gaussian_blur(img, sigma, arena), want))
                << "arena sigma " << sigma << " " << w << "x" << h
                << " fill " << static_cast<int>(fill) << " simd " << simd_on;
          }
        }
      }
    }
  }
}

// The same for the separated upscale: every factor the extractor and its
// reprocess pass use and more, widths with vector tails of every length.
TEST(Ops, UpscaleMatchesPerPixelReference) {
  const RestoreSimd restore;
  util::Rng rng(1718);
  Arena arena;
  for (const int factor : {1, 2, 3, 4, 5, 7}) {
    for (const int w : {1, 2, 3, 17, 96, 150}) {
      for (const int h : {1, 2, 5, 22}) {
        for (const Fill fill :
             {Fill::kRandom, Fill::kBinary, Fill::kFlat, Fill::kRamp}) {
          const GrayImage img = test_image(w, h, fill, rng);
          const GrayImage want = reference_upscale(img, factor);
          for (const bool simd_on : {true, false}) {
            util::simd::set_enabled(simd_on);
            const Arena::Frame frame(arena);
            ASSERT_TRUE(same_pixels(upscale_bilinear(img, factor), want))
                << "heap factor " << factor << " " << w << "x" << h
                << " fill " << static_cast<int>(fill) << " simd " << simd_on;
            ASSERT_TRUE(
                same_pixels(upscale_bilinear(img, factor, arena), want))
                << "arena factor " << factor << " " << w << "x" << h
                << " fill " << static_cast<int>(fill) << " simd " << simd_on;
          }
        }
      }
    }
  }
}

TEST(Ops, OtsuSeparatesBimodal) {
  GrayImage img(20, 20, 30);
  img.fill_rect(Rect{0, 0, 10, 20}, 220);
  const std::uint8_t threshold = otsu_threshold(img);
  EXPECT_GE(threshold, 30);
  EXPECT_LT(threshold, 220);
  const GrayImage binary = binarize(img, threshold);
  EXPECT_EQ(binary.at(0, 0), 255);
  EXPECT_EQ(binary.at(15, 0), 0);
}

TEST(Ops, MorphologyDilateThenErodeClosesGaps) {
  GrayImage img(20, 5, 0);
  // Two blobs separated by a 1-px gap.
  img.fill_rect(Rect{2, 1, 4, 3}, 255);
  img.fill_rect(Rect{7, 1, 4, 3}, 255);
  const GrayImage closed = erode3x3(dilate3x3(img));
  // The gap column (x=6) should now contain foreground.
  bool bridged = false;
  for (int y = 0; y < 5; ++y) {
    if (closed.at(6, y) == 255) bridged = true;
  }
  EXPECT_TRUE(bridged);
}

TEST(Ops, InvertAndForegroundRatio) {
  GrayImage img(10, 10, 0);
  img.fill_rect(Rect{0, 0, 5, 10}, 255);
  EXPECT_NEAR(foreground_ratio(img), 0.5, 1e-9);
  GrayImage inverted = img;
  invert_inplace(inverted);
  EXPECT_EQ(inverted.at(0, 0), 0);
  EXPECT_EQ(inverted.at(9, 9), 255);
}

TEST(Ops, ConnectedComponentsFindsAndSortsBlobs) {
  GrayImage img(30, 10, 0);
  img.fill_rect(Rect{20, 2, 4, 4}, 255);
  img.fill_rect(Rect{2, 2, 3, 3}, 255);
  const auto components = connected_components(img);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].bounds.x, 2);   // sorted left to right
  EXPECT_EQ(components[1].bounds.x, 20);
  EXPECT_EQ(components[0].area, 9);
  EXPECT_EQ(components[1].area, 16);
}

TEST(Ops, ConnectedComponentsMinAreaFiltersSpecks) {
  GrayImage img(10, 10, 0);
  img.set(1, 1, 255);                      // single-pixel speck
  img.fill_rect(Rect{4, 4, 3, 3}, 255);
  EXPECT_EQ(connected_components(img, 2).size(), 1u);
}

TEST(Ops, ConnectedComponentsUses8Connectivity) {
  GrayImage img(4, 4, 0);
  img.set(0, 0, 255);
  img.set(1, 1, 255);  // diagonal neighbour
  EXPECT_EQ(connected_components(img).size(), 1u);
}

/// Same components, fields and order as the flood fill, for every min_area
/// in 1..6.
void expect_matches_flood_fill(const GrayImage& img, const char* what) {
  for (int min_area = 1; min_area <= 6; ++min_area) {
    const auto got = connected_components(img, min_area);
    const auto want = flood_fill_components(img, min_area);
    ASSERT_EQ(got.size(), want.size()) << what << " min_area " << min_area;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].area, want[i].area) << what << " component " << i;
      ASSERT_EQ(got[i].bounds.x, want[i].bounds.x) << what << " component " << i;
      ASSERT_EQ(got[i].bounds.y, want[i].bounds.y) << what << " component " << i;
      ASSERT_EQ(got[i].bounds.w, want[i].bounds.w) << what << " component " << i;
      ASSERT_EQ(got[i].bounds.h, want[i].bounds.h) << what << " component " << i;
    }
  }
}

TEST(ConnectedComponents, MatchFloodFillReference) {
  util::Rng rng(31);
  // Seeded random binaries, 1x1 up to 120x60, 0-100% ink; non-255 values
  // (1, 128, 254) are background.
  const std::pair<int, int> corners[] = {{1, 1}, {120, 60}, {1, 60}, {120, 1}};
  for (int trial = 0; trial < 400; ++trial) {
    const bool corner = trial < 4 * 11;
    const int w = corner ? corners[trial % 4].first
                         : static_cast<int>(rng.uniform_int(1, 120));
    const int h = corner ? corners[trial % 4].second
                         : static_cast<int>(rng.uniform_int(1, 60));
    const double ink = corner ? (trial / 4) / 10.0 : rng.uniform();
    const bool grey = trial % 3 == 0;
    GrayImage img(w, h, 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (rng.bernoulli(ink)) {
          img.set(x, y, 255);
        } else if (grey) {
          const std::uint8_t background[] = {0, 1, 128, 254};
          img.set(x, y, background[rng.uniform_int(0, 3)]);
        }
      }
    }
    expect_matches_flood_fill(img, "random");
  }

  // Shapes that touch only at corners: diagonals, a checkerboard, and
  // staircases that split and merge across rows.
  GrayImage diagonals(40, 30, 0);
  for (int i = 0; i < 30; ++i) {
    diagonals.set(i, i, 255);
    diagonals.set(39 - i, i, 255);
    if (i % 4 == 0) diagonals.set((i + 20) % 40, 29 - i, 255);
  }
  expect_matches_flood_fill(diagonals, "diagonals");
  GrayImage checker(33, 17, 0);
  for (int y = 0; y < 17; ++y) {
    for (int x = 0; x < 33; ++x) {
      if ((x + y) % 2 == 0) checker.set(x, y, 255);
    }
  }
  expect_matches_flood_fill(checker, "checkerboard");
  GrayImage stairs(48, 24, 0);
  for (int y = 0; y < 24; ++y) {
    stairs.fill_rect(Rect{2 * y, y, 2, 1}, 255);       // corner-joined steps
    stairs.fill_rect(Rect{47 - 2 * y, y, 1, 1}, 255);  // one-pixel gaps
    if (y % 6 == 0) stairs.fill_rect(Rect{0, y, 48, 1}, 255);
  }
  expect_matches_flood_fill(stairs, "staircases");

  // Real crops after both preprocessing chains.
  const synth::ThumbnailRenderer renderer;
  const auto specs = ocr::all_ui_specs();
  const synth::Corruption corruptions[] = {
      synth::Corruption::kNone,        synth::Corruption::kOcclusion,
      synth::Corruption::kLowContrast, synth::Corruption::kClock,
      synth::Corruption::kHeavyNoise,  synth::Corruption::kCompression,
  };
  for (std::size_t i = 0; i < 60; ++i) {
    const ocr::GameUiSpec& spec = specs[i % specs.size()];
    const auto rendered = renderer.render_with(
        spec, static_cast<int>(rng.uniform_int(5, 400)), corruptions[i % 6],
        rng);
    const GrayImage crop = rendered.image.crop(spec.latency_region);
    expect_matches_flood_fill(ocr::preprocess(crop), "preprocess");
    expect_matches_flood_fill(ocr::preprocess_minimal(crop),
                              "preprocess_minimal");
  }
}

TEST(Ops, NormalizeGlyphDensities) {
  GrayImage img(16, 16, 0);
  img.fill_rect(Rect{0, 0, 8, 16}, 255);  // left half is ink
  img.set(9, 0, 255);                      // one pixel of cell (2, 0)
  float grid[4 * 4];
  std::fill_n(grid, 4 * 4, -1.0f);  // every cell must be written
  normalize_glyph(img, Rect{0, 0, 16, 16}, 4, grid);
  for (int gy = 0; gy < 4; ++gy) {
    for (int gx = 0; gx < 4; ++gx) {
      // Each cell is a 4x4 block: 16 ink pixels, 1 or none.
      const float want = gx < 2 ? 1.0f : (gx == 2 && gy == 0 ? 0.0625f : 0.0f);
      EXPECT_EQ(grid[gy * 4 + gx], want) << "cell " << gx << "," << gy;
    }
  }
}

}  // namespace
}  // namespace tero::image
