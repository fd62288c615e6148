#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "image/arena.hpp"
#include "image/draw.hpp"
#include "image/image.hpp"
#include "image/ops.hpp"
#include "ocr/engine.hpp"
#include "ocr/extractor.hpp"
#include "ocr/game_ui.hpp"
#include "ocr/preprocess.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tero {
namespace {

namespace simd = util::simd;

/// Restores the dispatch switch after each test so ordering cannot leak.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_enabled(saved_); }

 private:
  const bool saved_ = simd::enabled();
};

/// Sizes that exercise empty input, sub-lane tails, exact lane multiples,
/// and the one-past-a-lane cases for 16-wide u8 and 4-wide f32 kernels.
const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,   5,   15,  16,
                                         17, 31, 32, 33, 63,  64,  65,  100,
                                         127, 128, 129, 255, 256, 1000};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_int_distribution<int> dist(0, 255);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(dist(gen));
  return out;
}

std::vector<std::uint8_t> random_binary(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::bernoulli_distribution dist(0.4);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = dist(gen) ? 255 : 0;
  return out;
}

std::vector<float> random_floats(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> out(n);
  for (auto& f : out) f = dist(gen);
  return out;
}

image::GrayImage random_image(int w, int h, std::uint32_t seed) {
  image::GrayImage img(w, h);
  const auto bytes = random_bytes(img.size(), seed);
  std::memcpy(img.data(), bytes.data(), bytes.size());
  return img;
}

image::GrayImage random_binary_image(int w, int h, std::uint32_t seed) {
  image::GrayImage img(w, h);
  const auto bytes = random_binary(img.size(), seed);
  std::memcpy(img.data(), bytes.data(), bytes.size());
  return img;
}

/// Odd widths so every row ends mid-lane; heights chosen small but > 3 so
/// the morphology vertical window sees interior rows.
const std::vector<std::pair<int, int>> kImageSizes = {
    {1, 1}, {3, 5}, {17, 9}, {31, 7}, {64, 16}, {129, 33}, {240, 45}};

// ---------------------------------------------------------------------------
// Raw kernel bit-identity. A kernel with a vector path runs vectorized and
// forced scalar and must give the same bits; a plain-loop kernel is checked
// against a reference loop written out here.
// ---------------------------------------------------------------------------

TEST_F(SimdTest, BinarizeMatchesScalarForAllThresholds) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    for (std::size_t n : kSizes) {
      const auto src = random_bytes(n, seed);
      for (int threshold : {0, 1, 42, 127, 128, 200, 254, 255}) {
        std::vector<std::uint8_t> got(n), want(n);
        simd::binarize_u8(src.data(), got.data(), n,
                          static_cast<std::uint8_t>(threshold));
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = src[i] > threshold ? 255 : 0;
        }
        ASSERT_EQ(got, want) << "n=" << n << " t=" << threshold;
      }
    }
  }
}

TEST_F(SimdTest, BinarizeInPlaceAliasesSafely) {
  const auto src = random_bytes(1000, 7);
  auto aliased = src;
  std::vector<std::uint8_t> separate(src.size());
  simd::binarize_u8(aliased.data(), aliased.data(), aliased.size(), 99);
  simd::binarize_u8(src.data(), separate.data(), src.size(), 99);
  EXPECT_EQ(aliased, separate);
}

TEST_F(SimdTest, InvertMatchesScalar) {
  for (std::uint32_t seed : {1u, 9u}) {
    for (std::size_t n : kSizes) {
      const auto src = random_bytes(n, seed);
      std::vector<std::uint8_t> got(n), want(n);
      simd::invert_u8(src.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = static_cast<std::uint8_t>(255 - src[i]);
      }
      ASSERT_EQ(got, want) << "n=" << n;
      auto aliased = src;
      simd::invert_u8(aliased.data(), aliased.data(), n);
      ASSERT_EQ(aliased, want) << "in place n=" << n;
    }
  }
}

TEST_F(SimdTest, CountEqMatchesScalar) {
  for (std::uint32_t seed : {4u, 5u}) {
    for (std::size_t n : kSizes) {
      const auto src = random_binary(n, seed);
      for (int value : {0, 128, 255}) {
        simd::set_enabled(true);
        const std::size_t fast =
            simd::count_eq_u8(src.data(), n, static_cast<std::uint8_t>(value));
        simd::set_enabled(false);
        const std::size_t slow =
            simd::count_eq_u8(src.data(), n, static_cast<std::uint8_t>(value));
        ASSERT_EQ(fast, slow) << "n=" << n << " v=" << value;
      }
    }
  }
}

TEST_F(SimdTest, FindEqMatchesScalar) {
  for (std::uint32_t seed : {6u, 7u}) {
    for (std::size_t n : kSizes) {
      auto src = random_bytes(n, seed);
      for (int value : {0, 17, 255}) {
        simd::set_enabled(true);
        const std::size_t fast =
            simd::find_eq_u8(src.data(), n, static_cast<std::uint8_t>(value));
        simd::set_enabled(false);
        const std::size_t slow =
            simd::find_eq_u8(src.data(), n, static_cast<std::uint8_t>(value));
        ASSERT_EQ(fast, slow) << "n=" << n << " v=" << value;
      }
      // Absent value: both paths must report n.
      std::vector<std::uint8_t> zeros(n, 0);
      simd::set_enabled(true);
      EXPECT_EQ(simd::find_eq_u8(zeros.data(), n, 255), n);
      // Last-position value: found even when it sits in the tail lanes.
      if (n > 0) {
        zeros[n - 1] = 255;
        EXPECT_EQ(simd::find_eq_u8(zeros.data(), n, 255), n - 1);
      }
    }
  }
}

TEST_F(SimdTest, MorphologyRowKernelsMatchScalar) {
  for (std::uint32_t seed : {8u, 11u}) {
    for (std::size_t n : kSizes) {
      const auto a = random_binary(n, seed);
      const auto b = random_binary(n, seed + 100);
      const auto c = random_binary(n, seed + 200);
      std::vector<std::uint8_t> fast(n), slow(n);
      simd::set_enabled(true);
      simd::eq255_or3_u8(a.data(), b.data(), c.data(), fast.data(), n);
      simd::set_enabled(false);
      simd::eq255_or3_u8(a.data(), b.data(), c.data(), slow.data(), n);
      ASSERT_EQ(fast, slow) << "or3 n=" << n;

      simd::set_enabled(true);
      simd::eq255_and3_u8(a.data(), b.data(), c.data(), fast.data(), n);
      simd::set_enabled(false);
      simd::eq255_and3_u8(a.data(), b.data(), c.data(), slow.data(), n);
      ASSERT_EQ(fast, slow) << "and3 n=" << n;

      simd::set_enabled(true);
      simd::neighbor_or3_u8(a.data(), fast.data(), n);
      simd::set_enabled(false);
      simd::neighbor_or3_u8(a.data(), slow.data(), n);
      ASSERT_EQ(fast, slow) << "nor3 n=" << n;

      simd::set_enabled(true);
      simd::neighbor_and3_u8(a.data(), fast.data(), n);
      simd::set_enabled(false);
      simd::neighbor_and3_u8(a.data(), slow.data(), n);
      ASSERT_EQ(fast, slow) << "nand3 n=" << n;
    }
  }
}

TEST_F(SimdTest, HistogramMatchesScalar) {
  for (std::uint32_t seed : {12u, 13u}) {
    for (std::size_t n : kSizes) {
      const auto src = random_bytes(n, seed);
      std::uint64_t got[256];
      std::uint64_t want[256] = {};
      // Poison the output: the kernel must overwrite every bin.
      std::fill_n(got, 256, ~std::uint64_t{0});
      simd::histogram_u8(src.data(), n, got);
      for (const std::uint8_t byte : src) ++want[byte];
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(got[v], want[v]) << "n=" << n << " bin=" << v;
      }
    }
  }
}

/// dot_f32's accumulation order, written out: four lane-strided partial
/// sums, combined as (l0 + l2) + (l1 + l3), then the tail in sequence.
/// dot_f32 has no vector path left to hold it to that order, and
/// `Extractor.ReadingsArePinned` depends on it.
float lane_strided_dot(const float* a, const float* b, std::size_t n) {
  float lane[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  const std::size_t n4 = n / 4 * 4;
  for (std::size_t i = 0; i < n4; ++i) lane[i % 4] += a[i] * b[i];
  float sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (std::size_t i = n4; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

TEST_F(SimdTest, FloatReductionsBitIdentical) {
  // The whole point of the lane-strided contract: the scalar path returns
  // the same BITS, not merely nearby values.
  for (std::uint32_t seed : {21u, 22u, 23u}) {
    for (std::size_t n : kSizes) {
      const auto a = random_floats(n, seed);
      const auto b = random_floats(n, seed + 1000);
      const float dot = simd::dot_f32(a.data(), b.data(), n);
      const float dot_want = lane_strided_dot(a.data(), b.data(), n);
      ASSERT_EQ(0, std::memcmp(&dot, &dot_want, sizeof(float)))
          << "dot n=" << n << " got=" << dot << " want=" << dot_want;
      simd::set_enabled(true);
      const float l2_fast = simd::l2sq_f32(a.data(), b.data(), n);
      const float l1_fast = simd::l1_f32(a.data(), b.data(), n);
      simd::set_enabled(false);
      const float l2_slow = simd::l2sq_f32(a.data(), b.data(), n);
      const float l1_slow = simd::l1_f32(a.data(), b.data(), n);
      ASSERT_EQ(0, std::memcmp(&l2_fast, &l2_slow, sizeof(float)))
          << "l2 n=" << n;
      ASSERT_EQ(0, std::memcmp(&l1_fast, &l1_slow, sizeof(float)))
          << "l1 n=" << n;
    }
  }
}

/// The sigma = 1 blur's seven taps as make_blur_kernel builds them. Their
/// products with bytes, and the sums of those, round, so a multiply and an
/// add fused into one FMA (one rounding, not two) changes some outputs.
std::vector<double> sigma1_taps() {
  const double sigma = 1.0;
  std::vector<double> taps;
  double total = 0.0;
  for (int i = -3; i <= 3; ++i) {
    taps.push_back(std::exp(-0.5 * (i * i) / (sigma * sigma)));
    total += taps.back();
  }
  for (double& t : taps) t /= total;
  return taps;
}

TEST_F(SimdTest, ConvolutionKernelsMatchScalar) {
  const std::vector<double> kernel = sigma1_taps();
  const std::size_t taps = kernel.size();
  // Random rows (seeds 31, 32) and ramps (seed 0): on a ramp the exact
  // blur of a pixel is its own value, so each add's rounding decides the
  // truncated byte.
  for (std::uint32_t seed : {31u, 32u, 0u}) {
    const auto row_bytes = [&](std::size_t n, std::uint32_t t) {
      if (seed != 0) return random_bytes(n, seed + t);
      std::vector<std::uint8_t> ramp(n);
      for (std::size_t x = 0; x < n; ++x) {
        ramp[x] = static_cast<std::uint8_t>(7 + 3 * x + 5 * t);
      }
      return ramp;
    };
    for (std::size_t n : kSizes) {
      const auto bytes = row_bytes(n + taps - 1, 0);
      std::vector<double> wide_fast(bytes.size()), wide_slow(bytes.size());
      std::vector<double> conv_fast(n), conv_slow(n);
      simd::set_enabled(true);
      simd::widen_u8_f64(bytes.data(), bytes.size(), wide_fast.data());
      simd::conv_valid_f64(wide_fast.data(), n, kernel.data(), taps,
                           conv_fast.data());
      simd::set_enabled(false);
      simd::widen_u8_f64(bytes.data(), bytes.size(), wide_slow.data());
      simd::conv_valid_f64(wide_slow.data(), n, kernel.data(), taps,
                           conv_slow.data());
      ASSERT_EQ(wide_fast, wide_slow) << "widen n=" << n;
      ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(), wide_slow.begin()))
          << "widen n=" << n;
      ASSERT_EQ(conv_fast, conv_slow) << "conv_valid n=" << n;

      std::vector<std::vector<double>> r;
      std::vector<const double*> rows;
      for (std::uint32_t t = 1; t <= taps; ++t) {
        const auto row = row_bytes(n, t);
        r.emplace_back(row.begin(), row.end());
      }
      for (const auto& row : r) rows.push_back(row.data());
      std::vector<std::uint8_t> fast(n), slow(n);
      simd::set_enabled(true);
      simd::conv_rows_f64_u8(rows.data(), n, kernel.data(), taps,
                             fast.data());
      simd::set_enabled(false);
      simd::conv_rows_f64_u8(rows.data(), n, kernel.data(), taps,
                             slow.data());
      ASSERT_EQ(fast, slow) << "conv_rows n=" << n;

      for (double fy : {0.0, 0.125, 0.375, 0.7, 1.0}) {
        simd::set_enabled(true);
        simd::lerp_rows_f64_u8(rows[0], rows[1], n, fy, fast.data());
        simd::set_enabled(false);
        simd::lerp_rows_f64_u8(rows[0], rows[1], n, fy, slow.data());
        ASSERT_EQ(fast, slow) << "lerp_rows n=" << n << " fy=" << fy;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Image-op bit-identity: the composed kernels through the public ops API.
// ---------------------------------------------------------------------------

TEST_F(SimdTest, ImageOpsBitIdenticalOnRandomImages) {
  for (std::uint32_t seed : {41u, 42u, 43u}) {
    for (const auto& [w, h] : kImageSizes) {
      const image::GrayImage gray = random_image(w, h, seed);
      const image::GrayImage binary = random_binary_image(w, h, seed + 500);

      simd::set_enabled(true);
      const auto blur_fast = image::gaussian_blur(gray, 1.0);
      const auto otsu_fast = image::otsu_threshold(gray);
      const auto bin_fast = image::binarize(gray, 127);
      const auto dil_fast = image::dilate3x3(binary);
      const auto ero_fast = image::erode3x3(binary);
      image::GrayImage inv_fast = binary;
      image::invert_inplace(inv_fast);
      const auto fg_fast = image::foreground_ratio(binary);
      const auto up_fast = image::upscale_bilinear(gray, 3);
      const auto cc_fast = image::connected_components(binary, 2);

      simd::set_enabled(false);
      const auto blur_slow = image::gaussian_blur(gray, 1.0);
      const auto otsu_slow = image::otsu_threshold(gray);
      const auto bin_slow = image::binarize(gray, 127);
      const auto dil_slow = image::dilate3x3(binary);
      const auto ero_slow = image::erode3x3(binary);
      image::GrayImage inv_slow = binary;
      image::invert_inplace(inv_slow);
      const auto fg_slow = image::foreground_ratio(binary);
      const auto up_slow = image::upscale_bilinear(gray, 3);
      const auto cc_slow = image::connected_components(binary, 2);

      ASSERT_TRUE(blur_fast == blur_slow) << w << "x" << h;
      ASSERT_EQ(otsu_fast, otsu_slow) << w << "x" << h;
      ASSERT_TRUE(bin_fast == bin_slow) << w << "x" << h;
      ASSERT_TRUE(dil_fast == dil_slow) << w << "x" << h;
      ASSERT_TRUE(ero_fast == ero_slow) << w << "x" << h;
      ASSERT_TRUE(inv_fast == inv_slow) << w << "x" << h;
      ASSERT_EQ(fg_fast, fg_slow) << w << "x" << h;
      ASSERT_TRUE(up_fast == up_slow) << w << "x" << h;
      ASSERT_EQ(cc_fast.size(), cc_slow.size()) << w << "x" << h;
      for (std::size_t i = 0; i < cc_fast.size(); ++i) {
        ASSERT_EQ(cc_fast[i].area, cc_slow[i].area);
        ASSERT_EQ(cc_fast[i].bounds.x, cc_slow[i].bounds.x);
        ASSERT_EQ(cc_fast[i].bounds.y, cc_slow[i].bounds.y);
        ASSERT_EQ(cc_fast[i].bounds.w, cc_slow[i].bounds.w);
        ASSERT_EQ(cc_fast[i].bounds.h, cc_slow[i].bounds.h);
      }
    }
  }
}

TEST_F(SimdTest, ArenaOverloadsMatchHeapOverloads) {
  image::Arena arena;
  for (std::uint32_t seed : {51u, 52u}) {
    for (const auto& [w, h] : kImageSizes) {
      image::Arena::Frame frame(arena);
      const image::GrayImage gray = random_image(w, h, seed);
      const image::GrayImage binary = random_binary_image(w, h, seed + 500);
      EXPECT_TRUE(image::gaussian_blur(gray, 1.2) ==
                  image::gaussian_blur(gray, 1.2, arena));
      EXPECT_TRUE(image::dilate3x3(binary) == image::dilate3x3(binary, arena));
      EXPECT_TRUE(image::erode3x3(binary) == image::erode3x3(binary, arena));
      EXPECT_TRUE(image::upscale_bilinear(gray, 4) ==
                  image::upscale_bilinear(gray, 4, arena));
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: preprocessing and extraction must not depend on the dispatch.
// ---------------------------------------------------------------------------

image::GrayImage render_thumbnail(const ocr::GameUiSpec& spec, int latency,
                                  util::Rng& rng) {
  image::GrayImage thumb(ocr::kThumbnailWidth, ocr::kThumbnailHeight, 40);
  image::TextStyle style;
  style.scale = spec.text_scale;
  style.foreground = 230;
  style.background = 25;
  thumb.fill_rect(spec.latency_region, 25);
  const std::string text = spec.prefix + std::to_string(latency) + spec.suffix;
  image::draw_text(thumb, spec.latency_region.x + 2,
                   spec.latency_region.y + 3, text, style);
  image::add_noise(thumb, 5.0, rng);
  return thumb;
}

TEST_F(SimdTest, PreprocessBitIdentical) {
  util::Rng rng(77);
  const auto& spec = ocr::all_ui_specs().front();
  for (int latency : {9, 48, 150}) {
    const auto thumb = render_thumbnail(spec, latency, rng);
    const auto crop = thumb.crop(spec.latency_region);
    simd::set_enabled(true);
    const auto full_fast = ocr::preprocess(crop, {});
    const auto min_fast = ocr::preprocess_minimal(crop);
    simd::set_enabled(false);
    const auto full_slow = ocr::preprocess(crop, {});
    const auto min_slow = ocr::preprocess_minimal(crop);
    EXPECT_TRUE(full_fast == full_slow) << "latency " << latency;
    EXPECT_TRUE(min_fast == min_slow) << "latency " << latency;
  }
}

TEST_F(SimdTest, ExtractionBitIdenticalAcrossDispatch) {
  util::Rng rng(99);
  const ocr::LatencyExtractor extractor;
  for (const auto& spec : ocr::all_ui_specs()) {
    for (int latency : {7, 63, 248}) {
      const auto thumb = render_thumbnail(spec, latency, rng);
      simd::set_enabled(true);
      const auto fast = extractor.extract(thumb, spec);
      simd::set_enabled(false);
      const auto slow = extractor.extract(thumb, spec);
      EXPECT_EQ(fast.primary, slow.primary) << spec.game << " " << latency;
      EXPECT_EQ(fast.alternative, slow.alternative) << spec.game;
      EXPECT_EQ(fast.ambiguous, slow.ambiguous) << spec.game;
      EXPECT_EQ(fast.reprocessed, slow.reprocessed) << spec.game;
    }
  }
}

// ---------------------------------------------------------------------------
// Arena semantics.
// ---------------------------------------------------------------------------

TEST(ArenaTest, AllocationsAreAligned) {
  image::Arena arena(1024);
  for (std::size_t bytes : {1u, 3u, 17u, 1000u, 5000u}) {
    const auto* p = arena.allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % image::Arena::kAlignment,
              0u)
        << bytes;
  }
}

TEST(ArenaTest, FrameRewindReusesMemory) {
  image::Arena arena(4096);
  std::uint8_t* first = nullptr;
  {
    image::Arena::Frame frame(arena);
    first = arena.allocate(100);
    (void)arena.allocate(200);
  }
  const std::size_t used_after_frame = arena.used();
  std::uint8_t* again = nullptr;
  {
    image::Arena::Frame frame(arena);
    again = arena.allocate(100);
  }
  // Same bump position — the frame released everything it allocated and the
  // block was retained, so the next frame reuses the identical bytes.
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.used(), used_after_frame);
}

TEST(ArenaTest, GrowsAcrossBlocksAndRewinds) {
  image::Arena arena(256);
  const std::size_t base_used = arena.used();
  {
    image::Arena::Frame frame(arena);
    for (int i = 0; i < 50; ++i) (void)arena.allocate(100);
    EXPECT_GT(arena.block_count(), 1u);
    EXPECT_GE(arena.used(), 50u * 100u);
  }
  EXPECT_EQ(arena.used(), base_used);
  EXPECT_GE(arena.high_water(), 50u * 100u);
  // Oversized request: still served (dedicated block), still aligned.
  const auto* big = arena.allocate(10 * 1024);
  EXPECT_NE(big, nullptr);
}

TEST(ArenaTest, NestedFramesUnwindInOrder) {
  image::Arena arena(4096);
  image::Arena::Frame outer(arena);
  (void)arena.allocate(64);
  const std::size_t outer_used = arena.used();
  {
    image::Arena::Frame inner(arena);
    (void)arena.allocate(512);
    EXPECT_GT(arena.used(), outer_used);
  }
  EXPECT_EQ(arena.used(), outer_used);
}

TEST(ArenaTest, ArenaImageCopiesDetachToHeap) {
  image::Arena arena;
  image::GrayImage escaped;
  {
    image::Arena::Frame frame(arena);
    image::GrayImage scratch(arena, 24, 10, 7);
    scratch.set(3, 4, 200);
    escaped = scratch;  // copy assignment must deep-copy off the arena
  }
  // Frame rewound; a second frame scribbles over the same arena bytes.
  {
    image::Arena::Frame frame(arena);
    image::GrayImage scribble(arena, 24, 10, 255);
    (void)scribble;
  }
  EXPECT_EQ(escaped.at(3, 4), 200);
  EXPECT_EQ(escaped.at(0, 0), 7);
}

TEST(ArenaTest, ThreadLocalArenaIsStable) {
  image::Arena& a = image::Arena::thread_local_arena();
  image::Arena& b = image::Arena::thread_local_arena();
  EXPECT_EQ(&a, &b);
}

TEST(GrayImageTest, RowAccessorMatchesAt) {
  const image::GrayImage img = random_image(33, 9, 71);
  for (int y = 0; y < img.height(); ++y) {
    const std::uint8_t* r = img.row(y);
    for (int x = 0; x < img.width(); ++x) {
      ASSERT_EQ(r[x], img.at(x, y)) << x << "," << y;
    }
  }
}

}  // namespace
}  // namespace tero
