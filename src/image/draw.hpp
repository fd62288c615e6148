#pragma once

#include <string_view>

#include "image/image.hpp"
#include "util/rng.hpp"

namespace tero::image {

/// Text rendering options for the synthetic-thumbnail generator. Games
/// display latency at ~75 dpi (§3.2), which at our 5x7 font corresponds to
/// small integer scales; `noise_stddev` models compression artifacts and
/// `foreground`/`background` model the UI contrast (a too-light font is the
/// paper's top cause of missed measurements, Fig. 6b).
struct TextStyle {
  int scale = 2;                  ///< integer pixel scale of the 5x7 font
  std::uint8_t foreground = 255;  ///< ink intensity
  std::uint8_t background = 16;   ///< panel intensity
  double noise_stddev = 0.0;      ///< additive Gaussian pixel noise
  int letter_spacing = 1;         ///< unscaled columns between glyphs
};

/// Width in pixels that `text` occupies when drawn with `style`.
[[nodiscard]] int text_width(std::string_view text, const TextStyle& style);
[[nodiscard]] int text_height(const TextStyle& style);

/// Draw `text` with its top-left corner at (x, y). Characters without a
/// glyph render as spaces. Returns the x coordinate just past the text.
int draw_text(GrayImage& img, int x, int y, std::string_view text,
              const TextStyle& style);

/// Add iid Gaussian noise (clamped to [0, 255]) to the pixels inside
/// `region`; pixels outside it keep their value. The generator advances as
/// if every pixel drew its normal in raster order, so a pixel's noise and
/// every later draw are the same whatever the region.
void add_noise(GrayImage& img, double stddev, util::Rng& rng,
               const Rect& region);
/// Noise on every pixel.
void add_noise(GrayImage& img, double stddev, util::Rng& rng);

}  // namespace tero::image
