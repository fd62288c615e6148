#include "image/draw.hpp"

#include <algorithm>
#include <cstdint>

#include "image/font.hpp"

namespace tero::image {

int text_width(std::string_view text, const TextStyle& style) {
  if (text.empty()) return 0;
  const int per_char = (kGlyphWidth + style.letter_spacing) * style.scale;
  return static_cast<int>(text.size()) * per_char -
         style.letter_spacing * style.scale;
}

int text_height(const TextStyle& style) { return kGlyphHeight * style.scale; }

int draw_text(GrayImage& img, int x, int y, std::string_view text,
              const TextStyle& style) {
  int cursor = x;
  for (char character : text) {
    const auto glyph = find_glyph(character);
    if (glyph.has_value()) {
      for (int gy = 0; gy < kGlyphHeight; ++gy) {
        for (int gx = 0; gx < kGlyphWidth; ++gx) {
          const bool ink = glyph->rows[gy][gx] == '#';
          const std::uint8_t value = ink ? style.foreground : style.background;
          for (int sy = 0; sy < style.scale; ++sy) {
            for (int sx = 0; sx < style.scale; ++sx) {
              const int px = cursor + gx * style.scale + sx;
              const int py = y + gy * style.scale + sy;
              if (px >= 0 && px < img.width() && py >= 0 && py < img.height()) {
                img.set(px, py, value);
              }
            }
          }
        }
      }
    }
    cursor += (kGlyphWidth + style.letter_spacing) * style.scale;
  }
  return cursor;
}

void add_noise(GrayImage& img, double stddev, util::Rng& rng,
               const Rect& region) {
  if (stddev <= 0.0) return;
  const int w = img.width();
  const Rect clipped = region.intersect(Rect{0, 0, w, img.height()});
  std::uint64_t drawn = 0;  // pixels whose draw is consumed, raster order
  for (int y = clipped.y; y < clipped.y + clipped.h; ++y) {
    const std::uint64_t first = static_cast<std::uint64_t>(y) * w + clipped.x;
    rng.skip_normals(first - drawn);
    std::uint8_t* const pixels = img.row(y) + clipped.x;
    for (int x = 0; x < clipped.w; ++x) {
      const double noisy = pixels[x] + rng.normal(0.0, stddev);
      pixels[x] = static_cast<std::uint8_t>(std::clamp(noisy, 0.0, 255.0));
    }
    drawn = first + static_cast<std::uint64_t>(clipped.w);
  }
  rng.skip_normals(img.size() - drawn);
}

void add_noise(GrayImage& img, double stddev, util::Rng& rng) {
  add_noise(img, stddev, rng, Rect{0, 0, img.width(), img.height()});
}

}  // namespace tero::image
