#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "image/image.hpp"

namespace tero::ocr {

/// One recognized character with the classifier's confidence in [0, 1].
struct CharMatch {
  char character = '?';
  double confidence = 0.0;
  image::Rect bounds;
};

/// Raw output of an OCR engine over a preprocessed (binary) image.
struct OcrOutput {
  std::string text;  ///< characters left-to-right
  std::vector<CharMatch> chars;
};

/// Side of the normalized glyph grid the engines classify.
inline constexpr int kGlyphGrid = 16;

/// One segmented glyph: its box in the binary image and its ink densities
/// resampled onto a kGlyphGrid x kGlyphGrid grid (row-major).
struct Glyph {
  image::Rect box;
  std::array<float, kGlyphGrid * kGlyphGrid> grid{};
};

/// Glyph segmentation of a binary image (255 = ink on 0 background):
/// connected components, merged when their x-ranges overlap (multi-part
/// glyphs), left to right, each normalized onto the grid. The extractor runs
/// it once per preprocessed image and hands the result to every engine.
[[nodiscard]] std::vector<Glyph> segment_glyphs(const image::GrayImage& binary);

/// Interface of a character-recognition engine. The repo ships three
/// from-scratch implementations with deliberately different algorithms —
/// standing in for Tesseract, EasyOCR, and PaddleOCR — so that, as the paper
/// observes (§3.2), "they make mistakes on partially overlapping sets of
/// thumbnails" and 2-of-3 voting has signal to work with. They share the
/// segmentation and differ in how they classify a glyph.
class OcrEngine {
 public:
  virtual ~OcrEngine() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Classify segmented glyphs, left to right; glyphs below the engine's
  /// acceptance threshold are left out.
  [[nodiscard]] virtual OcrOutput classify(
      std::span<const Glyph> glyphs) const = 0;

  /// Recognize all characters in a binary image: segment, then classify.
  [[nodiscard]] OcrOutput recognize(const image::GrayImage& binary) const {
    return classify(segment_glyphs(binary));
  }
};

/// Factory for the three built-in engines, in the paper's order:
/// "templat" (Tesseract-like template matcher), "zonenet" (EasyOCR-like
/// zoning-feature classifier), "profiler" (PaddleOCR-like projection-profile
/// classifier).
[[nodiscard]] std::vector<std::unique_ptr<OcrEngine>> make_builtin_engines();

}  // namespace tero::ocr
