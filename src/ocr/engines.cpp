#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "image/draw.hpp"
#include "image/font.hpp"
#include "image/ops.hpp"
#include "ocr/engine.hpp"
#include "util/simd.hpp"

namespace tero::ocr {
namespace {

namespace simd = util::simd;

constexpr int kGridCells = kGlyphGrid * kGlyphGrid;

/// Render a font character to a clean binary raster and normalize it onto
/// the kGlyphGrid density grid — the shared prototype representation.
std::array<float, kGridCells> render_prototype(char character) {
  constexpr int kScale = 4;
  image::GrayImage canvas(image::kGlyphWidth * kScale + 4,
                          image::kGlyphHeight * kScale + 4, 0);
  image::TextStyle style;
  style.scale = kScale;
  style.foreground = 255;
  style.background = 0;
  image::draw_text(canvas, 2, 2, std::string(1, character), style);
  const auto components = image::connected_components(canvas, 1);
  // Merge all components (multi-part glyphs like 'i' and ':').
  image::Rect bounds{0, 0, canvas.width(), canvas.height()};
  if (!components.empty()) {
    int min_x = canvas.width(), min_y = canvas.height(), max_x = 0, max_y = 0;
    for (const auto& c : components) {
      min_x = std::min(min_x, c.bounds.x);
      min_y = std::min(min_y, c.bounds.y);
      max_x = std::max(max_x, c.bounds.x + c.bounds.w);
      max_y = std::max(max_y, c.bounds.y + c.bounds.h);
    }
    bounds = image::Rect{min_x, min_y, max_x - min_x, max_y - min_y};
  }
  std::array<float, kGridCells> grid;
  image::normalize_glyph(canvas, bounds, kGlyphGrid, grid);
  return grid;
}

/// Struct-of-arrays prototype storage: one contiguous float block holding
/// every prototype's density grid back to back (plus per-prototype squared
/// norms for the NCC denominator), instead of a vector of per-character
/// heap vectors. The match loops stream through one block sequentially —
/// cache-local and directly consumable by the SIMD reductions.
struct PrototypeBank {
  std::string chars;              ///< chars[i] labels grid block i
  std::vector<float> grids;       ///< size() == chars.size() * kGridCells
  std::vector<float> norms;       ///< dot(grid_i, grid_i), precomputed

  [[nodiscard]] const float* grid(std::size_t i) const noexcept {
    return grids.data() + i * kGridCells;
  }
  [[nodiscard]] std::size_t count() const noexcept { return chars.size(); }
};

const PrototypeBank& prototype_bank() {
  static const PrototypeBank bank = [] {
    PrototypeBank b;
    for (char c : image::font_alphabet()) {
      const auto grid = render_prototype(c);
      b.chars.push_back(c);
      b.grids.insert(b.grids.end(), grid.begin(), grid.end());
      b.norms.push_back(simd::dot_f32(grid.data(), grid.data(), kGridCells));
    }
    return b;
  }();
  return bank;
}

/// Template-matching engine ("templat", Tesseract-like): normalized
/// correlation against rendered prototypes. Strong on clean input, brittle
/// under noise/partial occlusion — it misses more than the other two, like
/// Tesseract in Table 4.
class TemplateEngine final : public OcrEngine {
 public:
  [[nodiscard]] std::string name() const override { return "templat"; }

  [[nodiscard]] OcrOutput classify(
      std::span<const Glyph> glyphs) const override {
    const PrototypeBank& bank = prototype_bank();
    OcrOutput out;
    for (const Glyph& glyph : glyphs) {
      const float* const grid = glyph.grid.data();
      // The query's squared norm is proto-invariant: hoist it out of the
      // match loop (the old per-prototype recomputation was pure waste).
      const float na = simd::dot_f32(grid, grid, kGridCells);
      char best_char = '?';
      double best_score = -1.0;
      for (std::size_t i = 0; i < bank.count(); ++i) {
        const float dot = simd::dot_f32(grid, bank.grid(i), kGridCells);
        const double denom = std::sqrt(static_cast<double>(na) *
                                       static_cast<double>(bank.norms[i]));
        const double score = denom > 0.0 ? dot / denom : 0.0;
        if (score > best_score) {
          best_score = score;
          best_char = bank.chars[i];
        }
      }
      // Strict acceptance threshold: rejects degraded glyphs outright.
      if (best_score < 0.86) continue;
      out.chars.push_back(CharMatch{best_char, best_score, glyph.box});
      out.text += best_char;
    }
    return out;
  }
};

constexpr int kZoneFeatures = 19;  ///< 16 zone densities + aspect + centroid

/// 16 zone densities + aspect + x/y ink centroid, written into a
/// caller-owned buffer (no allocation in the match loop).
void features_of(const float* grid, double aspect,
                 std::array<float, kZoneFeatures>& feats) noexcept {
  constexpr int kZones = 4;
  constexpr int kCell = kGlyphGrid / kZones;
  std::size_t out = 0;
  for (int zy = 0; zy < kZones; ++zy) {
    for (int zx = 0; zx < kZones; ++zx) {
      float ink = 0.0f;
      for (int y = zy * kCell; y < (zy + 1) * kCell; ++y) {
        for (int x = zx * kCell; x < (zx + 1) * kCell; ++x) {
          ink += grid[static_cast<std::size_t>(y) * kGlyphGrid + x];
        }
      }
      feats[out++] = ink / (kCell * kCell);
    }
  }
  float total = 0.0f, cx = 0.0f, cy = 0.0f;
  for (int y = 0; y < kGlyphGrid; ++y) {
    for (int x = 0; x < kGlyphGrid; ++x) {
      const float v = grid[static_cast<std::size_t>(y) * kGlyphGrid + x];
      total += v;
      cx += v * x;
      cy += v * y;
    }
  }
  feats[out++] = static_cast<float>(std::min(aspect, 3.0));
  feats[out++] = total > 0.0f ? cx / (total * kGlyphGrid) : 0.5f;
  feats[out] = total > 0.0f ? cy / (total * kGlyphGrid) : 0.5f;
}

/// Zoning-feature engine ("zonenet", EasyOCR-like): 4x4 ink-density zones
/// plus aspect ratio and centroid features, nearest-prototype by Euclidean
/// distance. More tolerant of degradation, with its own confusion set.
class ZoningEngine final : public OcrEngine {
 public:
  ZoningEngine() {
    const PrototypeBank& bank = prototype_bank();
    feats_.resize(bank.count() * kZoneFeatures);
    std::array<float, kZoneFeatures> feats;
    for (std::size_t i = 0; i < bank.count(); ++i) {
      features_of(bank.grid(i), 1.0, feats);
      std::copy(feats.begin(), feats.end(),
                feats_.begin() + static_cast<std::ptrdiff_t>(i * kZoneFeatures));
    }
  }

  [[nodiscard]] std::string name() const override { return "zonenet"; }

  [[nodiscard]] OcrOutput classify(
      std::span<const Glyph> glyphs) const override {
    const PrototypeBank& bank = prototype_bank();
    OcrOutput out;
    alignas(16) std::array<float, kZoneFeatures> feats;
    for (const Glyph& glyph : glyphs) {
      const image::Rect& box = glyph.box;
      const double aspect =
          box.h > 0 ? static_cast<double>(box.w) / box.h : 1.0;
      features_of(glyph.grid.data(), aspect, feats);
      char best_char = '?';
      float best_distance = std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < bank.count(); ++i) {
        const float d2 = simd::l2sq_f32(
            feats.data(), feats_.data() + i * kZoneFeatures, kZoneFeatures);
        if (d2 < best_distance) {
          best_distance = d2;
          best_char = bank.chars[i];
        }
      }
      const double confidence = std::exp(-static_cast<double>(best_distance));
      if (confidence < 0.09) continue;  // lenient acceptance
      out.chars.push_back(CharMatch{best_char, confidence, box});
      out.text += best_char;
    }
    return out;
  }

 private:
  std::vector<float> feats_;  ///< SoA: count() * kZoneFeatures, contiguous
};

constexpr int kProfileBins = 2 * kGlyphGrid;  ///< row sums then column sums

/// Row sums followed by column sums, each normalized to mean ink; written
/// into a caller-owned buffer.
void profile_of(const float* grid,
                std::array<float, kProfileBins>& prof) noexcept {
  prof.fill(0.0f);
  for (int y = 0; y < kGlyphGrid; ++y) {
    for (int x = 0; x < kGlyphGrid; ++x) {
      const float v = grid[static_cast<std::size_t>(y) * kGlyphGrid + x];
      prof[y] += v;
      prof[kGlyphGrid + x] += v;
    }
  }
  for (float& p : prof) p /= kGlyphGrid;
}

/// Projection-profile engine ("profiler", PaddleOCR-like): classifies by the
/// L1 distance between row/column ink-projection histograms. Robust to
/// salt-and-pepper noise but weak at telling apart glyphs with similar
/// silhouettes (8/B, 0/O) — a distinct confusion set again.
class ProjectionEngine final : public OcrEngine {
 public:
  ProjectionEngine() {
    const PrototypeBank& bank = prototype_bank();
    profiles_.resize(bank.count() * kProfileBins);
    std::array<float, kProfileBins> prof;
    for (std::size_t i = 0; i < bank.count(); ++i) {
      profile_of(bank.grid(i), prof);
      std::copy(prof.begin(), prof.end(),
                profiles_.begin() + static_cast<std::ptrdiff_t>(i * kProfileBins));
    }
  }

  [[nodiscard]] std::string name() const override { return "profiler"; }

  [[nodiscard]] OcrOutput classify(
      std::span<const Glyph> glyphs) const override {
    const PrototypeBank& bank = prototype_bank();
    OcrOutput out;
    alignas(16) std::array<float, kProfileBins> prof;
    for (const Glyph& glyph : glyphs) {
      profile_of(glyph.grid.data(), prof);
      char best_char = '?';
      float best_distance = std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < bank.count(); ++i) {
        const float d = simd::l1_f32(
            prof.data(), profiles_.data() + i * kProfileBins, kProfileBins);
        if (d < best_distance) {
          best_distance = d;
          best_char = bank.chars[i];
        }
      }
      const double confidence = 1.0 / (1.0 + static_cast<double>(best_distance));
      if (confidence < 0.18) continue;
      out.chars.push_back(CharMatch{best_char, confidence, glyph.box});
      out.text += best_char;
    }
    return out;
  }

 private:
  std::vector<float> profiles_;  ///< SoA: count() * kProfileBins, contiguous
};

}  // namespace

std::vector<Glyph> segment_glyphs(const image::GrayImage& binary) {
  const int min_area = std::max(4, binary.width() * binary.height() / 2000);
  std::vector<image::Rect> boxes;
  for (const auto& comp : image::connected_components(binary, min_area)) {
    bool merged = false;
    for (auto& box : boxes) {
      const int overlap = std::min(box.x + box.w, comp.bounds.x + comp.bounds.w) -
                          std::max(box.x, comp.bounds.x);
      if (overlap > std::min(box.w, comp.bounds.w) / 2) {
        const int x1 = std::min(box.x, comp.bounds.x);
        const int y1 = std::min(box.y, comp.bounds.y);
        const int x2 =
            std::max(box.x + box.w, comp.bounds.x + comp.bounds.w);
        const int y2 =
            std::max(box.y + box.h, comp.bounds.y + comp.bounds.h);
        box = image::Rect{x1, y1, x2 - x1, y2 - y1};
        merged = true;
        break;
      }
    }
    if (!merged) boxes.push_back(comp.bounds);
  }
  std::sort(boxes.begin(), boxes.end(),
            [](const image::Rect& a, const image::Rect& b) { return a.x < b.x; });
  std::vector<Glyph> glyphs(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    glyphs[i].box = boxes[i];
    image::normalize_glyph(binary, boxes[i], kGlyphGrid, glyphs[i].grid);
  }
  return glyphs;
}

std::vector<std::unique_ptr<OcrEngine>> make_builtin_engines() {
  std::vector<std::unique_ptr<OcrEngine>> engines;
  engines.push_back(std::make_unique<TemplateEngine>());
  engines.push_back(std::make_unique<ZoningEngine>());
  engines.push_back(std::make_unique<ProjectionEngine>());
  return engines;
}

}  // namespace tero::ocr
