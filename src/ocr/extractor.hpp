#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "image/image.hpp"
#include "ocr/engine.hpp"
#include "ocr/game_ui.hpp"
#include "ocr/preprocess.hpp"

namespace tero::ocr {

/// Outcome of extracting a latency number from one thumbnail (§3.2 step 4).
struct LatencyReading {
  /// The voted latency (at least two engines agreed), if any.
  std::optional<int> primary;
  /// The dissenting third engine's value, kept as an alternative for the
  /// data-analysis module to fall back on (§3.3.2).
  std::optional<int> alternative;
  /// Engines never reached agreement even after reprocessing; the thumbnail
  /// is discarded.
  bool ambiguous = false;
  /// The reprocessing path (OCR without full pre-processing) was taken.
  bool reprocessed = false;

  [[nodiscard]] bool extracted() const noexcept { return primary.has_value(); }
};

/// The image-processing module: crops the game's latency region, runs the
/// App. E pre-processing, segments the glyphs once and has all three OCR
/// engines classify them, cleans each output with game-specific heuristics,
/// and votes.
class LatencyExtractor {
 public:
  explicit LatencyExtractor(PreprocessConfig config = {});

  /// Full Tero pipeline over one thumbnail.
  [[nodiscard]] LatencyReading extract(const image::GrayImage& thumbnail,
                                       const GameUiSpec& spec) const;

  /// Single-engine extraction (same crop/pre-processing/cleanup, no voting);
  /// used to benchmark the engines individually (Table 4).
  [[nodiscard]] std::optional<int> extract_with_engine(
      const image::GrayImage& thumbnail, const GameUiSpec& spec,
      std::size_t engine_index) const;

  [[nodiscard]] std::span<const std::unique_ptr<OcrEngine>> engines()
      const noexcept {
    return engines_;
  }

  /// Game-specific cleanup (§3.2 step 3): strip the game's label characters,
  /// repair classic digit/letter confusions (O->0, B->8, S->5, A->4, ...),
  /// and reject placeholders (0) and values longer than 3 digits.
  [[nodiscard]] static std::optional<int> cleanup(const OcrOutput& output,
                                                  const GameUiSpec& spec);

 private:
  [[nodiscard]] LatencyReading vote(
      std::span<const std::optional<int>> values) const;

  PreprocessConfig config_;
  std::vector<std::unique_ptr<OcrEngine>> engines_;
};

}  // namespace tero::ocr
