#pragma once

#include <string>

#include "image/image.hpp"
#include "ocr/game_ui.hpp"
#include "util/rng.hpp"

namespace tero::synth {

/// Why a rendered thumbnail's latency may be hard or impossible to read —
/// the paper's observed corruption modes (§3.2, §4.2.2, Fig. 6).
enum class Corruption {
  kNone,
  kOcclusion,    ///< a menu/pointer hides leading digit(s) -> digit drop
  kLowContrast,  ///< font colour too close to the background -> miss
  kClock,        ///< streamer replaced the latency with a clock (Fig. 6d)
  kHeavyNoise,   ///< encoder artefacts
  kCompression,  ///< low-bitrate encode: blur that merges/erodes glyphs, the
                 ///  paper's "75 dpi" degradation that breaks OCR (§3.2)
};

struct ThumbnailConfig {
  /// Probability that the thumbnail contains a visible latency measurement
  /// at all (the paper measures 34.97%; menus, loading screens and scene
  /// changes hide it the rest of the time).
  double p_latency_visible = 0.35;
  // Conditional corruption mix for thumbnails *with* a visible measurement.
  double p_occlusion = 0.015;
  double p_low_contrast = 0.15;
  double p_clock = 0.003;
  double p_heavy_noise = 0.05;
  double p_compression = 0.34;
  double base_noise_sd = 6.0;
  double heavy_noise_sd = 32.0;
  double compression_blur_min = 0.70;
  double compression_blur_max = 1.00;
  /// Apply the compression blur and the sensor noise to the whole frame.
  /// By default they finish only the game's latency region, the one part
  /// extraction reads: its pixels and every later draw are the same either
  /// way. Set this to look at the frame (examples/ocr_inspect).
  bool full_frame = false;
};

/// Draw one corruption mode from the config's conditional mix.
[[nodiscard]] Corruption roll_corruption(const ThumbnailConfig& config,
                                         util::Rng& rng);

struct RenderedThumbnail {
  image::GrayImage image;
  Corruption corruption = Corruption::kNone;
  bool latency_visible = false;  ///< ground truth: a measurement is on screen
};

/// Rasterizes synthetic gaming footage: a busy "scene", the game's UI panel,
/// and the latency text per the game's GameUiSpec — then applies the
/// corruption mix. This is the stand-in for real Twitch thumbnails; the
/// image-processing module consumes it through the identical code path.
/// Unless ThumbnailConfig::full_frame is set, blur and noise are applied to
/// the latency region only, and the rest of the frame is left unfinished.
class ThumbnailRenderer {
 public:
  explicit ThumbnailRenderer(ThumbnailConfig config = {})
      : config_(config) {}

  [[nodiscard]] RenderedThumbnail render(const ocr::GameUiSpec& spec,
                                         int latency_ms,
                                         util::Rng& rng) const;

  /// Render with a forced corruption mode (tests / calibration).
  [[nodiscard]] RenderedThumbnail render_with(const ocr::GameUiSpec& spec,
                                              int latency_ms,
                                              Corruption corruption,
                                              util::Rng& rng) const;

  [[nodiscard]] const ThumbnailConfig& config() const noexcept {
    return config_;
  }

 private:
  ThumbnailConfig config_;
};

}  // namespace tero::synth
