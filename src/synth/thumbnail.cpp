#include "synth/thumbnail.hpp"

#include <algorithm>
#include <utility>

#include "image/draw.hpp"
#include "image/ops.hpp"

namespace tero::synth {
namespace {

/// A busy game scene: blocks of varying intensity, so OCR cannot rely on a
/// clean background outside the UI panel.
void draw_scene(image::GrayImage& img, util::Rng& rng) {
  img.fill(static_cast<std::uint8_t>(rng.uniform_int(30, 90)));
  const int blocks = static_cast<int>(rng.uniform_int(12, 28));
  for (int i = 0; i < blocks; ++i) {
    image::Rect rect;
    rect.x = static_cast<int>(rng.uniform_int(0, img.width() - 2));
    rect.y = static_cast<int>(rng.uniform_int(0, img.height() - 2));
    rect.w = static_cast<int>(rng.uniform_int(8, 90));
    rect.h = static_cast<int>(rng.uniform_int(8, 60));
    img.fill_rect(rect, static_cast<std::uint8_t>(rng.uniform_int(20, 200)));
  }
}

/// The pixels the blur and the noise finish.
image::Rect finish_area(const ThumbnailConfig& config,
                        const ocr::GameUiSpec& spec) {
  return config.full_frame
             ? image::Rect{0, 0, ocr::kThumbnailWidth, ocr::kThumbnailHeight}
             : spec.latency_region;
}

}  // namespace

Corruption roll_corruption(const ThumbnailConfig& config, util::Rng& rng) {
  double roll = rng.uniform();
  const std::pair<double, Corruption> mix[] = {
      {config.p_occlusion, Corruption::kOcclusion},
      {config.p_low_contrast, Corruption::kLowContrast},
      {config.p_clock, Corruption::kClock},
      {config.p_heavy_noise, Corruption::kHeavyNoise},
      {config.p_compression, Corruption::kCompression},
  };
  for (const auto& [probability, corruption] : mix) {
    if (roll < probability) return corruption;
    roll -= probability;
  }
  return Corruption::kNone;
}

RenderedThumbnail ThumbnailRenderer::render(const ocr::GameUiSpec& spec,
                                            int latency_ms,
                                            util::Rng& rng) const {
  if (!rng.bernoulli(config_.p_latency_visible)) {
    // No measurement on screen: scene only (menu, loading, cinematic).
    RenderedThumbnail out;
    out.image = image::GrayImage(ocr::kThumbnailWidth, ocr::kThumbnailHeight);
    draw_scene(out.image, rng);
    image::add_noise(out.image, config_.base_noise_sd, rng,
                     finish_area(config_, spec));
    out.latency_visible = false;
    return out;
  }
  return render_with(spec, latency_ms, roll_corruption(config_, rng), rng);
}

RenderedThumbnail ThumbnailRenderer::render_with(const ocr::GameUiSpec& spec,
                                                 int latency_ms,
                                                 Corruption corruption,
                                                 util::Rng& rng) const {
  RenderedThumbnail out;
  out.corruption = corruption;
  out.latency_visible = true;
  out.image = image::GrayImage(ocr::kThumbnailWidth, ocr::kThumbnailHeight);
  draw_scene(out.image, rng);

  // The game's UI panel.
  const auto& region = spec.latency_region;
  const std::uint8_t panel =
      static_cast<std::uint8_t>(rng.uniform_int(15, 40));
  out.image.fill_rect(region, panel);

  image::TextStyle style;
  style.scale = spec.text_scale;
  style.background = panel;
  style.foreground = corruption == Corruption::kLowContrast
                         ? static_cast<std::uint8_t>(panel +
                                                     rng.uniform_int(10, 40))
                         : static_cast<std::uint8_t>(rng.uniform_int(190, 255));

  std::string text = corruption == Corruption::kClock
                         ? std::to_string(rng.uniform_int(10, 23)) + ":" +
                               std::to_string(rng.uniform_int(10, 59))
                         : spec.prefix + std::to_string(latency_ms) +
                               spec.suffix;
  const int text_x = region.x + 2;
  const int text_y =
      region.y + (region.h - image::text_height(style)) / 2;
  image::draw_text(out.image, text_x, text_y, text, style);

  if (corruption == Corruption::kOcclusion) {
    // A drop-down menu / pointer covering the leading digit(s) (Fig. 6c):
    // the classic digit-drop error source.
    const int digits_x = text_x + image::text_width(spec.prefix, style) +
                         (spec.prefix.empty() ? 0 : style.scale);
    const int covered_digits = rng.bernoulli(0.8) ? 1 : 2;
    image::Rect occluder;
    occluder.x = digits_x - style.scale;
    occluder.y = region.y;
    occluder.w = covered_digits * 6 * style.scale + style.scale;
    occluder.h = region.h;
    out.image.fill_rect(occluder, panel);
  }

  const image::Rect finish = finish_area(config_, spec);
  if (corruption == Corruption::kCompression) {
    // Low-bitrate encode: the frame is softened, merging the tiny latency
    // glyphs — the degradation that makes out-of-the-box OCR fail.
    image::gaussian_blur_inplace(
        out.image,
        rng.uniform(config_.compression_blur_min, config_.compression_blur_max),
        finish);
  }
  const double noise_sd = corruption == Corruption::kHeavyNoise
                              ? config_.heavy_noise_sd
                              : config_.base_noise_sd;
  image::add_noise(out.image, noise_sd, rng, finish);
  return out;
}

}  // namespace tero::synth
