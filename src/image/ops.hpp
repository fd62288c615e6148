#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "image/arena.hpp"
#include "image/image.hpp"

namespace tero::image {

/// Bilinear up-scaling by an integer factor — step (b) of the paper's
/// pre-processing (App. E): games render latency at ~75 dpi, so OCR operates
/// on an up-scaled copy.
[[nodiscard]] GrayImage upscale_bilinear(const GrayImage& img, int factor);
/// Arena-backed variant (result valid until the enclosing Frame ends).
[[nodiscard]] GrayImage upscale_bilinear(const GrayImage& img, int factor,
                                         Arena& arena);

/// Separable Gaussian blur; sigma <= 0 returns the input unchanged.
[[nodiscard]] GrayImage gaussian_blur(const GrayImage& img, double sigma);
[[nodiscard]] GrayImage gaussian_blur(const GrayImage& img, double sigma,
                                      Arena& arena);
/// Blur only the pixels inside `region`, in place: each gets the value the
/// whole-image gaussian_blur gives it, and pixels outside keep theirs. The
/// work covers the region plus a one-kernel-radius margin, not the image.
void gaussian_blur_inplace(GrayImage& img, double sigma, const Rect& region);

/// Otsu's global threshold [40]: the gray level that maximizes between-class
/// variance of the histogram.
[[nodiscard]] std::uint8_t otsu_threshold(const GrayImage& img);

/// Binarize: pixels strictly above `threshold` become 255, others 0.
[[nodiscard]] GrayImage binarize(const GrayImage& img, std::uint8_t threshold);
/// In-place binarize (the preprocessing chain re-uses its arena buffer).
void binarize_inplace(GrayImage& img, std::uint8_t threshold) noexcept;

/// 3x3 morphological dilation / erosion on a binary image (255 = foreground).
[[nodiscard]] GrayImage dilate3x3(const GrayImage& img);
[[nodiscard]] GrayImage dilate3x3(const GrayImage& img, Arena& arena);
[[nodiscard]] GrayImage erode3x3(const GrayImage& img);
[[nodiscard]] GrayImage erode3x3(const GrayImage& img, Arena& arena);

/// In-place 255 - v on every pixel.
void invert_inplace(GrayImage& img) noexcept;

/// Fraction of foreground (255) pixels.
[[nodiscard]] double foreground_ratio(const GrayImage& img) noexcept;

/// A connected foreground region of a binary image.
struct Component {
  Rect bounds;
  int area = 0;  ///< number of foreground pixels
};

/// 8-connected components of a binary image (255 = foreground), sorted
/// left-to-right by bounding-box x. Components smaller than `min_area`
/// pixels are dropped as noise.
[[nodiscard]] std::vector<Component> connected_components(const GrayImage& img,
                                                          int min_area = 1);

/// Resample the foreground bounding box of a binary glyph onto a `size`x
/// `size` grid of pixel densities in [0,1] — the normalized form the OCR
/// engines classify. Writes into caller-owned storage (out.size() >=
/// size*size) so the per-glyph engine loops allocate nothing.
void normalize_glyph(const GrayImage& img, const Rect& bounds, int size,
                     std::span<float> out) noexcept;

}  // namespace tero::image
