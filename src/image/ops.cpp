#include "image/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/simd.hpp"

namespace tero::image {
namespace {

namespace simd = util::simd;

template <typename T>
[[nodiscard]] T* scratch_array(Arena& arena, std::size_t n) {
  return reinterpret_cast<T*>(arena.allocate(n * sizeof(T)));
}

// ---------------------------------------------------------------------------
// upscale
// ---------------------------------------------------------------------------

/// Bilinear sampling, separated: each source row is widened to f64 once and
/// interpolated across x once (source indices and weights depend on x
/// only), into a two-row ring keyed by source row; each output row blends
/// its two ring rows. Every output pixel keeps the per-pixel formula's
/// products, add order, clamp and truncation.
void upscale_into(const GrayImage& img, int factor, GrayImage& out,
                  Arena& scratch) {
  const int in_w = img.width();
  const int out_w = out.width();
  const std::size_t n = static_cast<std::size_t>(out_w);
  int* const x0s = scratch_array<int>(scratch, n);
  int* const x1s = scratch_array<int>(scratch, n);
  double* const fxs = scratch_array<double>(scratch, n);
  double* const gxs = scratch_array<double>(scratch, n);  // 1 - fx
  for (int x = 0; x < out_w; ++x) {
    const double sx = (x + 0.5) / factor - 0.5;
    x0s[x] = std::clamp(static_cast<int>(std::floor(sx)), 0, in_w - 1);
    x1s[x] = std::min(x0s[x] + 1, in_w - 1);
    fxs[x] = std::clamp(sx - x0s[x], 0.0, 1.0);
    gxs[x] = 1 - fxs[x];
  }
  double* const src =
      scratch_array<double>(scratch, static_cast<std::size_t>(in_w));
  double* const ring = scratch_array<double>(scratch, 2 * n);
  int held[2] = {-1, -1};  // the source row in each ring slot
  const auto interpolated = [&](int sy) {
    double* const dst = ring + static_cast<std::size_t>(sy & 1) * n;
    if (held[sy & 1] != sy) {
      simd::widen_u8_f64(img.row(sy), static_cast<std::size_t>(in_w), src);
      for (int x = 0; x < out_w; ++x) {
        dst[x] = src[x0s[x]] * gxs[x] + src[x1s[x]] * fxs[x];
      }
      held[sy & 1] = sy;
    }
    return dst;
  };
  for (int y = 0; y < out.height(); ++y) {
    const double sy = (y + 0.5) / factor - 0.5;
    const int y0 = std::clamp(static_cast<int>(std::floor(sy)), 0,
                              img.height() - 1);
    const int y1 = std::min(y0 + 1, img.height() - 1);
    const double fy = std::clamp(sy - y0, 0.0, 1.0);
    const double* const top = interpolated(y0);
    const double* const bottom = interpolated(y1);
    simd::lerp_rows_f64_u8(top, bottom, n, fy, out.row(y));
  }
}

// ---------------------------------------------------------------------------
// blur
// ---------------------------------------------------------------------------

struct BlurKernel {
  std::vector<double> taps;
  int radius = 0;
};

[[nodiscard]] BlurKernel make_blur_kernel(double sigma) {
  BlurKernel k;
  k.radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  k.taps.resize(2 * static_cast<std::size_t>(k.radius) + 1);
  double total = 0.0;
  for (int i = -k.radius; i <= k.radius; ++i) {
    k.taps[static_cast<std::size_t>(i + k.radius)] =
        std::exp(-0.5 * (i * i) / (sigma * sigma));
    total += k.taps[static_cast<std::size_t>(i + k.radius)];
  }
  for (double& t : k.taps) t /= total;
  return k;
}

/// Separable blur with a clamped border, taps in order i = -r..r per pass
/// and the horizontal result truncated to u8 between passes. Each source
/// row is widened to f64 once and padded with r copies of its edge pixels,
/// which is exactly the clamped border, so the horizontal pass is one valid
/// convolution per row. Its results go to a ring of 2r + 1 f64 rows (row y
/// in slot y % (2r + 1)), all the vertical pass reads for one output row.
void blur_into(const GrayImage& img, const BlurKernel& k, GrayImage& out,
               Arena& scratch) {
  const int h = img.height();
  const int r = k.radius;
  const std::size_t n = static_cast<std::size_t>(img.width());
  const std::size_t taps = k.taps.size();
  double* const padded = scratch_array<double>(scratch, n + taps - 1);
  double* const ring = scratch_array<double>(scratch, taps * n);
  const double** const rows = scratch_array<const double*>(scratch, taps);
  const auto slot = [&](int y) {
    return ring + (static_cast<std::size_t>(y) % taps) * n;
  };
  int filled = 0;  // rows [0, filled) have been through the horizontal pass
  for (int y = 0; y < h; ++y) {
    for (; filled <= std::min(y + r, h - 1); ++filled) {
      const std::uint8_t* const src = img.row(filled);
      std::fill_n(padded, r, static_cast<double>(src[0]));
      simd::widen_u8_f64(src, n, padded + r);
      std::fill_n(padded + r + n, r, static_cast<double>(src[n - 1]));
      simd::conv_valid_f64(padded, n, k.taps.data(), taps, slot(filled));
    }
    for (int i = -r; i <= r; ++i) {
      rows[i + r] = slot(std::clamp(y + i, 0, h - 1));
    }
    simd::conv_rows_f64_u8(rows, n, k.taps.data(), taps, out.row(y));
  }
}

// ---------------------------------------------------------------------------
// morphology
// ---------------------------------------------------------------------------

/// Separable 3x3 OR/AND morphology over a 0/255 binary map: a vertical
/// combine of the three neighbouring rows into a scratch row, then a
/// three-shift horizontal combine. Out-of-raster neighbours are background
/// (the at_clamped semantics of the pre-SIMD code).
void morph_into(const GrayImage& src, GrayImage& dst, bool dilate,
                Arena& scratch) {
  const int w = src.width();
  const int h = src.height();
  if (w == 0 || h == 0) return;
  const std::size_t n = static_cast<std::size_t>(w);
  std::uint8_t* const t = scratch.allocate(n);
  std::uint8_t* const zero = scratch.allocate(n);
  std::memset(zero, 0, n);
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* const above = y > 0 ? src.row(y - 1) : zero;
    const std::uint8_t* const mid = src.row(y);
    const std::uint8_t* const below = y + 1 < h ? src.row(y + 1) : zero;
    if (dilate) {
      simd::eq255_or3_u8(above, mid, below, t, n);
      simd::neighbor_or3_u8(t, dst.row(y), n);
    } else {
      if (y == 0 || y + 1 == h) {
        std::memset(dst.row(y), 0, n);  // border rows always erode away
        continue;
      }
      simd::eq255_and3_u8(above, mid, below, t, n);
      simd::neighbor_and3_u8(t, dst.row(y), n);
    }
  }
}

[[nodiscard]] GrayImage morph_heap(const GrayImage& img, bool dilate) {
  Arena& scratch = Arena::thread_local_arena();
  const Arena::Frame frame(scratch);
  GrayImage out(img.width(), img.height());
  morph_into(img, out, dilate, scratch);
  return out;
}

[[nodiscard]] GrayImage morph_arena(const GrayImage& img, bool dilate,
                                    Arena& arena) {
  GrayImage out(arena, img.width(), img.height());
  morph_into(img, out, dilate, arena);
  return out;
}

/// Foreground and total pixel counts of one normalize_glyph grid cell.
struct CellCount {
  std::size_t ink = 0;
  std::size_t total = 0;
};

[[nodiscard]] CellCount count_cell(const GrayImage& img, const Rect& clipped,
                                   int gx, int gy, int size) noexcept {
  // Map the grid cell to a pixel block in the bounding box.
  const int x0 = clipped.x + gx * clipped.w / size;
  const int x1 = std::max(x0 + 1, clipped.x + (gx + 1) * clipped.w / size);
  const int y0 = clipped.y + gy * clipped.h / size;
  const int y1 = std::max(y0 + 1, clipped.y + (gy + 1) * clipped.h / size);
  const int x_end = std::min(x1, clipped.x + clipped.w);
  const int y_end = std::min(y1, clipped.y + clipped.h);
  CellCount count;
  for (int y = y0; y < y_end; ++y) {
    const std::size_t span = static_cast<std::size_t>(x_end - x0);
    count.ink += simd::count_eq_u8(img.row(y) + x0, span, 255);
    count.total += span;
  }
  return count;
}

}  // namespace

GrayImage upscale_bilinear(const GrayImage& img, int factor) {
  if (factor < 1) throw std::invalid_argument("upscale: factor < 1");
  if (factor == 1 || img.empty()) return img;
  Arena& scratch = Arena::thread_local_arena();
  const Arena::Frame frame(scratch);
  GrayImage out(img.width() * factor, img.height() * factor);
  upscale_into(img, factor, out, scratch);
  return out;
}

GrayImage upscale_bilinear(const GrayImage& img, int factor, Arena& arena) {
  if (factor < 1) throw std::invalid_argument("upscale: factor < 1");
  if (factor == 1 || img.empty()) {
    GrayImage out(arena, img.width(), img.height());
    if (!img.empty()) std::memcpy(out.data(), img.data(), img.size());
    return out;
  }
  GrayImage out(arena, img.width() * factor, img.height() * factor);
  const Arena::Frame scratch(arena);  // releases everything but `out`
  upscale_into(img, factor, out, arena);
  return out;
}

GrayImage gaussian_blur(const GrayImage& img, double sigma) {
  if (sigma <= 0.0 || img.empty()) return img;
  Arena& scratch = Arena::thread_local_arena();
  const Arena::Frame frame(scratch);
  const BlurKernel kernel = make_blur_kernel(sigma);
  GrayImage out(img.width(), img.height());
  blur_into(img, kernel, out, scratch);
  return out;
}

GrayImage gaussian_blur(const GrayImage& img, double sigma, Arena& arena) {
  if (sigma <= 0.0 || img.empty()) {
    GrayImage out(arena, img.width(), img.height());
    if (!img.empty()) std::memcpy(out.data(), img.data(), img.size());
    return out;
  }
  const BlurKernel kernel = make_blur_kernel(sigma);
  GrayImage out(arena, img.width(), img.height());
  const Arena::Frame scratch(arena);  // releases everything but `out`
  blur_into(img, kernel, out, arena);
  return out;
}

void gaussian_blur_inplace(GrayImage& img, double sigma, const Rect& region) {
  const Rect frame{0, 0, img.width(), img.height()};
  const Rect target = region.intersect(frame);
  if (sigma <= 0.0 || target.empty()) return;
  const BlurKernel kernel = make_blur_kernel(sigma);
  // Every tap of a target pixel lies within one radius of the target, and
  // where the margin is cut by the image edge its own clamped border is the
  // image's: blurring the margin alone gives the target its full-image value.
  const int r = kernel.radius;
  const Rect margin =
      Rect{target.x - r, target.y - r, target.w + 2 * r, target.h + 2 * r}
          .intersect(frame);
  Arena& scratch = Arena::thread_local_arena();
  const Arena::Frame scope(scratch);
  const GrayImage src = img.crop(margin, scratch);
  GrayImage out(scratch, margin.w, margin.h);
  blur_into(src, kernel, out, scratch);
  for (int y = 0; y < target.h; ++y) {
    std::memcpy(img.row(target.y + y) + target.x,
                out.row(target.y - margin.y + y) + (target.x - margin.x),
                static_cast<std::size_t>(target.w));
  }
}

std::uint8_t otsu_threshold(const GrayImage& img) {
  std::uint64_t histogram[256];
  util::simd::histogram_u8(img.data(), img.size(), histogram);
  const double total = static_cast<double>(img.size());
  if (total == 0.0) return 127;

  double sum_all = 0.0;
  for (int i = 0; i < 256; ++i) sum_all += i * static_cast<double>(histogram[i]);

  double sum_bg = 0.0;
  double weight_bg = 0.0;
  double best_variance = -1.0;
  std::uint8_t best_threshold = 127;
  for (int t = 0; t < 256; ++t) {
    weight_bg += static_cast<double>(histogram[t]);
    if (weight_bg == 0.0) continue;
    const double weight_fg = total - weight_bg;
    if (weight_fg == 0.0) break;
    sum_bg += t * static_cast<double>(histogram[t]);
    const double mean_bg = sum_bg / weight_bg;
    const double mean_fg = (sum_all - sum_bg) / weight_fg;
    const double variance =
        weight_bg * weight_fg * (mean_bg - mean_fg) * (mean_bg - mean_fg);
    if (variance > best_variance) {
      best_variance = variance;
      best_threshold = static_cast<std::uint8_t>(t);
    }
  }
  return best_threshold;
}

GrayImage binarize(const GrayImage& img, std::uint8_t threshold) {
  GrayImage out(img.width(), img.height());
  util::simd::binarize_u8(img.data(), out.data(), img.size(), threshold);
  return out;
}

void binarize_inplace(GrayImage& img, std::uint8_t threshold) noexcept {
  util::simd::binarize_u8(img.data(), img.data(), img.size(), threshold);
}

GrayImage dilate3x3(const GrayImage& img) { return morph_heap(img, true); }
GrayImage dilate3x3(const GrayImage& img, Arena& arena) {
  return morph_arena(img, true, arena);
}
GrayImage erode3x3(const GrayImage& img) { return morph_heap(img, false); }
GrayImage erode3x3(const GrayImage& img, Arena& arena) {
  return morph_arena(img, false, arena);
}

void invert_inplace(GrayImage& img) noexcept {
  util::simd::invert_u8(img.data(), img.data(), img.size());
}

double foreground_ratio(const GrayImage& img) noexcept {
  if (img.size() == 0) return 0.0;
  const std::size_t count =
      util::simd::count_eq_u8(img.data(), img.size(), 255);
  return static_cast<double>(count) / static_cast<double>(img.size());
}

std::vector<Component> connected_components(const GrayImage& img,
                                            int min_area) {
  std::vector<Component> components;
  if (img.empty()) return components;
  const int w = img.width();
  const int h = img.height();

  // The foreground runs of each row, each joined by union-find to every run
  // of the row above that it touches 8-connectedly. A join keeps the smaller
  // index as root and folds the other set's area and bounds into it, so a
  // component's root is its first run in raster order and holds all of it.
  struct Span {
    int x0, x1;  ///< pixels [x0, x1) of one run
  };
  struct Set {
    int parent, area, x0, x1, y0, y1;  ///< area and bounds valid at a root
  };
  std::vector<Span> spans;
  std::vector<Set> sets;
  auto find = [&](int i) {
    while (sets[i].parent != i) {
      sets[i].parent = sets[sets[i].parent].parent;  // path halving
      i = sets[i].parent;
    }
    return i;
  };
  auto join = [&](int root, int other) {
    Set& into = sets[root];
    const Set& from = sets[other];
    into.area += from.area;
    into.x0 = std::min(into.x0, from.x0);
    into.x1 = std::max(into.x1, from.x1);
    into.y1 = std::max(into.y1, from.y1);
    sets[other].parent = root;
  };
  std::size_t above = 0;  // first run of the previous row
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* const row = img.row(y);
    const std::size_t begin = spans.size();
    int x = 0;
    while (x < w) {
      // SIMD background skip, 16 pixels per compare: thumbnails are mostly
      // background after binarization.
      x += static_cast<int>(util::simd::find_eq_u8(
          row + x, static_cast<std::size_t>(w - x), 255));
      if (x >= w) break;
      const int x0 = x;
      while (x < w && row[x] == 255) ++x;
      int root = static_cast<int>(sets.size());
      spans.push_back(Span{x0, x});
      sets.push_back(Set{root, x - x0, x0, x, y, y});
      // Runs above touching [x0 - 1, x]; `above` only moves past runs that
      // end left of this one, so the next run still sees its neighbours.
      while (above < begin && spans[above].x1 < x0) ++above;
      for (std::size_t j = above; j < begin && spans[j].x0 <= x; ++j) {
        const int a = find(static_cast<int>(j));
        if (a < root) {
          join(a, root);
          root = a;
        } else if (root < a) {
          join(root, a);
        }
      }
    }
    above = begin;
  }

  // Roots in index order: the order a raster-scan flood fill discovers the
  // components in.
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const Set& set = sets[i];
    if (set.parent != static_cast<int>(i) || set.area < min_area) continue;
    components.push_back(Component{
        Rect{set.x0, set.y0, set.x1 - set.x0, set.y1 - set.y0 + 1}, set.area});
  }
  std::sort(components.begin(), components.end(),
            [](const Component& a, const Component& b) {
              return a.bounds.x < b.bounds.x;
            });
  return components;
}

void normalize_glyph(const GrayImage& img, const Rect& bounds, int size,
                     std::span<float> out) noexcept {
  const std::size_t cells = static_cast<std::size_t>(size) * size;
  std::fill(out.begin(), out.begin() + cells, 0.0f);
  const Rect clipped = bounds.intersect(Rect{0, 0, img.width(), img.height()});
  if (clipped.empty()) return;
  for (int gy = 0; gy < size; ++gy) {
    for (int gx = 0; gx < size; ++gx) {
      const CellCount cell = count_cell(img, clipped, gx, gy, size);
      out[static_cast<std::size_t>(gy) * size + gx] =
          cell.total > 0
              ? static_cast<float>(cell.ink) / static_cast<float>(cell.total)
              : 0.0f;
    }
  }
}

}  // namespace tero::image
