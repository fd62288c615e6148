#pragma once

// Portable SIMD layer for the extraction hot path (DESIGN.md §12).
//
// Design rules:
//  - 128-bit vectors on three backends: SSE2 (x86-64 baseline), NEON
//    (aarch64), and a scalar fallback. The backend is picked at compile
//    time; `enabled()` additionally gates every vector path at runtime so
//    the determinism suites can force the scalar path (TERO_SIMD=off) in the
//    same binary and assert bit-identity.
//  - The f64 row kernels alone also have a 256-bit AVX2 body in front of
//    their SSE2 loop. It is compiled per function with target("avx2") (no
//    -march, no FMA) and runs when enabled() holds and the CPU, asked once,
//    reports AVX2 (`avx2_enabled()`).
//  - A kernel keeps a vector path only where it beats its scalar loop in the
//    stage that calls it: the morphology row ops, count_eq_u8, find_eq_u8,
//    l2sq_f32, l1_f32 and the f64 row kernels. binarize_u8, invert_u8,
//    histogram_u8 and dot_f32 are plain loops (the compiler vectorizes the
//    pointwise ones).
//  - Every kernel's scalar fallback is BIT-IDENTICAL to its vector path.
//    For the u8 kernels this is free (integer arithmetic). For the float
//    reductions the accumulation order is part of the kernel's contract:
//    four lane-strided partial sums over the first n/4*4 elements, combined
//    as (l0 + l2) + (l1 + l3), then the tail added sequentially. The scalar
//    path implements exactly that order, so `l2sq_f32(a, b, n)` returns the
//    same bits whether or not SIMD is enabled. (No code is compiled with
//    FMA enabled, so the compiler cannot fuse the scalar multiply-adds into
//    operations the vector path does not use.)
//  - Kernels take raw pointers + length; callers are responsible for
//    lifetime. dst may alias src for the pointwise kernels.

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#include <emmintrin.h>
#define TERO_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define TERO_SIMD_NEON 1
#endif

// The AVX2 bodies (see above) need per-function target attributes.
#if defined(TERO_SIMD_SSE2) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define TERO_SIMD_AVX2 1
#endif

namespace tero::util::simd {

[[nodiscard]] constexpr bool compiled() noexcept {
#if defined(TERO_SIMD_SSE2) || defined(TERO_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

namespace detail {
/// Read once: the TERO_SIMD environment variable ("off"/"0"/"false" force
/// scalar) is how the CI determinism gate flips a release binary onto the
/// scalar path.
inline std::atomic<bool>& runtime_flag() noexcept {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("TERO_SIMD");
    if (env != nullptr &&
        (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
         std::strcmp(env, "false") == 0)) {
      return false;
    }
    return compiled();
  }();
  return flag;
}
}  // namespace detail

/// Runtime dispatch decision: true when the vector path is compiled in and
/// not overridden. Kernels read this once per call.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::runtime_flag().load(std::memory_order_relaxed);
}

/// Force the scalar path (false) or re-enable vectors (true; no-op when the
/// backend is scalar). Used by the bit-identity tests and benchmarks, which
/// save enabled() first and restore it when they finish.
inline void set_enabled(bool on) noexcept {
  detail::runtime_flag().store(on && compiled(), std::memory_order_relaxed);
}

/// True when the f64 row kernels' AVX2 bodies run: enabled(), and the CPU
/// reports AVX2 (asked once). TERO_SIMD=off therefore turns them off too.
[[nodiscard]] inline bool avx2_enabled() noexcept {
#if defined(TERO_SIMD_AVX2)
  static const bool cpu_has_avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return cpu_has_avx2 && enabled();
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// u8 pointwise kernels
// ---------------------------------------------------------------------------

/// dst[i] = src[i] > threshold ? 255 : 0. dst may alias src. No vector
/// path: the compiler vectorizes this loop, and a hand-written SSE2 compare
/// measured no faster.
inline void binarize_u8(const std::uint8_t* src, std::uint8_t* dst,
                        std::size_t n, std::uint8_t threshold) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] > threshold ? 255 : 0;
}

/// dst[i] = 255 - src[i]. dst may alias src. No vector path: the compiler
/// vectorizes this loop, and a hand-written SSE2 XOR measured no faster.
inline void invert_u8(const std::uint8_t* src, std::uint8_t* dst,
                      std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(255 - src[i]);
  }
}

/// Number of bytes equal to `value`.
[[nodiscard]] inline std::size_t count_eq_u8(const std::uint8_t* src,
                                             std::size_t n,
                                             std::uint8_t value) noexcept {
  std::size_t count = 0;
  std::size_t i = 0;
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    const __m128i v = _mm_set1_epi8(static_cast<char>(value));
    const __m128i one = _mm_set1_epi8(1);
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = _mm_setzero_si128();  // two u64 partial counts
    for (; i + 16 <= n; i += 16) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      const __m128i m = _mm_and_si128(_mm_cmpeq_epi8(x, v), one);
      acc = _mm_add_epi64(acc, _mm_sad_epu8(m, zero));
    }
    alignas(16) std::uint64_t halves[2];
    _mm_store_si128(reinterpret_cast<__m128i*>(halves), acc);
    count = static_cast<std::size_t>(halves[0] + halves[1]);
  }
#elif defined(TERO_SIMD_NEON)
  if (enabled()) {
    const uint8x16_t v = vdupq_n_u8(value);
    for (; i + 16 <= n; i += 16) {
      const uint8x16_t m = vandq_u8(vceqq_u8(vld1q_u8(src + i), v),
                                    vdupq_n_u8(1));
      count += vaddvq_u8(m);
    }
  }
#endif
  for (; i < n; ++i) {
    if (src[i] == value) ++count;
  }
  return count;
}

/// Index of the first byte equal to `value`, or n when absent. Backbone of
/// the connected-components label scan: thumbnails are mostly background,
/// so the outer loop skips 16 pixels per compare.
[[nodiscard]] inline std::size_t find_eq_u8(const std::uint8_t* src,
                                            std::size_t n,
                                            std::uint8_t value) noexcept {
  std::size_t i = 0;
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    const __m128i v = _mm_set1_epi8(static_cast<char>(value));
    for (; i + 16 <= n; i += 16) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      const int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(x, v));
      if (mask != 0) {
        return i + static_cast<std::size_t>(__builtin_ctz(
                       static_cast<unsigned>(mask)));
      }
    }
  }
#endif
  for (; i < n; ++i) {
    if (src[i] == value) return i;
  }
  return n;
}

/// dst[i] = (a[i]==255 || b[i]==255 || c[i]==255) ? 255 : 0 — the vertical
/// step of the separable 3x3 dilation. dst may alias any input.
inline void eq255_or3_u8(const std::uint8_t* a, const std::uint8_t* b,
                         const std::uint8_t* c, std::uint8_t* dst,
                         std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    const __m128i fg = _mm_set1_epi8(static_cast<char>(0xff));
    for (; i + 16 <= n; i += 16) {
      const __m128i ma = _mm_cmpeq_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)), fg);
      const __m128i mb = _mm_cmpeq_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)), fg);
      const __m128i mc = _mm_cmpeq_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + i)), fg);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_or_si128(ma, _mm_or_si128(mb, mc)));
    }
  }
#elif defined(TERO_SIMD_NEON)
  if (enabled()) {
    const uint8x16_t fg = vdupq_n_u8(255);
    for (; i + 16 <= n; i += 16) {
      const uint8x16_t ma = vceqq_u8(vld1q_u8(a + i), fg);
      const uint8x16_t mb = vceqq_u8(vld1q_u8(b + i), fg);
      const uint8x16_t mc = vceqq_u8(vld1q_u8(c + i), fg);
      vst1q_u8(dst + i, vorrq_u8(ma, vorrq_u8(mb, mc)));
    }
  }
#endif
  for (; i < n; ++i) {
    dst[i] = (a[i] == 255 || b[i] == 255 || c[i] == 255) ? 255 : 0;
  }
}

/// dst[i] = (a[i]==255 && b[i]==255 && c[i]==255) ? 255 : 0 — the vertical
/// step of the separable 3x3 erosion. dst may alias any input.
inline void eq255_and3_u8(const std::uint8_t* a, const std::uint8_t* b,
                          const std::uint8_t* c, std::uint8_t* dst,
                          std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    const __m128i fg = _mm_set1_epi8(static_cast<char>(0xff));
    for (; i + 16 <= n; i += 16) {
      const __m128i ma = _mm_cmpeq_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)), fg);
      const __m128i mb = _mm_cmpeq_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)), fg);
      const __m128i mc = _mm_cmpeq_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + i)), fg);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_and_si128(ma, _mm_and_si128(mb, mc)));
    }
  }
#elif defined(TERO_SIMD_NEON)
  if (enabled()) {
    const uint8x16_t fg = vdupq_n_u8(255);
    for (; i + 16 <= n; i += 16) {
      const uint8x16_t ma = vceqq_u8(vld1q_u8(a + i), fg);
      const uint8x16_t mb = vceqq_u8(vld1q_u8(b + i), fg);
      const uint8x16_t mc = vceqq_u8(vld1q_u8(c + i), fg);
      vst1q_u8(dst + i, vandq_u8(ma, vandq_u8(mb, mc)));
    }
  }
#endif
  for (; i < n; ++i) {
    dst[i] = (a[i] == 255 && b[i] == 255 && c[i] == 255) ? 255 : 0;
  }
}

/// dst[i] = t[i-1] | t[i] | t[i+1] over a 0/255 map with zero padding
/// outside [0, n) — the horizontal step of the separable 3x3 dilation.
/// dst must NOT alias t.
inline void neighbor_or3_u8(const std::uint8_t* t, std::uint8_t* dst,
                            std::size_t n) noexcept {
  if (n == 0) return;
  if (n == 1) {
    dst[0] = t[0];
    return;
  }
  dst[0] = t[0] | t[1];
  std::size_t i = 1;
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    for (; i + 16 < n; i += 16) {  // needs t[i+16] readable: i+16 <= n-1
      const __m128i left =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i - 1));
      const __m128i mid =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i));
      const __m128i right =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i + 1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_or_si128(left, _mm_or_si128(mid, right)));
    }
  }
#elif defined(TERO_SIMD_NEON)
  if (enabled()) {
    for (; i + 16 < n; i += 16) {
      const uint8x16_t left = vld1q_u8(t + i - 1);
      const uint8x16_t mid = vld1q_u8(t + i);
      const uint8x16_t right = vld1q_u8(t + i + 1);
      vst1q_u8(dst + i, vorrq_u8(left, vorrq_u8(mid, right)));
    }
  }
#endif
  for (; i + 1 < n; ++i) dst[i] = t[i - 1] | t[i] | t[i + 1];
  dst[n - 1] = t[n - 2] | t[n - 1];
}

/// dst[i] = t[i-1] & t[i] & t[i+1] with zero padding outside [0, n) — the
/// horizontal step of the separable 3x3 erosion (borders always erode to 0).
/// dst must NOT alias t.
inline void neighbor_and3_u8(const std::uint8_t* t, std::uint8_t* dst,
                             std::size_t n) noexcept {
  if (n == 0) return;
  dst[0] = 0;  // out-of-bounds left neighbour is background
  if (n == 1) return;
  std::size_t i = 1;
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    for (; i + 16 < n; i += 16) {
      const __m128i left =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i - 1));
      const __m128i mid =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i));
      const __m128i right =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i + 1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_and_si128(left, _mm_and_si128(mid, right)));
    }
  }
#elif defined(TERO_SIMD_NEON)
  if (enabled()) {
    for (; i + 16 < n; i += 16) {
      const uint8x16_t left = vld1q_u8(t + i - 1);
      const uint8x16_t mid = vld1q_u8(t + i);
      const uint8x16_t right = vld1q_u8(t + i + 1);
      vst1q_u8(dst + i, vandq_u8(left, vandq_u8(mid, right)));
    }
  }
#endif
  for (; i + 1 < n; ++i) dst[i] = t[i - 1] & t[i] & t[i + 1];
  dst[n - 1] = 0;  // out-of-bounds right neighbour is background
}

/// Byte histogram with four interleaved sub-histograms to break the
/// store-to-load dependency chain of the classic one-table loop (the Otsu
/// accumulation pass).
inline void histogram_u8(const std::uint8_t* src, std::size_t n,
                         std::uint64_t hist[256]) noexcept {
  std::uint64_t h0[256] = {};
  std::uint64_t h1[256] = {};
  std::uint64_t h2[256] = {};
  std::uint64_t h3[256] = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++h0[src[i]];
    ++h1[src[i + 1]];
    ++h2[src[i + 2]];
    ++h3[src[i + 3]];
  }
  for (; i < n; ++i) ++h0[src[i]];
  for (int v = 0; v < 256; ++v) hist[v] = h0[v] + h1[v] + h2[v] + h3[v];
}

// ---------------------------------------------------------------------------
// f32 reductions (the OCR match loops)
//
// Contract: four lane-strided partial sums over the first n/4*4 elements,
// combined as (l0 + l2) + (l1 + l3), then the tail appended sequentially.
// The vector paths of l2sq_f32 and l1_f32 and every scalar loop implement
// this order exactly, so results are bit-identical.
// ---------------------------------------------------------------------------

namespace detail {
#if defined(TERO_SIMD_SSE2)
[[nodiscard]] inline float reduce4(__m128 v) noexcept {
  // [l0,l1,l2,l3] -> (l0+l2) + (l1+l3)
  const __m128 hi = _mm_movehl_ps(v, v);            // [l2,l3,_,_]
  const __m128 sum2 = _mm_add_ps(v, hi);            // [l0+l2, l1+l3,_,_]
  const __m128 swap = _mm_shuffle_ps(sum2, sum2, 1);  // [l1+l3,...]
  return _mm_cvtss_f32(_mm_add_ss(sum2, swap));
}
#endif
}  // namespace detail

/// sum_i a[i]*b[i] in the lane-strided order documented above. No vector
/// path: an SSE2 loop did not reliably speed up template classification,
/// its only hot caller.
[[nodiscard]] inline float dot_f32(const float* a, const float* b,
                                   std::size_t n) noexcept {
  const std::size_t n4 = n & ~std::size_t{3};
  float l0 = 0.0f, l1 = 0.0f, l2 = 0.0f, l3 = 0.0f;
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  float head = (l0 + l2) + (l1 + l3);
  for (; i < n; ++i) head += a[i] * b[i];
  return head;
}

/// sum_i (a[i]-b[i])^2 in the lane-strided order documented above.
[[nodiscard]] inline float l2sq_f32(const float* a, const float* b,
                                    std::size_t n) noexcept {
  const std::size_t n4 = n & ~std::size_t{3};
  float head = 0.0f;
  std::size_t i = 0;
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    __m128 acc = _mm_setzero_ps();
    for (; i < n4; i += 4) {
      const __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
      acc = _mm_add_ps(acc, _mm_mul_ps(d, d));
    }
    head = detail::reduce4(acc);
  }
#elif defined(TERO_SIMD_NEON)
  if (enabled()) {
    float32x4_t acc = vdupq_n_f32(0.0f);
    for (; i < n4; i += 4) {
      const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
      acc = vaddq_f32(acc, vmulq_f32(d, d));
    }
    head = (vgetq_lane_f32(acc, 0) + vgetq_lane_f32(acc, 2)) +
           (vgetq_lane_f32(acc, 1) + vgetq_lane_f32(acc, 3));
  }
#endif
  if (i == 0) {
    float l0 = 0.0f, l1 = 0.0f, l2 = 0.0f, l3 = 0.0f;
    for (; i < n4; i += 4) {
      const float d0 = a[i] - b[i];
      const float d1 = a[i + 1] - b[i + 1];
      const float d2 = a[i + 2] - b[i + 2];
      const float d3 = a[i + 3] - b[i + 3];
      l0 += d0 * d0;
      l1 += d1 * d1;
      l2 += d2 * d2;
      l3 += d3 * d3;
    }
    head = (l0 + l2) + (l1 + l3);
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    head += d * d;
  }
  return head;
}

/// sum_i |a[i]-b[i]|, same order as l2sq_f32.
[[nodiscard]] inline float l1_f32(const float* a, const float* b,
                                  std::size_t n) noexcept {
  const std::size_t n4 = n & ~std::size_t{3};
  float head = 0.0f;
  std::size_t i = 0;
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    const __m128 sign_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
    __m128 acc = _mm_setzero_ps();
    for (; i < n4; i += 4) {
      const __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
      acc = _mm_add_ps(acc, _mm_and_ps(d, sign_mask));
    }
    head = detail::reduce4(acc);
  }
#elif defined(TERO_SIMD_NEON)
  if (enabled()) {
    float32x4_t acc = vdupq_n_f32(0.0f);
    for (; i < n4; i += 4) {
      acc = vaddq_f32(acc,
                      vabsq_f32(vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i))));
    }
    head = (vgetq_lane_f32(acc, 0) + vgetq_lane_f32(acc, 2)) +
           (vgetq_lane_f32(acc, 1) + vgetq_lane_f32(acc, 3));
  }
#endif
  if (i == 0) {
    float l0 = 0.0f, l1 = 0.0f, l2 = 0.0f, l3 = 0.0f;
    for (; i < n4; i += 4) {
      l0 += std::fabs(a[i] - b[i]);
      l1 += std::fabs(a[i + 1] - b[i + 1]);
      l2 += std::fabs(a[i + 2] - b[i + 2]);
      l3 += std::fabs(a[i + 3] - b[i + 3]);
    }
    head = (l0 + l2) + (l1 + l3);
  }
  for (; i < n; ++i) head += std::fabs(a[i] - b[i]);
  return head;
}

// ---------------------------------------------------------------------------
// f64 row kernels (the separable Gaussian blur and the bilinear upscale)
//
// The image ops widen each byte to f64 once (widen_u8_f64) and run every tap
// over f64 rows. Outputs are independent pixels, so vectorizing ACROSS
// outputs keeps each output's products, add order, clamp and truncation
// those of the scalar loop: the kernels are bit-identical scalar-vs-SIMD and
// to the per-pixel code that converted a byte once per tap. The AVX2 bodies
// take 16 outputs per step, the SSE2 loops 8 (the blur's with four
// independent 2-lane accumulators), and the scalar loop computes each
// output in the same order and takes the tails.
// ---------------------------------------------------------------------------

namespace detail {
#if defined(TERO_SIMD_SSE2)
/// clamp(v, 0, 255) truncated toward zero, as two int32 in the low lanes.
[[nodiscard]] inline __m128i clamp_trunc_u8(__m128d v) noexcept {
  return _mm_cvttpd_epi32(
      _mm_min_pd(_mm_max_pd(v, _mm_setzero_pd()), _mm_set1_pd(255.0)));
}

/// The low two int32 lanes of a, b, c and d (each 0..255) stored as 8 bytes.
inline void store8_u8(std::uint8_t* dst, __m128i a, __m128i b, __m128i c,
                      __m128i d) noexcept {
  const __m128i words = _mm_packs_epi32(_mm_unpacklo_epi64(a, b),
                                        _mm_unpacklo_epi64(c, d));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst),
                   _mm_packus_epi16(words, words));
}
#endif

[[nodiscard]] inline std::uint8_t clamp_trunc_u8(double v) noexcept {
  return static_cast<std::uint8_t>(v < 0.0 ? 0.0 : (v > 255.0 ? 255.0 : v));
}

#if defined(TERO_SIMD_AVX2)
// AVX2 bodies of the f64 row kernels, 16 outputs per step. The blur's two
// keep four independent 4-lane accumulators, each tap's product added in
// tap order, then clamped and truncated as above. Each body returns the
// first output it left to the caller's SSE2 and scalar loops. The target
// is exactly "avx2": GCC contracts a C++ multiply and add into one FMA
// wherever FMA is enabled, and the fused op rounds once where the scalar
// loop rounds twice, which changes outputs.
__attribute__((target("avx2"))) [[nodiscard]] inline __m128i
clamp_trunc_u8_avx2(__m256d v) noexcept {
  return _mm256_cvttpd_epi32(_mm256_min_pd(
      _mm256_max_pd(v, _mm256_setzero_pd()), _mm256_set1_pd(255.0)));
}

__attribute__((target("avx2"))) [[nodiscard]] inline std::size_t
conv_valid_f64_avx2(const double* src, std::size_t n, const double* kernel,
                    std::size_t taps, double* dst) noexcept {
  std::size_t x = 0;
  for (; x + 16 <= n; x += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const double* const s = src + x;
    for (std::size_t i = 0; i < taps; ++i) {
      const __m256d k = _mm256_set1_pd(kernel[i]);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(k, _mm256_loadu_pd(s + i)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(k, _mm256_loadu_pd(s + i + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(k, _mm256_loadu_pd(s + i + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(k, _mm256_loadu_pd(s + i + 12)));
    }
    _mm256_storeu_pd(dst + x, _mm256_cvtepi32_pd(clamp_trunc_u8_avx2(a0)));
    _mm256_storeu_pd(dst + x + 4, _mm256_cvtepi32_pd(clamp_trunc_u8_avx2(a1)));
    _mm256_storeu_pd(dst + x + 8, _mm256_cvtepi32_pd(clamp_trunc_u8_avx2(a2)));
    _mm256_storeu_pd(dst + x + 12,
                     _mm256_cvtepi32_pd(clamp_trunc_u8_avx2(a3)));
  }
  return x;
}

__attribute__((target("avx2"))) [[nodiscard]] inline std::size_t
conv_rows_f64_u8_avx2(const double* const* rows, std::size_t n,
                      const double* kernel, std::size_t taps,
                      std::uint8_t* dst) noexcept {
  std::size_t x = 0;
  for (; x + 16 <= n; x += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < taps; ++i) {
      const __m256d k = _mm256_set1_pd(kernel[i]);
      const double* const r = rows[i] + x;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(k, _mm256_loadu_pd(r)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(k, _mm256_loadu_pd(r + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(k, _mm256_loadu_pd(r + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(k, _mm256_loadu_pd(r + 12)));
    }
    const __m128i lo = _mm_packs_epi32(clamp_trunc_u8_avx2(a0),
                                       clamp_trunc_u8_avx2(a1));
    const __m128i hi = _mm_packs_epi32(clamp_trunc_u8_avx2(a2),
                                       clamp_trunc_u8_avx2(a3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + x),
                     _mm_packus_epi16(lo, hi));
  }
  return x;
}

__attribute__((target("avx2"))) [[nodiscard]] inline std::size_t
widen_u8_f64_avx2(const std::uint8_t* src, std::size_t n,
                  double* dst) noexcept {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_pd(dst + i, _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(b)));
    _mm256_storeu_pd(dst + i + 4, _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(
                                      _mm_srli_si128(b, 4))));
    _mm256_storeu_pd(dst + i + 8, _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(
                                      _mm_srli_si128(b, 8))));
    _mm256_storeu_pd(dst + i + 12, _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(
                                       _mm_srli_si128(b, 12))));
  }
  return i;
}

__attribute__((target("avx2"))) [[nodiscard]] inline std::size_t
lerp_rows_f64_u8_avx2(const double* top, const double* bottom, std::size_t n,
                      double gy, double fy, std::uint8_t* dst) noexcept {
  const __m256d g = _mm256_set1_pd(gy);
  const __m256d f = _mm256_set1_pd(fy);
  std::size_t x = 0;
  for (; x + 16 <= n; x += 16) {
    __m128i c[4];
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t at = x + 4 * j;
      c[j] = clamp_trunc_u8_avx2(
          _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(top + at), g),
                        _mm256_mul_pd(_mm256_loadu_pd(bottom + at), f)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + x),
                     _mm_packus_epi16(_mm_packs_epi32(c[0], c[1]),
                                      _mm_packs_epi32(c[2], c[3])));
  }
  return x;
}
#endif
}  // namespace detail

/// dst[i] = double(src[i]).
inline void widen_u8_f64(const std::uint8_t* src, std::size_t n,
                         double* dst) noexcept {
  std::size_t i = 0;
#if defined(TERO_SIMD_AVX2)
  if (avx2_enabled()) i = detail::widen_u8_f64_avx2(src, n, dst);
#endif
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    const __m128i zero = _mm_setzero_si128();
    for (; i + 8 <= n; i += 8) {
      const __m128i words = _mm_unpacklo_epi8(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i)), zero);
      const __m128i lo = _mm_unpacklo_epi16(words, zero);
      const __m128i hi = _mm_unpackhi_epi16(words, zero);
      _mm_storeu_pd(dst + i, _mm_cvtepi32_pd(lo));
      _mm_storeu_pd(dst + i + 2, _mm_cvtepi32_pd(_mm_srli_si128(lo, 8)));
      _mm_storeu_pd(dst + i + 4, _mm_cvtepi32_pd(hi));
      _mm_storeu_pd(dst + i + 6, _mm_cvtepi32_pd(_mm_srli_si128(hi, 8)));
    }
  }
#endif
  for (; i < n; ++i) dst[i] = static_cast<double>(src[i]);
}

/// Horizontal blur pass: for x in [0, n),
/// dst[x] = trunc(clamp(sum_i kernel[i] * src[x + i], 0, 255)), taps added
/// in order i = 0..taps-1 to 0.0 — a u8 value kept in f64 for the vertical
/// pass. src[0 .. n + taps - 2] must be readable (a row padded with its
/// border); dst must not alias src.
inline void conv_valid_f64(const double* src, std::size_t n,
                           const double* kernel, std::size_t taps,
                           double* dst) noexcept {
  std::size_t x = 0;
#if defined(TERO_SIMD_AVX2)
  if (avx2_enabled()) {
    x = detail::conv_valid_f64_avx2(src, n, kernel, taps, dst);
  }
#endif
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    for (; x + 8 <= n; x += 8) {
      __m128d a0 = _mm_setzero_pd();
      __m128d a1 = _mm_setzero_pd();
      __m128d a2 = _mm_setzero_pd();
      __m128d a3 = _mm_setzero_pd();
      const double* const s = src + x;
      for (std::size_t i = 0; i < taps; ++i) {
        const __m128d k = _mm_set1_pd(kernel[i]);
        a0 = _mm_add_pd(a0, _mm_mul_pd(k, _mm_loadu_pd(s + i)));
        a1 = _mm_add_pd(a1, _mm_mul_pd(k, _mm_loadu_pd(s + i + 2)));
        a2 = _mm_add_pd(a2, _mm_mul_pd(k, _mm_loadu_pd(s + i + 4)));
        a3 = _mm_add_pd(a3, _mm_mul_pd(k, _mm_loadu_pd(s + i + 6)));
      }
      _mm_storeu_pd(dst + x, _mm_cvtepi32_pd(detail::clamp_trunc_u8(a0)));
      _mm_storeu_pd(dst + x + 2, _mm_cvtepi32_pd(detail::clamp_trunc_u8(a1)));
      _mm_storeu_pd(dst + x + 4, _mm_cvtepi32_pd(detail::clamp_trunc_u8(a2)));
      _mm_storeu_pd(dst + x + 6, _mm_cvtepi32_pd(detail::clamp_trunc_u8(a3)));
    }
  }
#endif
  for (; x < n; ++x) {
    double sum = 0.0;
    for (std::size_t i = 0; i < taps; ++i) sum += kernel[i] * src[x + i];
    dst[x] = static_cast<double>(detail::clamp_trunc_u8(sum));
  }
}

/// Vertical blur pass: for x in [0, n),
/// dst[x] = trunc(clamp(sum_i kernel[i] * rows[i][x], 0, 255)), taps added
/// in order i = 0..taps-1 to 0.0. `rows` are per-tap row pointers, already
/// clamped to the raster by the caller.
inline void conv_rows_f64_u8(const double* const* rows, std::size_t n,
                             const double* kernel, std::size_t taps,
                             std::uint8_t* dst) noexcept {
  std::size_t x = 0;
#if defined(TERO_SIMD_AVX2)
  if (avx2_enabled()) {
    x = detail::conv_rows_f64_u8_avx2(rows, n, kernel, taps, dst);
  }
#endif
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    for (; x + 8 <= n; x += 8) {
      __m128d a0 = _mm_setzero_pd();
      __m128d a1 = _mm_setzero_pd();
      __m128d a2 = _mm_setzero_pd();
      __m128d a3 = _mm_setzero_pd();
      for (std::size_t i = 0; i < taps; ++i) {
        const __m128d k = _mm_set1_pd(kernel[i]);
        const double* const r = rows[i] + x;
        a0 = _mm_add_pd(a0, _mm_mul_pd(k, _mm_loadu_pd(r)));
        a1 = _mm_add_pd(a1, _mm_mul_pd(k, _mm_loadu_pd(r + 2)));
        a2 = _mm_add_pd(a2, _mm_mul_pd(k, _mm_loadu_pd(r + 4)));
        a3 = _mm_add_pd(a3, _mm_mul_pd(k, _mm_loadu_pd(r + 6)));
      }
      detail::store8_u8(dst + x, detail::clamp_trunc_u8(a0),
                        detail::clamp_trunc_u8(a1), detail::clamp_trunc_u8(a2),
                        detail::clamp_trunc_u8(a3));
    }
  }
#endif
  for (; x < n; ++x) {
    double sum = 0.0;
    for (std::size_t i = 0; i < taps; ++i) sum += kernel[i] * rows[i][x];
    dst[x] = detail::clamp_trunc_u8(sum);
  }
}

/// The bilinear upscale's vertical blend of two x-interpolated source rows:
/// dst[x] = trunc(clamp(top[x] * (1 - fy) + bottom[x] * fy, 0, 255)).
inline void lerp_rows_f64_u8(const double* top, const double* bottom,
                             std::size_t n, double fy,
                             std::uint8_t* dst) noexcept {
  const double gy = 1 - fy;
  std::size_t x = 0;
#if defined(TERO_SIMD_AVX2)
  if (avx2_enabled()) {
    x = detail::lerp_rows_f64_u8_avx2(top, bottom, n, gy, fy, dst);
  }
#endif
#if defined(TERO_SIMD_SSE2)
  if (enabled()) {
    const __m128d g = _mm_set1_pd(gy);
    const __m128d f = _mm_set1_pd(fy);
    const auto lerp = [&](std::size_t at) {
      return detail::clamp_trunc_u8(
          _mm_add_pd(_mm_mul_pd(_mm_loadu_pd(top + at), g),
                     _mm_mul_pd(_mm_loadu_pd(bottom + at), f)));
    };
    for (; x + 8 <= n; x += 8) {
      detail::store8_u8(dst + x, lerp(x), lerp(x + 2), lerp(x + 4),
                        lerp(x + 6));
    }
  }
#endif
  for (; x < n; ++x) {
    dst[x] = detail::clamp_trunc_u8(top[x] * gy + bottom[x] * fy);
  }
}

}  // namespace tero::util::simd
