#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace tero::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::fork() noexcept { return Rng{next_u64()}; }

Rng Rng::indexed(std::uint64_t seed, std::uint64_t index) noexcept {
  return Rng{mix_seed(seed, index)};
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t draw;
  do {
    draw = next_u64();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::normal() noexcept {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

void Rng::skip_normals(std::uint64_t n) noexcept {
  if (n > 0 && have_cached_normal_) {
    have_cached_normal_ = false;
    --n;
  }
  // The draws normal() makes for one pair: u1 with its rejection, then u2.
  for (; n >= 2; n -= 2) {
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    (void)uniform();
  }
  // An odd last draw leaves the pair's sine half cached: compute it in full.
  if (n == 1) (void)normal();
}

double Rng::exponential(double rate) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    double product = uniform();
    std::uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

double Rng::pareto(double xm, double alpha) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::pick_weighted(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    throw std::invalid_argument("Rng::pick_weighted: non-positive total");
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  if (k > n) throw std::invalid_argument("Rng::sample_indices: k > n");
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: first k slots end up as the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(n) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t state = a;
  (void)splitmix64(state);  // decorrelate from the raw seed value
  state ^= 0xbf58476d1ce4e5b9ULL * (b + 0x94d049bb133111ebULL);
  return splitmix64(state);
}

}  // namespace tero::util
