#include "util/rng.hpp"

#include <cmath>

namespace qopt {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
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

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  // 53 top bits -> uniform in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::exponential(double mean) noexcept {
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return mean + stddev * u * factor;
}

Rng Rng::fork(std::uint64_t salt) noexcept {
  return Rng(next() ^ mix64(salt));
}

}  // namespace qopt
