// Deterministic, seedable pseudo-random number generation.
//
// All randomness in the simulator flows through qopt::Rng so that every
// experiment is exactly reproducible from its seed. The engine is
// xoshiro256**, seeded via splitmix64 (the initialization recommended by the
// xoshiro authors); both are tiny, fast, and of far higher quality than
// std::minstd / rand().
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace qopt {

/// splitmix64 step; used for seeding and as a cheap stateless hash.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix (one splitmix64 round applied to `x`). Inline:
/// replica placement hashes every (object, node) pair once per operation.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** engine with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Standard normal via Marsaglia polar method.
  double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Derives an independent child generator; `salt` separates streams that
  /// share a parent (e.g. one stream per simulated node).
  Rng fork(std::uint64_t salt) noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace qopt
