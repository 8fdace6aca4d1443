// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every random quantity in the library flows from a named 64-bit seed through
// SplitMix64 (seeding / cheap streams) or Xoshiro256** (bulk generation), so
// that every experiment in the paper reproduction is replayable bit-for-bit
// across platforms (no reliance on std::mt19937 distribution details).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "support/annotations.hpp"

namespace avglocal::support {

/// SplitMix64: tiny, fast, passes BigCrush; used for seeding and for cheap
/// independent streams (Steele, Lea, Flood 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  AVGLOCAL_HOT std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the library's workhorse generator (Blackman & Vigna 2018).
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from SplitMix64(seed), as recommended by the
  /// authors.
  explicit Xoshiro256(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  /// bound must be positive.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Fisher-Yates shuffle driven by Xoshiro256 (deterministic across platforms,
/// unlike std::shuffle whose result is unspecified). The span form shuffles
/// any contiguous storage in place, e.g. an IdAssignment's id vector while
/// it is being built.
template <typename T>
void shuffle(std::span<T> values, Xoshiro256& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(values[i - 1], values[j]);
  }
}

template <typename T>
void shuffle(std::vector<T>& values, Xoshiro256& rng) {
  shuffle(std::span<T>(values), rng);
}

/// Derives a fresh, statistically independent seed for a sub-experiment:
/// mixes the master seed with a stream index through SplitMix64.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) noexcept;

}  // namespace avglocal::support
