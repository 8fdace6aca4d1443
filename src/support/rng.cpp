#include "support/rng.hpp"

namespace avglocal::support {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

AVGLOCAL_HOT std::uint64_t Xoshiro256::next() noexcept {
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

AVGLOCAL_HOT std::uint64_t Xoshiro256::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) noexcept {
  SplitMix64 sm(master ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return sm.next();
}

}  // namespace avglocal::support
