#include "support/math.hpp"

#include <bit>
#include <cmath>

#include "support/assert.hpp"

namespace avglocal::support {

int ilog2(std::uint64_t x) noexcept {
  AVGLOCAL_ASSERT(x >= 1);
  return 63 - std::countl_zero(x);
}

int ceil_log2(std::uint64_t x) noexcept {
  AVGLOCAL_ASSERT(x >= 1);
  if (x == 1) return 0;
  return ilog2(x - 1) + 1;
}

int bit_width_u64(std::uint64_t x) noexcept {
  return static_cast<int>(std::bit_width(x));
}

int log_star(double x) noexcept {
  int k = 0;
  while (x > 1.0) {
    x = std::log2(x);
    ++k;
  }
  return k;
}

}  // namespace avglocal::support
