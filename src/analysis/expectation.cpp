#include "analysis/expectation.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace avglocal::analysis {

double expected_largest_id_average(std::size_t n) {
  AVGLOCAL_EXPECTS(n >= 3);
  const std::size_t cover = n / 2;  // ceil((n-1)/2)
  // r(v) >= d iff v holds the maximum of the 2d-1 identifiers in its
  // radius-(d-1) ball, which happens with probability 1/(2d-1).
  double expectation = 0.0;
  for (std::size_t d = 1; d <= cover; ++d) {
    expectation += 1.0 / static_cast<double>(2 * d - 1);
  }
  return expectation;
}

double expected_universe_aware_average(std::size_t n) {
  AVGLOCAL_EXPECTS(n >= 3);
  const std::size_t cover = n / 2;
  double total = 0.0;
  for (std::size_t x = 1; x <= n; ++x) {
    // The universe rule stops rank x at radius ceil((x-1)/2) regardless of
    // what it saw: beyond that, every completion contains a larger id.
    const std::size_t cap_x = std::min(cover, x / 2);  // x/2 == ceil((x-1)/2)
    double expectation = 0.0;
    double survive = 1.0;  // P(no larger identifier within distance d-1)
    for (std::size_t d = 1; d <= cap_x; ++d) {
      if (d >= 2) {
        // Extend the window by two cells (one per side); both must carry
        // identifiers below x. Hypergeometric product, exact.
        const std::size_t k = 2 * (d - 2);  // cells already conditioned on
        if (x - 1 < k + 2) {
          survive = 0.0;
        } else {
          survive *= static_cast<double>(x - 1 - k) / static_cast<double>(n - 1 - k);
          survive *=
              static_cast<double>(x - 2 - k) / static_cast<double>(n - 2 - k);
        }
      }
      expectation += survive;
    }
    total += expectation;
  }
  return total / static_cast<double>(n);
}

std::size_t deterministic_largest_id_max(std::size_t n) {
  AVGLOCAL_EXPECTS(n >= 3);
  return n / 2;
}

}  // namespace avglocal::analysis
