#include "algo/colour_reduction.hpp"

#include <bit>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace avglocal::algo {

std::uint64_t cv_reduce(std::uint64_t colour, std::uint64_t successor_colour) {
  AVGLOCAL_EXPECTS_MSG(colour != successor_colour, "cv_reduce needs a valid colouring");
  const int i = std::countr_zero(colour ^ successor_colour);
  const std::uint64_t bit = (colour >> i) & 1u;
  return 2 * static_cast<std::uint64_t>(i) + bit;
}

int cv_iterations_to_six(int bits) {
  AVGLOCAL_EXPECTS(bits >= 1 && bits <= 64);
  // Colours < 2^L map to colours <= 2*(L-1)+1, i.e. < 2^bit_width(2L-1).
  int level = bits;
  int steps = 0;
  while (level > 3) {
    level = support::bit_width_u64(static_cast<std::uint64_t>(2 * level - 1));
    ++steps;
  }
  // One more step takes colours < 8 (3 bits) to colours < 6.
  return steps + 1;
}

std::size_t cv_schedule_rounds(std::size_t n) {
  AVGLOCAL_EXPECTS(n >= 2);
  const int bits = support::bit_width_u64(n);
  return static_cast<std::size_t>(cv_iterations_to_six(bits)) + 3;
}

namespace {

/// Greedy recolour: the smallest colour in {0,1,2} used by neither
/// neighbour. Valid whenever at most two values are excluded.
std::uint64_t smallest_free(std::uint64_t left, std::uint64_t right) {
  for (std::uint64_t c = 0; c < 3; ++c) {
    if (c != left && c != right) return c;
  }
  AVGLOCAL_REQUIRE_MSG(false, "no free colour below 3 with two exclusions");
  return 0;  // unreachable
}

}  // namespace

std::vector<std::uint64_t> cv_colour_ring(std::span<const std::uint64_t> ring_ids, int t6) {
  const std::size_t n = ring_ids.size();
  AVGLOCAL_EXPECTS(n >= 3);
  std::vector<std::uint64_t> colour(ring_ids.begin(), ring_ids.end());
  std::vector<std::uint64_t> next(n);
  for (int k = 0; k < t6; ++k) {
    for (std::size_t i = 0; i < n; ++i) next[i] = cv_reduce(colour[i], colour[(i + 1) % n]);
    colour.swap(next);
  }
  for (std::uint64_t cls = 5; cls >= 3; --cls) {
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = (colour[i] == cls)
                    ? smallest_free(colour[(i + n - 1) % n], colour[(i + 1) % n])
                    : colour[i];
    }
    colour.swap(next);
  }
  return colour;
}

std::span<const std::uint64_t> cv_colour_window(std::span<std::uint64_t> window, int t6) {
  const std::size_t m = window.size();
  AVGLOCAL_EXPECTS_MSG(m >= static_cast<std::size_t>(t6) + 7,
                       "window too small for any final colour");
  // Reduction: after iteration k, colours are valid for positions
  // [0, m-1-k]. Run in place over a shrinking suffix bound.
  std::size_t valid_end = m - 1;  // inclusive
  for (int k = 0; k < t6; ++k) {
    for (std::size_t j = 0; j < valid_end; ++j) window[j] = cv_reduce(window[j], window[j + 1]);
    --valid_end;
  }
  // Eliminations consume one position from each side per step. In place is
  // exact: a recoloured vertex has class `cls`, so in a valid colouring
  // neither neighbour changes in the same step and each read sees the
  // previous step's colour.
  std::size_t lo = 0;
  for (std::uint64_t cls = 5; cls >= 3; --cls) {
    for (std::size_t j = lo + 1; j < valid_end; ++j) {
      if (window[j] == cls) window[j] = smallest_free(window[j - 1], window[j + 1]);
    }
    ++lo;
    --valid_end;
  }
  return window.subspan(lo, valid_end + 1 - lo);  // lo == 3
}

}  // namespace avglocal::algo
