// Integer math helpers used across the reproduction: iterated logarithm
// (log*), bit utilities and the near-equal split of an index range.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace avglocal::support {

/// floor(log2(x)) for x >= 1.
int ilog2(std::uint64_t x) noexcept;

/// ceil(log2(x)) for x >= 1 (0 for x == 1).
int ceil_log2(std::uint64_t x) noexcept;

/// Number of bits needed to write x in binary (bit_width); 0 for x == 0.
int bit_width_u64(std::uint64_t x) noexcept;

/// Iterated binary logarithm: log*(x) = 0 if x <= 1, else 1 + log*(log2(x)).
/// Uses the real-valued log2 on the first step and integer floors afterwards;
/// log* is so flat that the convention only shifts values by at most 1.
int log_star(double x) noexcept;

/// Range `part` of [0, total) cut into `parts` contiguous ranges: the
/// first total % parts take one element more than the rest.
inline std::pair<std::size_t, std::size_t> near_equal_range(std::size_t total, std::size_t parts,
                                                            std::size_t part) noexcept {
  const std::size_t base = total / parts;
  const std::size_t extra = total % parts;
  const std::size_t begin = part * base + std::min(part, extra);
  return {begin, begin + base + (part < extra ? 1 : 0)};
}

}  // namespace avglocal::support
