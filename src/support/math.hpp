// Integer math helpers used across the reproduction: iterated logarithm
// (log*) and bit utilities.
#pragma once

#include <cstdint>

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

}  // namespace avglocal::support
