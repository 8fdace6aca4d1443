// Word-level helpers for the batch hot loops.
//
// Every host runs one scalar path; no kernel here carries an ISA
// specialisation. What is left:
//  * for_each_set_bit - count_trailing_zeros scans over the message arena's
//    presence bitmask, one 64-bit word at a time;
//  * active_isa       - the instruction-set label benches record next to
//    their numbers (always "scalar").
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "support/annotations.hpp"

namespace avglocal::support::simd {

/// Instruction set the hot loops run: always "scalar". Benches record it so
/// their numbers stay attributable to the code path that produced them.
inline const char* active_isa() noexcept { return "scalar"; }

/// Invokes fn(bit_index) for every set bit in [begin, end) of the mask
/// whose i-th bit is words[i >> 6] bit (i & 63), ascending. One
/// count_trailing_zeros per set bit, one load per 64 bits - never a
/// per-bit test. This is how the message engine drains a vertex's
/// contiguous presence window.
template <typename Fn>
AVGLOCAL_HOT inline void for_each_set_bit(const std::uint64_t* words, std::size_t begin,
                                          std::size_t end, Fn&& fn) {
  if (begin >= end) return;
  std::size_t w = begin >> 6;
  const std::size_t w_last = (end - 1) >> 6;
  std::uint64_t mask = words[w] & (~std::uint64_t{0} << (begin & 63));
  while (true) {
    if (w == w_last && (end & 63) != 0) {
      mask &= ~std::uint64_t{0} >> (64 - (end & 63));
    }
    while (mask != 0) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
    }
    if (w == w_last) return;
    mask = words[++w];
  }
}

}  // namespace avglocal::support::simd
