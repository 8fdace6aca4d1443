// Portable SIMD kernels for the batch hot loops.
//
// Four kernels carry the batched engines' inner loops (see
// src/local/README.md for where each one sits):
//  * gather_u64       - the view engine's id gather dst[k] = src[idx[k]]
//    over a trial's own assignment array (lockstep and sequential modes);
//  * edge_times_u32   - the driver's per-edge times max(r(u), r(v)) over a
//    radius row (two 32-bit gathers and an unsigned max);
//  * copy_words       - bulk payload moves of the message arena;
//  * for_each_set_bit - count_trailing_zeros scans over the arena's
//    presence bitmask, one 64-bit word at a time.
//
// Dispatch is one ISA check cached per process: x86 builds compile an AVX2
// specialisation (per-function target attributes, no global -mavx2) and
// select it at runtime via cpu-supports; everything else - and any build
// configured with -DAVGLOCAL_SIMD=OFF (AVGLOCAL_SIMD_DISABLE) - runs the
// scalar reference. The scalar namespace is always compiled: tests pin
// every vector kernel bit-identical to it.
//
// No kernel does arithmetic that could round or reorder destination
// elements - they move words verbatim or take an unsigned max - so vector
// and scalar paths are bit-identical by construction, and the engines'
// outputs cannot depend on the ISA.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "support/annotations.hpp"

#if !defined(AVGLOCAL_SIMD_DISABLE) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define AVGLOCAL_SIMD_X86 1
#include <immintrin.h>
#endif

namespace avglocal::support::simd {

// ------------------------------------------------------------- scalar ----
// Reference implementations: the pre-vectorisation loop shapes, kept as the
// semantic ground truth every specialisation is pinned against.
namespace scalar {

/// dst[k] = src[k] for k in [0, count). Plain word loop.
inline void copy_words(std::uint64_t* dst, const std::uint64_t* src, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) dst[k] = src[k];
}

/// dst[k] = src[idx[k]] for k in [0, count).
inline void gather_u64(std::uint64_t* dst, const std::uint64_t* src, const std::uint32_t* idx,
                       std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) dst[k] = src[idx[k]];
}

/// dst[k] = max(radii[us[k]], radii[vs[k]]) for k in [0, count): the edge
/// time of canonical edge k under the radius profile `radii` (an edge is
/// decided when its slower endpoint is). SoA endpoint arrays so the vector
/// path is two gathers and a max.
inline void edge_times_u32(std::uint32_t* dst, const std::uint32_t* radii,
                           const std::uint32_t* us, const std::uint32_t* vs,
                           std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t a = radii[us[k]];
    const std::uint32_t b = radii[vs[k]];
    dst[k] = a > b ? a : b;
  }
}

}  // namespace scalar

// --------------------------------------------------------------- AVX2 ----
#if defined(AVGLOCAL_SIMD_X86)

namespace avx2 {

__attribute__((target("avx2"))) inline void gather_u64(std::uint64_t* dst,
                                                       const std::uint64_t* src,
                                                       const std::uint32_t* idx,
                                                       std::size_t count) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m128i vidx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + k));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + k),
        _mm256_i32gather_epi64(reinterpret_cast<const long long*>(src), vidx, 8));
  }
  for (; k < count; ++k) dst[k] = src[idx[k]];
}

__attribute__((target("avx2"))) inline void edge_times_u32(std::uint32_t* dst,
                                                           const std::uint32_t* radii,
                                                           const std::uint32_t* us,
                                                           const std::uint32_t* vs,
                                                           std::size_t count) {
  std::size_t k = 0;
  for (; k + 8 <= count; k += 8) {
    const __m256i iu = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(us + k));
    const __m256i iv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vs + k));
    const __m256i a = _mm256_i32gather_epi32(reinterpret_cast<const int*>(radii), iu, 4);
    const __m256i b = _mm256_i32gather_epi32(reinterpret_cast<const int*>(radii), iv, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + k), _mm256_max_epu32(a, b));
  }
  for (; k < count; ++k) {
    const std::uint32_t a = radii[us[k]];
    const std::uint32_t b = radii[vs[k]];
    dst[k] = a > b ? a : b;
  }
}

}  // namespace avx2

/// One cpuid probe per process; every dispatch below branches on it.
inline bool have_avx2() noexcept {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

#endif  // AVGLOCAL_SIMD_X86

// ----------------------------------------------------------- dispatch ----

/// Instruction set the kernels below actually run: "avx2" or "scalar".
/// Benches record it so BENCH_core.json numbers are attributable to the
/// hardware that produced them; the speedup gates only apply when a vector
/// ISA is active.
inline const char* active_isa() noexcept {
#if defined(AVGLOCAL_SIMD_X86)
  return have_avx2() ? "avx2" : "scalar";
#else
  return "scalar";
#endif
}

/// Bulk payload copy (non-overlapping). memmove-class on every ISA.
AVGLOCAL_HOT inline void copy_words(std::uint64_t* dst, const std::uint64_t* src,
                                    std::size_t count) {
  if (count != 0) std::memcpy(dst, src, count * sizeof(std::uint64_t));
}

/// dst[k] = src[idx[k]] for k in [0, count).
AVGLOCAL_HOT inline void gather_u64(std::uint64_t* dst, const std::uint64_t* src,
                                    const std::uint32_t* idx, std::size_t count) {
#if defined(AVGLOCAL_SIMD_X86)
  if (have_avx2()) return avx2::gather_u64(dst, src, idx, count);
#endif
  scalar::gather_u64(dst, src, idx, count);
}

/// Edge times over a radius profile (see scalar::edge_times_u32 for the
/// contract). Max of two unsigned gathers - no arithmetic that could
/// reorder or round, so vector and scalar are bit-identical.
AVGLOCAL_HOT inline void edge_times_u32(std::uint32_t* dst, const std::uint32_t* radii,
                                        const std::uint32_t* us, const std::uint32_t* vs,
                                        std::size_t count) {
#if defined(AVGLOCAL_SIMD_X86)
  if (have_avx2()) return avx2::edge_times_u32(dst, radii, us, vs, count);
#endif
  scalar::edge_times_u32(dst, radii, us, vs, count);
}

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
