// Cache-line-aligned storage for the batch kernels.
//
// The SIMD layer (support/simd.hpp) assumes its hot arrays start on a
// 64-byte boundary: the id storage of graph::IdAssignment, the per-slot id
// buffers of the view engine and the driver's edge arrays are all
// allocated through AlignedAllocator so the kernels' bases are aligned by
// construction (debug asserts pin the invariant where assignments are
// built).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace avglocal::support {

/// One x86/ARM cache line; also the widest vector the kernels use (AVX2
/// tiles are 32 bytes, so a 64-byte base keeps every tile in-line).
inline constexpr std::size_t kCacheLine = 64;

/// Minimal C++17-style allocator whose allocations start on an `Align`-byte
/// boundary. Goes through the aligned global operator new, so binaries that
/// install the allocation-counting hook (support/alloc_hook.hpp) count
/// these allocations like any other.
template <typename T, std::size_t Align = kCacheLine>
class AlignedAllocator {
 public:
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t count) {
    return static_cast<T*>(::operator new(count * sizeof(T), std::align_val_t{Align}));
  }

  void deallocate(T* ptr, std::size_t) noexcept {
    ::operator delete(ptr, std::align_val_t{Align});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) noexcept {
    return true;
  }
};

/// std::vector whose data() is 64-byte aligned (for every capacity).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// True when `ptr` sits on an `align`-byte boundary.
inline bool is_aligned(const void* ptr, std::size_t align = kCacheLine) noexcept {
  // Inspects alignment bits only - the address never feeds a seed or a
  // result value. avglocal-lint: allow(raw-entropy)
  return (reinterpret_cast<std::uintptr_t>(ptr) & (align - 1)) == 0;
}

}  // namespace avglocal::support
