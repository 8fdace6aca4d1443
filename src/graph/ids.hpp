// Identifier assignments: the mapping from simulator vertices to the
// distinct IDs that LOCAL algorithms actually see.
//
// The paper measures worst case over the *permutation of the identifiers*;
// by default IDs are a permutation of {1, ..., n}, but any set of distinct
// 64-bit values is supported.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.hpp"

namespace avglocal::graph {

/// Assignment of one distinct identifier per vertex. Immutable except
/// through refill_random, which keeps the identifiers distinct.
class IdAssignment {
 public:
  /// Wraps an explicit id vector (ids[v] = identifier of vertex v).
  /// Throws if ids are not pairwise distinct or the vector is empty.
  explicit IdAssignment(std::vector<std::uint64_t> ids);

  /// Identity permutation: vertex v gets ID v+1.
  static IdAssignment identity(std::size_t n);

  /// Uniformly random permutation of {1..n}. Constructed through the
  /// trusted path: a Fisher-Yates shuffle of {1..n} is distinct by
  /// construction, so the O(n log n) sort-and-check of the public
  /// constructor is skipped (debug builds still assert distinctness).
  /// One allocation (the id vector), no sort.
  static IdAssignment random(std::size_t n, support::Xoshiro256& rng);

  /// Replaces this assignment with the permutation random(n, rng) would
  /// return, drawing the same stream, in the existing storage: no
  /// allocation unless n exceeds every size this assignment has held.
  /// The sweep hot loop (core::fill_sweep_batch).
  void refill_random(std::size_t n, support::Xoshiro256& rng);

  std::size_t size() const noexcept { return ids_.size(); }

  std::uint64_t id_of(std::uint32_t v) const noexcept { return ids_[v]; }

  std::span<const std::uint64_t> ids() const noexcept { return ids_; }

  /// Vertex holding the maximum identifier.
  std::uint32_t argmax() const noexcept;

  /// A copy with the identifiers of vertices u and v exchanged.
  IdAssignment with_swapped(std::uint32_t u, std::uint32_t v) const;

 private:
  /// Tag for constructors whose input is distinct by construction.
  struct Trusted {};

  /// Trusted path: skips the duplicate check in release builds (a debug
  /// assert keeps the contract honest). Used by identity and random,
  /// whose outputs are permutations by construction.
  IdAssignment(std::vector<std::uint64_t> ids, Trusted);

  /// ids() is the source array of the view engine's per-trial id gather.
  std::vector<std::uint64_t> ids_;
};

}  // namespace avglocal::graph
