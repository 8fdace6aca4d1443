// The paper's Section 2 recurrence and its extremal constructions.
//
//   a(p) = max_{1 <= k <= ceil(p/2)} { k + a(k-1) + a(p-k) },  a(0)=0, a(1)=1
//
// a(p) is the worst case, over identifier arrangements, of the sum of
// radiuses of the straightforward largest-ID algorithm on a p-vertex
// segment whose two walls carry identifiers larger than everything inside.
// The paper notes a(n) is Theta(n log n) and points at OEIS A000788; our
// tests verify a(p) == A000788(p) exactly.
//
// On the n-cycle the worst-case radius sum is ceil((n-1)/2) + a(n-1): the
// maximum-identifier vertex pays the closure radius and the remaining n-1
// vertices form a segment walled by it on both sides.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/ids.hpp"

namespace avglocal::analysis {

/// Dynamic program for a(p) with argmax bookkeeping. Construction is
/// O(max_p^2); queries are O(1).
class Recurrence {
 public:
  /// Tabulates a(0..max_p).
  explicit Recurrence(std::size_t max_p);

  std::size_t max_p() const noexcept { return a_.size() - 1; }

  /// a(p); p <= max_p.
  std::uint64_t a(std::size_t p) const;

  /// The smallest maximising split position k for p >= 2.
  std::size_t best_k(std::size_t p) const;

 private:
  std::vector<std::uint64_t> a_;
  std::vector<std::size_t> best_k_;
};

/// Worst-case identifier assignment on the n-cycle (identifiers {1..n}):
/// id n at vertex 0, and on vertices 1..n-1 the worst-case segment: the
/// segment maximum sits at distance best_k from the nearer wall, and each
/// side recurses. Any order-isomorphic identifier set behaves identically.
graph::IdAssignment worst_case_cycle_ids(const Recurrence& rec, std::size_t n);

/// ceil((n-1)/2) + a(n-1): the predicted worst-case radius sum on the
/// n-cycle (validated by simulation and exhaustive search in tests).
std::uint64_t predicted_worst_cycle_sum(const Recurrence& rec, std::size_t n);

}  // namespace avglocal::analysis
