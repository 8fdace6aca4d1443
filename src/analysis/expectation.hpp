// Expected complexity over uniformly random identifier permutations - the
// question raised in the paper's conclusion ("it would also be interesting
// to begin to study the expectancy of the running time ... where the
// permutation of the identifiers is taken uniformly at random, for both the
// classic and the new measure").
//
// For the straightforward largest-ID algorithm on the n-cycle:
//  * the classic measure is deterministic: the maximum-identifier vertex
//    always needs the closure radius ceil((n-1)/2), every other vertex needs
//    less, so max_v r(v) = ceil((n-1)/2) for every permutation;
//  * the average measure concentrates: E[r(v)] has the exact closed form
//      E[r(v)] = sum_{d=1}^{ceil((n-1)/2)} 1/(2d-1)  ~  (ln n)/2 + O(1),
//    since r(v) >= d iff v holds the maximum of its (2d-1)-window.
// The universe-aware refinement admits an exact hypergeometric formula,
// conditioning on the rank of the vertex's own identifier.
#pragma once

#include <cstddef>

namespace avglocal::analysis {

/// Exact E[r(v)] (= E[average radius], by symmetry) of the paper's
/// largest-ID algorithm on the n-cycle under a uniform permutation.
double expected_largest_id_average(std::size_t n);

/// Exact E[r(v)] of the universe-aware refinement (identifiers known to be
/// a permutation of {1..n}) under a uniform permutation.
double expected_universe_aware_average(std::size_t n);

/// The classic measure of the run, identical for every permutation:
/// ceil((n-1)/2).
std::size_t deterministic_largest_id_max(std::size_t n);

}  // namespace avglocal::analysis
