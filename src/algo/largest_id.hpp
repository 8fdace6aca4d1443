// The paper's Section 2 problem and algorithm: largest ID.
//
// Every vertex must output Yes (1) iff it holds the largest identifier in
// the graph - the classic way to elect a leader. The "straightforward
// algorithm" from the paper: each node increases its radius until it
// discovers an identifier larger than its own (output No), or until it has
// seen the whole graph (output Yes).
//
// This stopping rule is *pointwise minimal* for every correct algorithm
// when n is unknown: a view with no larger identifier and without provable
// closure extends both to instances where the node is the maximum and to
// instances where it is not, so no correct algorithm can stop earlier at any
// vertex (tests/analysis validate this exhaustively at small n). Measuring
// this algorithm therefore measures the problem.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "local/engine.hpp"
#include "local/view_engine.hpp"

namespace avglocal::algo {

/// Output values of the largest-ID problem.
inline constexpr std::int64_t kNo = 0;
inline constexpr std::int64_t kYes = 1;

/// Ball-formulation implementation; works on any connected graph.
local::ViewAlgorithmFactory make_largest_id_view();

/// Universe-aware refinement (extension, not in the paper): when identifiers
/// are known to be a permutation of {1..n} (with n itself unknown), a vertex
/// with identifier x may also output No as soon as its open ball spans
/// 2r+1 >= x vertices: any consistent completion has size > 2r+1 >= x, and
/// its maximum identifier equals its size, so some unseen identifier exceeds
/// x. Pointwise minimal for the known-universe semantics; the bench compares
/// its average radius against the paper's algorithm.
local::ViewAlgorithmFactory make_largest_id_universe_aware_view();

/// Message-passing implementation for cycles: every node floods its
/// identifier as a one-word token, relayed out of the opposite port, so each
/// port delivers one new origin per round. A node outputs No as soon as the
/// running maximum exceeds its own identifier, and Yes once one origin has
/// arrived on both ports (in one round for even n, in consecutive rounds for
/// odd n): that origin is the antipode, so every vertex has been heard. Each
/// node holds a constant number of words. Radii match the flooding-knowledge
/// view semantics.
local::AlgorithmFactory make_largest_id_messages();

/// Analytic per-vertex radius of the view algorithm on a cycle under
/// induced-ball semantics: r(v) = min(distance to a vertex with a larger
/// identifier, ceil((n-1)/2)). Used by tests and by the exhaustive search
/// (it avoids running the engine in inner loops).
std::vector<std::size_t> largest_id_radii_on_cycle(const graph::IdAssignment& ids);

}  // namespace avglocal::algo
