// Greedy (Delta+1)-colouring by identifier order, on any graph.
//
// The classic sequential greedy algorithm made distributed: a vertex waits
// until every neighbour with a *larger* identifier has committed a colour,
// then takes the smallest colour unused by those neighbours. The colouring
// is proper with at most Delta+1 colours, and the radius (round) at which a
// vertex outputs equals the length of the longest strictly-increasing
// identifier path starting at it.
//
// This makes the algorithm a second showcase - beyond the paper's
// largest-ID - of an exponential gap between the measures, this time on
// *every* bounded-degree topology: the worst-case identifier assignment
// (monotone along a long path) forces Theta(n) rounds on paths/cycles,
// while under a random permutation the longest increasing path from a fixed
// vertex is O(log n) in bounded-degree graphs, so the average radius stays
// logarithmic. Extends the paper's Section 4 "general graphs" question.
#pragma once

#include "local/engine.hpp"
#include "local/view_engine.hpp"

namespace avglocal::algo {

/// Message-passing variant (any connected graph, unknown n).
local::AlgorithmFactory make_greedy_colouring_messages();

/// Ball-formulation variant: a vertex outputs once its ball contains every
/// strictly-increasing identifier path that starts at it (so it can replay
/// the greedy order locally). Radii match the message variant exactly.
local::ViewAlgorithmFactory make_greedy_colouring_view();

}  // namespace avglocal::algo
