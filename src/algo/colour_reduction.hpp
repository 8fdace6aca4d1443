// Cole-Vishkin bit-reduction primitives and deterministic schedule
// simulators, shared by the known-n colouring, the view-formulation
// colouring, and the ring MIS algorithm.
//
// The classic iteration [Cole & Vishkin 1986]: on an oriented ring carrying
// a valid colouring, each vertex compares its colour with its successor's,
// finds the lowest differing bit i, and adopts colour 2*i + (own bit i).
// Validity is preserved and the palette shrinks log-star fast; from colours
// below 2^3 one further step lands below 6. Three class-elimination rounds
// (5, then 4, then 3) finish the job: same-class vertices are never adjacent
// in a valid colouring, so a whole class can safely recolour greedily at
// once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace avglocal::algo {

/// One bit-reduction step. Requires colour != successor_colour.
std::uint64_t cv_reduce(std::uint64_t colour, std::uint64_t successor_colour);

/// Number of cv_reduce iterations that brings *any* valid colouring with
/// colours < 2^bits down to colours < 6, uniformly over all vertices.
/// Grows as log*(2^bits).
int cv_iterations_to_six(int bits);

/// Total rounds of the known-n schedule for identifiers in [1, n]:
/// cv_iterations_to_six(bit_width(n)) reduction rounds plus 3 eliminations.
std::size_t cv_schedule_rounds(std::size_t n);

/// Simulates the full schedule on a complete ring given in clockwise order
/// (ring_ids[i+1] is the successor of ring_ids[i], wrapping around).
/// `t6` reduction iterations, then eliminations; returns the final
/// 3-colouring, indexed like ring_ids.
std::vector<std::uint64_t> cv_colour_ring(std::span<const std::uint64_t> ring_ids, int t6);

/// Simulates the schedule in place on a clockwise window of a larger ring.
/// The final colour of window position j is determined by positions
/// [j-3, j+t6+3], so only positions [3, window.size()-t6-3) get one; the
/// returned sub-span of `window` holds exactly those (its element 0 is
/// window position 3). Every other entry is left unspecified.
std::span<const std::uint64_t> cv_colour_window(std::span<std::uint64_t> window, int t6);

}  // namespace avglocal::algo
