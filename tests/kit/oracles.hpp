// Reference oracles the tests compare the library against. None of them is
// reached by a front door (sweep, merge/drive, serve/request, the fabric,
// experiments), so they live here and not in src/. Each keeps the
// namespace of the module it checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/recurrence.hpp"
#include "graph/family_registry.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "local/metrics.hpp"
#include "support/rng.hpp"

namespace avglocal::graph {

/// True when the graph is a simple cycle (connected, all degrees 2, n >= 3).
bool is_cycle(const Graph& g);

/// True when the graph is a simple path (connected, two degree-1 endpoints,
/// all other degrees 2; a single edge counts).
bool is_path(const Graph& g);

/// True when the graph is acyclic and connected.
bool is_tree(const Graph& g);

std::size_t min_degree(const Graph& g);

/// Reversed permutation: vertex v gets ID n-v.
IdAssignment reversed_ids(std::size_t n);

/// The exact vertex count a family realises for a requested size, through
/// the same size gate as FamilyRegistry::build.
std::size_t realised_size(const FamilyRegistry& families, const FamilySpec& spec, std::size_t n);

}  // namespace avglocal::graph

namespace avglocal::support {

/// Random permutation of {1, 2, ..., n} (the paper's ID universe).
std::vector<std::uint64_t> random_permutation(std::size_t n, Xoshiro256& rng);

/// Population count of x (number of set bits).
int popcount_u64(std::uint64_t x) noexcept;

}  // namespace avglocal::support

namespace avglocal::algo {

/// Sum of largest_id_radii_on_cycle - the quantity whose worst case over
/// permutations the paper's recurrence a(p) characterises.
std::uint64_t largest_id_radius_sum_on_cycle(const graph::IdAssignment& ids);

/// Analytic per-vertex radius of greedy colouring: the length of the
/// longest strictly-increasing identifier path starting at v, plus one
/// (a vertex must at least learn its neighbours' identifiers).
/// O((n + m) log n) via DAG dynamic programming.
std::vector<std::size_t> greedy_colouring_radii(const graph::Graph& g,
                                                const graph::IdAssignment& ids);

}  // namespace avglocal::algo

namespace avglocal::analysis {

/// Brute-force E[average radius] by enumerating all (n-1)! cyclic
/// arrangements; n <= 10. Used to validate the closed forms exactly.
double brute_force_expected_average(std::size_t n, bool universe_aware);

/// Worst-case arrangement of ranks {1..p} on a p-vertex segment (both walls
/// larger than p): the segment worst_case_cycle_ids places on vertices
/// 1..p of the (p+1)-cycle.
std::vector<std::uint64_t> worst_case_segment_ids(const Recurrence& rec, std::size_t p);

}  // namespace avglocal::analysis

namespace avglocal::core {

/// Adds every edge time of one run into `histogram` and returns their sum.
/// `edges` must come from canonical_edges(g) for the graph that produced
/// the radii.
std::uint64_t accumulate_edge_times(std::span<const std::pair<graph::Vertex, graph::Vertex>> edges,
                                    std::span<const std::size_t> radii,
                                    local::RadiusHistogram& histogram);

}  // namespace avglocal::core

namespace avglocal::local {

/// Records `count` samples of the given radius.
void add_samples(RadiusHistogram& histogram, std::size_t radius, std::uint64_t count = 1);

/// Records every radius of a run's profile.
void add_profile(RadiusHistogram& histogram, const RadiusProfile& radii);

}  // namespace avglocal::local
