// The paper's two running-time measures, as values computed from runs.
//
// For an algorithm A, a graph G and an identifier assignment sigma, the run
// produces radii r(v). The classic (worst-case) measure of the run is
// max_v r(v); the paper's average measure is (sum_v r(v)) / n. The
// complexity of A at size n is the maximum of these quantities over sigma
// (and over graphs of size n), which the library approaches by explicit
// adversarial constructions, exhaustive search at small n, and random
// sampling.
//
// Alongside the node-averaged family sits the *edge-averaged* family of
// arXiv:2208.08213: an edge e = {u, v} finishes when both endpoints have
// output, at time t(e) = max(r(u), r(v)), and the edge-averaged measure of
// the run is (sum_e t(e)) / m. Edges are enumerated canonically (each
// undirected edge once, by its smaller CSR arc index), so every layer -
// single-run measures, batched sweeps, message sweeps, shard merges -
// counts the exact same multiset of edge times.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "local/metrics.hpp"
#include "support/annotations.hpp"

namespace avglocal::core {

/// Both measures of one run.
struct Measurement {
  std::size_t n = 0;
  std::uint64_t sum_radius = 0;
  std::size_t max_radius = 0;
  double avg_radius = 0.0;
};

/// Extracts the measures from a run result.
Measurement measure(const local::RunResult& run);

/// max / avg: the per-run gap between the two measures (>= 1 whenever some
/// radius is positive).
double measure_gap(const Measurement& m);

/// Summary of the r(v) sample distribution over many runs: the averaged
/// measures of arXiv:1704.05739 (the mean is the node- and ID-averaged
/// radius; quantiles are the percentile profile of an "ordinary" node under
/// an "ordinary" identifier assignment) next to the worst-case tail.
struct RadiusDistribution {
  std::uint64_t samples = 0;
  double mean = 0.0;       ///< E over (vertex, assignment) of r(v)
  std::size_t max = 0;     ///< largest radius in any sample
  std::vector<double> probs;            ///< requested quantile probabilities
  std::vector<std::size_t> quantiles;   ///< quantiles[i] pairs with probs[i]

  friend bool operator==(const RadiusDistribution&, const RadiusDistribution&) = default;
};

/// Extracts the distribution measures from an accumulated histogram.
/// `probs` entries must lie in [0, 1]; quantiles of an empty histogram are
/// all zero.
RadiusDistribution summarize_radius_histogram(const local::RadiusHistogram& histogram,
                                              std::span<const double> probs);

/// The edge-averaged measures of one run (arXiv:2208.08213).
struct EdgeMeasurement {
  std::size_t edges = 0;
  std::uint64_t sum_time = 0;   ///< sum_e max(r(u), r(v))
  std::size_t max_time = 0;     ///< max_e max(r(u), r(v))
  double avg_time = 0.0;        ///< sum_time / edges (0 on edgeless graphs)
};

/// Computes the edge measures of a radius profile over `g` (radii indexed
/// by vertex, as in RunResult::radii).
EdgeMeasurement measure_edges(const graph::Graph& g, std::span<const std::size_t> radii);

/// The canonical undirected edge list of `g`: each edge {u, v} exactly once,
/// ordered by its smaller directed-arc index. Every edge-measure
/// accumulation walks this order, so histogram and sum partials are
/// reproducible across engines, batches and shards.
std::vector<std::pair<graph::Vertex, graph::Vertex>> canonical_edges(const graph::Graph& g);

/// THE definition of a run's edge times: t(e) = max(radii[u], radii[v])
/// over the canonical edge list, streamed to `sink(t)`; returns sum_e t(e).
/// Every consumer - single-run measures, both sweep engines' accumulators,
/// the oracle tests - goes through this one loop, so the edge convention
/// cannot drift between them. `radii` is indexed by vertex (any integral
/// element type: RunResult profiles are size_t, the sweeps' dense radius
/// matrices uint32).
template <typename Radii, typename Sink>
AVGLOCAL_HOT std::uint64_t for_each_edge_time(
    std::span<const std::pair<graph::Vertex, graph::Vertex>> edges, const Radii& radii,
    Sink&& sink) {
  std::uint64_t sum = 0;
  for (const auto& [v, u] : edges) {
    const auto t = static_cast<std::size_t>(std::max(radii[v], radii[u]));
    sink(t);
    sum += t;
  }
  return sum;
}

}  // namespace avglocal::core
