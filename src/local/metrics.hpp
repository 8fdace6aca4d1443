// Run results and the paper's two running-time measures.
//
// For a run of an algorithm on a graph with identifiers, r(v) is the radius
// (equivalently, the round) at which vertex v committed its output. The
// classic measure is max_v r(v); the paper's measure is avg_v r(v).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace avglocal::local {

/// Per-vertex radii r(v) of one run.
using RadiusProfile = std::vector<std::size_t>;

/// Outcome of one simulation run (either engine).
struct RunResult {
  /// outputs[v] = the value vertex v committed.
  std::vector<std::int64_t> outputs;

  /// radii[v] = r(v): ball radius (view engine) or round number (message
  /// engine) at which v output.
  RadiusProfile radii;

  /// Message engine only: total rounds executed until the last output.
  std::size_t rounds = 0;

  /// Message engine only: total messages and 64-bit words sent.
  std::uint64_t messages = 0;
  std::uint64_t words = 0;

  /// Message engine only: on_start and on_round calls made. n·(rounds + 1)
  /// when every node is stepped to the end; Σ_v (r(v) + 1) when every node
  /// halts after output (Algorithm::halts_after_output).
  std::uint64_t node_steps = 0;

  /// max_v r(v) - the classic worst-case measure of this run.
  std::size_t max_radius() const noexcept;

  /// sum_v r(v).
  std::uint64_t sum_radius() const noexcept;

  /// avg_v r(v) - the paper's measure of this run.
  double average_radius() const noexcept;
};

/// Per-(trial, vertex) result callback of both batched engines
/// (run_views_batched, MessageBatchRunner::run): under the batch's
/// `trial`-th assignment, v committed `output` at `radius` = r(v).
using ResultSink = std::function<void(std::size_t trial, graph::Vertex v, std::int64_t output,
                                      std::size_t radius)>;

/// Exact radius distribution accumulator: counts()[r] = number of
/// (vertex, run) samples whose radius is r. All state is integer counts, so
/// merging partial histograms - across workers of a pooled sweep or shards
/// of a distributed one - is exact and order-independent: any merge order
/// reproduces the monolithic totals bit for bit. This carries the averaged
/// measures of arXiv:1704.05739 (node- and ID-averaged radius, percentile
/// profiles) through batched sweeps.
class RadiusHistogram {
 public:
  RadiusHistogram() = default;

  /// Wraps existing bin counts (e.g. parsed from a shard artefact).
  /// Trailing zero bins are trimmed so equality and merge results are
  /// representation-independent.
  explicit RadiusHistogram(std::vector<std::uint64_t> counts);

  /// Adds another histogram's counts into this one (exact).
  void merge(const RadiusHistogram& other);

  std::uint64_t samples() const noexcept { return samples_; }
  bool empty() const noexcept { return samples_ == 0; }

  /// Bin counts; the last bin (if any) is nonzero.
  std::span<const std::uint64_t> counts() const noexcept { return counts_; }

  /// Mean radius over all samples: the node- and ID-averaged complexity of
  /// the recorded runs. 0 when empty.
  double mean() const noexcept;

  /// Largest radius observed (0 when empty).
  std::size_t max_radius() const noexcept;

  /// Smallest radius whose cumulative count reaches q * samples(), q in
  /// [0, 1] (q = 0.5 is the median radius). Requires a non-empty histogram.
  std::size_t quantile(double q) const;

  friend bool operator==(const RadiusHistogram&, const RadiusHistogram&) = default;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t samples_ = 0;
};

}  // namespace avglocal::local
