// The vocabulary of batched random sweeps: options, exact-integer partials
// and the finalized point.
//
// A per-trial run (measure(local::run_views(...))) regrows every vertex's
// ball from scratch. The batched engine inverts the loops - vertices
// outside, assignments inside - so each vertex's ball geometry (BFS order,
// port structure: identifier-independent) is grown once and every
// assignment is evaluated over it (local::run_views_batched), and all
// per-trial state (id buffers, geometry, scratch, the algorithm instance
// where ViewAlgorithm::reset allows) is reused across the batch. core::SweepDriver
// (core/sweep_driver.hpp) runs every sweep through these types.
//
// Everything downstream of the engine is accumulated as exact integers
// (PointAccumulator), so partial results - per pool worker, or per shard of
// a distributed sweep (core/shard.hpp) - merge bit-identically into the
// monolithic sweep, independent of batching, sharding and thread schedule.
// Floating point appears only in finalize_point, which always iterates
// trials in global order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/measure.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "local/metrics.hpp"
#include "local/view_engine.hpp"
#include "support/thread_pool.hpp"

namespace avglocal::core {

/// Builds the size-n member of a graph family.
using GraphFactory = std::function<graph::Graph(std::size_t)>;

struct BatchedSweepOptions {
  std::size_t trials = 32;
  /// Master seed; trial t of point p runs the id permutation drawn from
  /// derive_seed(derive_seed(seed, p), t), whichever engine runs it.
  std::uint64_t seed = 42;
  /// Worker threads; 0 = hardware concurrency, explicit values honoured
  /// exactly. The view engine parallelises over vertices, so more workers
  /// than trials stay busy. Ignored when `pool` is set.
  std::size_t threads = 0;
  /// Optional externally owned worker pool, reused across sweeps.
  support::ThreadPool* pool = nullptr;
  /// Identifier assignments resident at once; 0 = the whole trial range.
  /// Smaller batches bound memory (~ batch_size * n * 12 bytes per point:
  /// the id buffers plus the radius matrix every partial is folded from) at the
  /// cost of regrowing ball geometry once per batch. Results do not depend
  /// on the batch size.
  std::size_t batch_size = 0;
  /// Resident-memory budget for one sweep point, in bytes; 0 = unlimited.
  /// When set, SweepDriver derives the batch width from the backend's
  /// bytes-per-trial model (core/memory_model.hpp, shared across all
  /// concurrent worker lanes) instead of fixed constants, clamping
  /// batch_size further if needed. A budget too small for even one
  /// resident trial per lane still runs at width 1 - the model's envelope
  /// is asserted against the alloc hook by tests and bench_regression, so
  /// an undershootable budget fails there rather than silently. Like
  /// batch_size, the budget never changes results, only footprint.
  std::size_t memory_budget_bytes = 0;
  /// Probabilities of the radius quantiles reported per point.
  std::vector<double> quantile_probs = {0.5, 0.9, 0.99};
  /// Also report the per-vertex mean radius profile (n doubles per point).
  bool node_profile = false;
};

/// Exact integer partials of (a trial range of) one sweep point. Every
/// field is a sum, maximum or count of per-run integers; merging worker or
/// shard partials in any order reproduces the monolithic totals bit for
/// bit.
struct PointAccumulator {
  std::size_t point_index = 0;
  std::size_t n = 0;
  std::size_t edges = 0;                 ///< edge count m of the point's graph
  std::size_t trial_begin = 0;           ///< global index of trial_sum[0]
  std::vector<std::uint64_t> trial_sum;  ///< per trial: sum_v r(v)
  std::vector<std::uint64_t> trial_max;  ///< per trial: max_v r(v)
  local::RadiusHistogram histogram;      ///< over all (vertex, trial) samples
  std::vector<std::uint64_t> node_sum;   ///< per vertex: sum over trials of r(v)
  /// Edge-averaged family (arXiv:2208.08213): per trial, sum over canonical
  /// edges of the edge time max(r(u), r(v)); the histogram counts every
  /// (edge, trial) sample. Both stay exact integers, so they merge exactly
  /// like the node measures.
  std::vector<std::uint64_t> trial_edge_sum;
  local::RadiusHistogram edge_histogram;

  std::size_t trial_count() const noexcept { return trial_sum.size(); }
  std::size_t trial_end() const noexcept { return trial_begin + trial_sum.size(); }

  /// Absorbs `other`, which must continue this accumulator's trial range
  /// (same point and n, other.trial_begin == this->trial_end()).
  void append(PointAccumulator&& other);

  friend bool operator==(const PointAccumulator&, const PointAccumulator&) = default;
};

/// Aggregate of one sweep point: the ID-averaged measures (bit-identical to
/// aggregating per-trial core::measure results in trial order) plus the
/// averaged measures of arXiv:1704.05739 - the full r(v) sample
/// distribution and the per-vertex (node-averaged) means.
struct BatchedSweepPoint {
  std::size_t n = 0;
  std::size_t trials = 0;

  // ID-averaged aggregates over trials.
  double avg_mean = 0.0;   ///< mean over trials of the per-run average radius
  double avg_sd = 0.0;     ///< sample sd of the per-run average radius
  double avg_worst = 0.0;  ///< worst per-run average radius observed
  double max_mean = 0.0;   ///< mean over trials of the per-run max radius
  std::size_t max_worst = 0;  ///< worst per-run max radius observed

  /// Distribution of r(v) over all (vertex, assignment) samples.
  RadiusDistribution radius;

  /// Node-averaged measures: extrema over vertices of E_sigma[r(v)].
  double node_mean_max = 0.0;
  double node_mean_min = 0.0;
  /// Per-vertex mean radii (only when options.node_profile).
  std::vector<double> node_mean;

  /// Edge-averaged measures (arXiv:2208.08213). edge_avg_mean/sd aggregate
  /// the per-trial edge averages (sum_e t(e) / m) exactly as avg_mean/sd
  /// aggregate the per-trial node averages; edge_time is the t(e)
  /// distribution over all (edge, assignment) samples, with the same
  /// quantile probabilities as `radius`. All zero on edgeless graphs.
  std::size_t edges = 0;
  double edge_avg_mean = 0.0;
  double edge_avg_sd = 0.0;
  RadiusDistribution edge_time;

  friend bool operator==(const BatchedSweepPoint&, const BatchedSweepPoint&) = default;
};

/// An accumulator with every field sized (and zeroed) for trials
/// [trial_begin, trial_end) of point (point_index, g). SweepDriver shapes
/// every backend's partials with it, so engines can never disagree on shape.
PointAccumulator make_point_accumulator(const graph::Graph& g, std::size_t point_index,
                                        std::size_t trial_begin, std::size_t trial_end);

/// Regenerates the sweep's id assignments for global trials
/// [global_begin, global_begin + count) of the point whose stream root is
/// `point_seed` (= derive_seed(options.seed, point_index)) into `batch`,
/// which ends up with exactly `count` entries. Entries already in `batch`
/// are refilled in place (IdAssignment::refill_random), so a lane that
/// reuses its batch allocates no id storage after warm-up. THE definition
/// of a sweep's id streams: SweepDriver calls it for every backend, which
/// is what makes a message sweep and a view sweep of one scenario run
/// identical permutations trial by trial.
void fill_sweep_batch(std::vector<graph::IdAssignment>& batch, std::size_t n,
                      std::uint64_t point_seed, std::size_t global_begin, std::size_t count);

/// THE fold from radii to partials: the only code that turns radii into
/// PointAccumulator fields (backends only fill the matrix). Folds one
/// batch's dense radius matrix (`batch_size` rows of n radii, row t =
/// global trial batch_begin + t) in one pass per row into that trial's sum,
/// maximum and edge sum and the per-vertex sums, and counts every radius
/// and edge time into the flat arrays `node_counts` and `edge_counts`
/// (grown on demand; local::RadiusHistogram(std::move(counts)) converts
/// each once per point). Edge times stream through for_each_edge_time
/// (core/measure.hpp), so the partials are the per-run measures by
/// construction. Other trials are left untouched. The driver's hot path.
void accumulate_partials(std::span<const std::pair<graph::Vertex, graph::Vertex>> edge_list,
                         std::span<const std::uint32_t> radius_matrix, std::size_t batch_begin,
                         std::size_t batch_size, PointAccumulator& acc,
                         std::vector<std::uint64_t>& node_counts,
                         std::vector<std::uint64_t>& edge_counts);

/// Derives the reported point from complete partials; the accumulator must
/// cover the full trial range [0, options.trials).
BatchedSweepPoint finalize_point(const PointAccumulator& acc, const BatchedSweepOptions& options);

/// Builds the view-algorithm factory for the size-n member of a family.
/// Schedule-driven algorithms (Cole-Vishkin, ring MIS) parameterise their
/// target radius on n, so a multi-point sweep needs one factory per point,
/// not one for the whole sweep.
using AlgorithmProvider = std::function<local::ViewAlgorithmFactory(std::size_t)>;

}  // namespace avglocal::core
