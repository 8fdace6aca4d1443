// The engine-agnostic sweep driver: one implementation of everything a
// sweep does besides running the engine.
//
// SweepDriver owns the pieces both engines used to duplicate:
//  * the (seed, point, trial) id streams (fill_sweep_batch is called here
//    and only here, so a view sweep and a message sweep of one scenario
//    run identical permutations trial by trial);
//  * batching (BatchedSweepOptions::batch_size bounds resident
//    assignments and the radius matrix, never results);
//  * the thread pool: kVertices backends get the pool passed into each
//    run_batch call (the view engine shares vertices across workers);
//    kTrials backends are parallelised by the driver itself - the trial
//    range splits into contiguous near-equal chunks, each chunk runs on a
//    private per-lane backend state (one arena-backed engine per lane),
//    and the partial accumulators append in trial order. Exact-integer
//    accumulators make the merge bit-identical to the serial path for
//    every pool size (conformance- and CI-pinned);
//  * every partial: backends only write the radius matrix, and the driver
//    folds it (accumulate_partials) into the per-trial sums and maxima, the
//    per-vertex sums, the edge times over the canonical edge list and the
//    flat radius counts, converted to histograms once per call;
//  * accumulator shaping and merging.
//
// Points are prepared once and reused: SweepDriver::Point carries the
// backend's prepared state (for the message backend: the engine, with its
// topology tables and arenas), the canonical edge list and all scratch
// buffers across run_trials calls, so adaptive TrialSchedule rounds stop
// rebuilding the world per batch of trials.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sweep_backend.hpp"

namespace avglocal::core {

/// Resolves the worker pool a sweep call should use: `options.pool` when
/// set, else an owned pool of options.threads workers (0 = hardware
/// concurrency). Shared by every sweep entry point so pool sizing rules
/// cannot drift between them.
class SweepPool {
 public:
  explicit SweepPool(const BatchedSweepOptions& options);
  support::ThreadPool* get() const noexcept { return pool_; }

 private:
  std::unique_ptr<support::ThreadPool> owned_;
  support::ThreadPool* pool_ = nullptr;
};

class SweepDriver {
 public:
  /// `backend` is not owned and must outlive the driver. `pool` may be
  /// null (serial); execution knobs never change results.
  SweepDriver(const SweepBackend& backend, BatchedSweepOptions options,
              support::ThreadPool* pool = nullptr);

  /// Prepared per-point state, reusable across run_trials calls (adaptive
  /// rounds, shard ranges). Holds the backend state per worker lane, the
  /// canonical edge list and reusable scratch; the graph must outlive it.
  class Point {
   public:
    Point() = default;
    Point(Point&&) noexcept = default;
    Point& operator=(Point&&) noexcept = default;

   private:
    friend class SweepDriver;
    struct Lane {
      std::unique_ptr<BackendPointState> state;
      std::vector<graph::IdAssignment> batch;
      std::vector<std::uint32_t> radius_matrix;
      std::vector<std::uint64_t> node_counts;
      std::vector<std::uint64_t> edge_counts;
    };
    const SweepBackend* backend_ = nullptr;  // who prepared the lane states
    const graph::Graph* g_ = nullptr;
    std::size_t point_index_ = 0;
    std::uint64_t point_seed_ = 0;
    std::vector<std::pair<graph::Vertex, graph::Vertex>> edge_list_;
    std::vector<Lane> lanes_;  // lane = trial-chunk slot; [0] serves serial runs
  };

  Point prepare(const graph::Graph& g, std::size_t point_index) const;

  /// Runs global trials [trial_begin, trial_end) of the prepared point and
  /// returns exact partials, bit-identical for every pool size, batch
  /// width and call pattern (one call or appended sub-ranges).
  PointAccumulator run_trials(Point& point, std::size_t trial_begin,
                              std::size_t trial_end) const;

  /// Whole-sweep convenience: options.trials trials of every size through
  /// prepare + run_trials + finalize_point.
  std::vector<BatchedSweepPoint> run(const std::vector<std::size_t>& ns,
                                     const GraphFactory& graphs) const;

  const BatchedSweepOptions& options() const noexcept { return options_; }
  const SweepBackend& backend() const noexcept { return *backend_; }

 private:
  /// `concurrent_lanes` is how many lanes share the point's memory budget
  /// at this moment (1 serial / kVertices, the chunk count for a kTrials
  /// split) - the divisor of SweepMemoryModel::max_batch.
  PointAccumulator run_lane(Point& point, std::size_t lane_index, std::size_t trial_begin,
                            std::size_t trial_end, support::ThreadPool* vertex_pool,
                            std::size_t concurrent_lanes) const;

  const SweepBackend* backend_;
  BatchedSweepOptions options_;
  support::ThreadPool* pool_;
};

}  // namespace avglocal::core
