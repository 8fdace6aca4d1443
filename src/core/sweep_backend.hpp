// The engine-agnostic sweep backend interface.
//
// The paper's average-complexity measures are engine-independent: node- and
// edge-averaged statistics (arXiv:1704.05739, arXiv:2208.08213) come out of
// the same exact-integer PointAccumulators whether trials run through the
// view engine or the message engine. A SweepBackend is the one seam where
// the engines differ: it prepares identifier-independent per-point state
// (ball geometry caches, arena-backed engines, per-size algorithm
// factories) and runs batches of id-assignments into a radius matrix. All
// the engine-independent machinery - deriving (seed, point, trial) streams,
// batching, the thread pool, splitting trial ranges across workers, folding
// radii into node and edge partials, merging partials - lives in
// core::SweepDriver (core/sweep_driver.hpp), written once for every backend.
//
// Contract for implementations:
//  * prepare(g, point) may cache anything derived from the graph and the
//    point index, never from identifiers: the driver reuses the state
//    across batches, adaptive rounds and sharded trial ranges, and results
//    must be bit-identical to a fresh state per call (the conformance suite
//    in tests/test_sweep_backend.cpp pins this against the golden corpus).
//  * run_batch writes radius_matrix[t * n + v] for every trial t of the
//    batch (its index within `batch`) and every vertex v, and nothing
//    else: it never writes the accumulator. The driver derives every node
//    and edge partial from the matrix (core::accumulate_partials), so the
//    measures have one definition for every engine.
//  * A prepared state is confined to one worker at a time; parallelism
//    across a state is declared via parallel_granularity and orchestrated
//    by the driver, never improvised by the backend.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>

#include "core/batched_sweep.hpp"
#include "core/memory_model.hpp"
#include "local/engine.hpp"
#include "support/thread_pool.hpp"

namespace avglocal::core {

/// Builds the message-algorithm factory for the size-n member of a family
/// (the message analogue of AlgorithmProvider).
using MessageAlgorithmProvider = std::function<local::AlgorithmFactory(std::size_t)>;

/// Identifier-independent state a backend prepares once per (graph, point)
/// and reuses across every trial range the driver runs through it.
class BackendPointState {
 public:
  virtual ~BackendPointState() = default;
};

class SweepBackend {
 public:
  /// How the driver may parallelise one point's trial range:
  ///  * kVertices: one run_batch call shares its vertices across the pool
  ///    (the view engine parallelises internally; the driver passes the
  ///    pool through);
  ///  * kTrials: runs are inherently sequential over a state (message
  ///    engine: all nodes of a run interact through the arenas), so the
  ///    driver splits the trial range into contiguous chunks, runs each on
  ///    a private per-lane state, and appends the partials in trial order.
  enum class Granularity { kVertices, kTrials };

  virtual ~SweepBackend() = default;

  /// Engine label as carried by ScenarioSpec::engine and shard artefact
  /// metas: "view" or "message".
  virtual std::string_view name() const noexcept = 0;

  /// Descriptive only: true when one prepared state amortises warm-up
  /// across a whole batch of assignments (both bundled backends do). No
  /// driver code reads it; it stays because the benchmark's tracing
  /// decorator (perfbench/trace.hpp) overrides it.
  virtual bool supports_batching() const noexcept = 0;

  virtual Granularity parallel_granularity() const noexcept = 0;

  /// Builds the per-point state for point `point_index` on `g`. Called by
  /// the driver once per (point, worker lane), never per batch or round,
  /// and always on the driver's calling thread - so algorithm providers
  /// need not be safe to invoke concurrently (run_batch, by contrast, may
  /// execute on pool workers, and view factories are invoked from workers
  /// exactly as documented on ViewEngineOptions::pool).
  virtual std::unique_ptr<BackendPointState> prepare(const graph::Graph& g,
                                                     std::size_t point_index) const = 0;

  /// Runs the id-assignments of `batch` through `state`, writing r(v)
  /// under assignment t into radius_matrix[t * n + v] (which holds at least
  /// batch.size() * n entries) and nothing else. `pool` is non-null only
  /// for kVertices backends. `batch_begin` and `acc` are unused: they stay
  /// because the benchmark's tracing decorator (perfbench/trace.hpp)
  /// overrides this signature, and go with supports_batching in the next
  /// change to the benchmark.
  virtual void run_batch(BackendPointState& state, std::span<const graph::IdAssignment> batch,
                         std::size_t batch_begin, support::ThreadPool* pool,
                         PointAccumulator& acc, std::span<std::uint32_t> radius_matrix) const = 0;

  /// Resident-footprint model of one lane sweeping `g` through this
  /// backend (driver-owned buffers included). SweepDriver inverts it to
  /// derive batch widths from BatchedSweepOptions::memory_budget_bytes;
  /// tests and the bench assert real alloc-hook bytes stay inside it.
  virtual SweepMemoryModel memory_model(const graph::Graph& g) const noexcept = 0;
};

/// The ball-formulation backend, wrapping local::run_views_batched: ball
/// geometry is grown once per vertex and replayed per assignment, and one
/// call parallelises over vertices (Granularity::kVertices).
class ViewBackend final : public SweepBackend {
 public:
  ViewBackend(AlgorithmProvider algorithms,
              local::ViewSemantics semantics = local::ViewSemantics::kInducedBall);

  std::string_view name() const noexcept override { return "view"; }
  bool supports_batching() const noexcept override { return true; }
  Granularity parallel_granularity() const noexcept override { return Granularity::kVertices; }
  std::unique_ptr<BackendPointState> prepare(const graph::Graph& g,
                                             std::size_t point_index) const override;
  void run_batch(BackendPointState& state, std::span<const graph::IdAssignment> batch,
                 std::size_t batch_begin, support::ThreadPool* pool, PointAccumulator& acc,
                 std::span<std::uint32_t> radius_matrix) const override;
  SweepMemoryModel memory_model(const graph::Graph& g) const noexcept override;

 private:
  AlgorithmProvider algorithms_;
  local::ViewSemantics semantics_;
};

/// The message-formulation backend, wrapping a persistent
/// local::MessageBatchRunner per prepared state: topology tables and arenas
/// are built once per (point, lane) and rebound per assignment, surviving
/// adaptive rounds. Runs are sequential over a state
/// (Granularity::kTrials), so the driver parallelises by giving each pool
/// worker lane its own engine over a disjoint trial range. Radii are the
/// rounds at which nodes output; the driver feeds both backends the same
/// (seed, point, trial) permutations, which is what lets the cross-engine
/// oracle tests compare the two formulations sample by sample. `knowledge`
/// is part of the workload (carried by the algorithm registry); the round
/// cap is local::EngineOptions' default.
class MessageBackend final : public SweepBackend {
 public:
  MessageBackend(MessageAlgorithmProvider algorithms,
                 local::Knowledge knowledge = local::Knowledge::kUnknownN);

  std::string_view name() const noexcept override { return "message"; }
  bool supports_batching() const noexcept override { return true; }
  Granularity parallel_granularity() const noexcept override { return Granularity::kTrials; }
  std::unique_ptr<BackendPointState> prepare(const graph::Graph& g,
                                             std::size_t point_index) const override;
  void run_batch(BackendPointState& state, std::span<const graph::IdAssignment> batch,
                 std::size_t batch_begin, support::ThreadPool* pool, PointAccumulator& acc,
                 std::span<std::uint32_t> radius_matrix) const override;
  SweepMemoryModel memory_model(const graph::Graph& g) const noexcept override;

 private:
  MessageAlgorithmProvider algorithms_;
  local::Knowledge knowledge_;
};

}  // namespace avglocal::core
