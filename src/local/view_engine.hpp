// The ball/view engine: runs a view-driven algorithm to completion on every
// vertex and records the radius profile r(v).
//
// This engine is the measurement ground truth of the reproduction: r(v) is
// literally "the radius at which the algorithm chooses to output" from the
// paper. Vertices are processed independently (the model's nodes do not
// interact in this formulation; all interaction is captured by the view).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "local/metrics.hpp"
#include "local/view.hpp"
#include "support/thread_pool.hpp"

namespace avglocal::local {

/// Per-vertex behaviour in the ball formulation of the LOCAL model.
///
/// The engine calls on_view with the vertex's view at radii 0, 1, 2, ...;
/// returning a value commits the output and stops the vertex; nullopt grows
/// the ball by one. Implementations may keep state across calls (one
/// instance serves one vertex).
class ViewAlgorithm {
 public:
  virtual ~ViewAlgorithm() = default;

  virtual std::optional<std::int64_t> on_view(const BallView& view) = 0;

  /// Returns this instance to its initial state so it can serve a fresh
  /// vertex, as if newly constructed. Implementations supporting reuse
  /// return true; the default returns false and the engine constructs a new
  /// instance instead. The batched engine calls this once per
  /// (vertex, assignment), so supporting it removes one allocation per run.
  /// Only observable state must reset: an instance may keep scratch buffers
  /// and their capacity across reset(), which is what makes a reused
  /// instance's on_view allocation-free once they have grown.
  virtual bool reset() noexcept { return false; }

  /// Smallest radius at which this instance could possibly commit on a view
  /// that does not yet cover the graph. Both engines skip on_view below
  /// this bound while !covers_graph - a contract, not a heuristic: the
  /// implementation guarantees the skipped calls would have returned
  /// nullopt, so radii are unaffected and the engine saves one virtual call
  /// per vertex per skipped radius. The default (0) never skips. Examples:
  /// largest-id can never commit on a 1-vertex non-covering view (1), and
  /// schedule-driven algorithms wait for a fixed target radius.
  virtual std::size_t min_radius() const noexcept { return 0; }

  /// Declares that on_view reads only `radius`, `ids`, `size()` and
  /// `covers_graph` - never `dist`, `ports` or anything derived from them
  /// (degree_of, extract_ring_view, ...). The batched engine runs such
  /// algorithms in its sequential mode, which grows only the bare
  /// BallLayers core (discovery order, per-radius sizes, coverage) and
  /// hands out views with exact identifiers, radius and coverage but empty
  /// dist/ports. Opt-in and a hard contract: an implementation that reads
  /// edge or distance data after returning true sees empty arrays. The
  /// default (false) always receives complete views.
  virtual bool ids_only_view() const noexcept { return false; }
};

/// Creates one ViewAlgorithm instance per vertex.
using ViewAlgorithmFactory = std::function<std::unique_ptr<ViewAlgorithm>()>;

/// Wall-clock breakdown of one serial run_views_batched call, accumulated
/// when ViewEngineOptions::phase_stats points here. Identifies which phase
/// a throughput regression lives in (bench_regression records it in
/// BENCH_core.json).
struct BatchPhaseStats {
  /// Shared BFS growth: the bare BallLayers core in sequential mode, the
  /// BallGrower (core plus dist and port rows) in lockstep mode, layer
  /// jumps included.
  double grow_sec = 0;
  double gather_sec = 0;  ///< id gathers (lockstep and sequential)
  double eval_sec = 0;    ///< algorithm on_view calls + result sink
};

struct ViewEngineOptions {
  ViewSemantics semantics = ViewSemantics::kInducedBall;

  /// Worker pool over which run_views_batched sweeps vertices in parallel
  /// (not owned; may be shared across calls). nullptr or a size-1 pool runs
  /// the serial path; run_views is the serial reference and rejects a
  /// non-null pool. Results are bit-identical regardless of pool size:
  /// vertices are independent and outputs are written to per-vertex slots.
  /// With a pool, the factory (and the algorithms it creates) are invoked
  /// from multiple threads at once, so both must be safe to call
  /// concurrently - factories capturing shared mutable state need the
  /// serial path or their own synchronisation.
  support::ThreadPool* pool = nullptr;

  /// When non-null, run_views_batched accumulates a wall-clock phase
  /// breakdown here. Serial path only: ignored when a multi-worker pool is
  /// set (workers would race on the accumulator).
  BatchPhaseStats* phase_stats = nullptr;
};

/// Runs the algorithm on every vertex of g and returns outputs and radii:
/// the serial reference sweep, one BallGrower, its buffers and one id
/// buffer (gathered per layer over the discovery order and bound before
/// each on_view call) reused across all vertices (allocation-free steady
/// state). options.pool must be null;
/// parallel sweeps go through run_views_batched. A vertex whose radius
/// reaches the vertex count without output (a non-terminating algorithm)
/// throws std::runtime_error, here and in run_views_batched.
RunResult run_views(const graph::Graph& g, const graph::IdAssignment& ids,
                    const ViewAlgorithmFactory& factory, const ViewEngineOptions& options = {});

/// Runs the algorithm on every vertex under every id-assignment of `batch`
/// in one pass, vertices as the outer loop: each vertex's ball geometry is
/// grown once and every assignment is evaluated over it, so the per-trial
/// cost is an identifier gather plus the algorithm itself - rather than a
/// full BFS regrowth as in per-trial run_views calls. ids_only_view
/// algorithms run in sequential mode: one assignment at a time over a bare
/// BallLayers core (discovery order, per-radius sizes, coverage), replayed
/// through the recorded sizes. Other algorithms run in lockstep mode: every
/// assignment advances in step over one BallGrower's full view. A worker
/// builds only its mode's state. Every assignment must match the graph. Results stream through `sink` instead of
/// materialising batch.size() RunResults; outputs and radii are
/// bit-identical to run_views on each assignment, for every pool size.
/// `trial` in the sink is the index within `batch`. With a pool, workers
/// invoke the sink concurrently for disjoint vertex sets: each (trial, v)
/// cell has one caller, so a sink writing only that cell needs no locking.
void run_views_batched(const graph::Graph& g, std::span<const graph::IdAssignment> batch,
                       const ViewAlgorithmFactory& factory, const ViewEngineOptions& options,
                       const ResultSink& sink);

}  // namespace avglocal::local
