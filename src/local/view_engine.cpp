#include "local/view_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

using support::checked_u32;

namespace {

/// Runs one vertex on an already reset grower. Before each on_view call
/// the view's identifiers - `ids` over the discovery order - are gathered
/// into `view_ids` (only the layers it does not hold yet) and bound.
std::pair<std::int64_t, std::size_t> run_one(const graph::Graph& g, BallGrower& grower,
                                             const graph::IdAssignment& ids,
                                             std::vector<std::uint64_t>& view_ids,
                                             const ViewAlgorithmFactory& factory) {
  const std::size_t cap = g.vertex_count();
  const auto algorithm = factory();
  AVGLOCAL_REQUIRE_MSG(algorithm != nullptr, "view algorithm factory returned null");
  const std::size_t min_radius = algorithm->min_radius();
  view_ids.clear();
  while (true) {
    const BallView& view = grower.view();
    if (static_cast<std::size_t>(view.radius) >= min_radius || view.covers_graph) {
      const std::span<const graph::Vertex> order = grower.layers().order();
      for (std::size_t k = view_ids.size(); k < order.size(); ++k) {
        view_ids.push_back(ids.id_of(order[k]));
      }
      grower.bind_ids(view_ids);
      if (const auto output = algorithm->on_view(view)) {
        return {*output, static_cast<std::size_t>(view.radius)};
      }
    }
    if (static_cast<std::size_t>(view.radius) >= cap) {
      throw std::runtime_error("view engine: radius cap exceeded (non-terminating algorithm?)");
    }
    grower.grow();
  }
}

/// Identifiers a trial can hold without leaving its slot record. Covers the
/// radius-0..3 balls of low-degree graphs - where the bulk of all
/// (vertex, trial) runs finish - so most trials never touch a second
/// allocation.
constexpr std::size_t kInlineIds = 8;

/// One cache line: inline_ids starts on its own line so a slot's hot
/// identifiers never straddle two.
constexpr std::size_t kCacheLine = 64;

/// Everything one in-flight trial needs, in one record: the lockstep engine
/// touches per-trial state once per (vertex, trial, radius), so packing the
/// trial index, algorithm handle and id buffer together (instead of
/// spreading them over parallel arrays) is what bounds the cache lines per
/// touch - with hundreds of assignments in flight this loop is
/// memory-bound, not compute-bound. The trial's view identifiers (discovery
/// order) live in inline_ids until the ball outgrows it, then in spill;
/// `ids_for` hands out the right buffer and migrates at the boundary.
struct TrialSlot {
  std::uint32_t trial = 0;
  std::uint32_t min_radius = 0;  ///< cached ViewAlgorithm::min_radius()
  std::unique_ptr<ViewAlgorithm> algorithm;
  alignas(kCacheLine) std::array<std::uint64_t, kInlineIds> inline_ids;
  std::vector<std::uint64_t> spill;

  /// Storage holding `have` gathered identifiers, grown to hold `want`.
  std::uint64_t* ids_for(std::size_t have, std::size_t want) {
    if (want <= kInlineIds) return inline_ids.data();
    if (have <= kInlineIds) {
      spill.assign(inline_ids.begin(),
                   inline_ids.begin() + static_cast<std::ptrdiff_t>(have));
    }
    spill.resize(want);
    return spill.data();
  }
};

/// Per-worker state of the sequential mode: a bare geometry core, the live
/// trial's identifiers, the ids-only view handed to on_view and one
/// algorithm instance reused across runs. All buffers keep their capacity
/// across vertices and chunks.
struct SequentialWorker {
  BallLayers::Scratch scratch;
  BallLayers layers;
  std::vector<std::uint64_t> ids;
  BallView view;
  std::unique_ptr<ViewAlgorithm> algorithm;

  SequentialWorker(const graph::Graph& g, ViewSemantics semantics)
      : scratch(g.vertex_count()), layers(g, 0, semantics, scratch) {}
};

/// Per-worker state of the lockstep mode: one grower whose geometry is
/// shared by every assignment of the batch, and one TrialSlot per trial.
/// All buffers keep their capacity across vertices and chunks.
struct LockstepWorker {
  BallGrower::Scratch scratch;
  BallGrower grower;
  std::vector<TrialSlot> slots;       // one per trial (slot k = trial k)
  std::vector<std::uint32_t> active;  // slot indices in flight, ascending

  LockstepWorker(const graph::Graph& g, ViewSemantics semantics, std::size_t trials)
      : scratch(g.vertex_count()), grower(g, 0, semantics, scratch), slots(trials) {
    for (std::size_t t = 0; t < trials; ++t) slots[t].trial = checked_u32(t);
  }
};

/// Chained phase stopwatch: lap(&BatchPhaseStats::field) adds the time
/// since the previous lap to that field and restarts. A null stats pointer
/// turns every call into a no-op, keeping the hot loops branch-cheap when
/// nobody is measuring.
struct PhaseTimer {
  using Clock = std::chrono::steady_clock;
  BatchPhaseStats* stats;
  Clock::time_point mark;

  explicit PhaseTimer(BatchPhaseStats* s) : stats(s) {
    if (stats != nullptr) mark = Clock::now();
  }

  void lap(double BatchPhaseStats::* field) {
    if (stats == nullptr) return;
    const auto now = Clock::now();
    stats->*field += std::chrono::duration<double>(now - mark).count();
    mark = now;
  }
};

/// Sequential mode, for algorithms declaring ids_only_view(): one
/// (vertex, assignment) run at a time, start to finish. The ball geometry
/// is grown once per vertex - bare, as a BallLayers: discovery order,
/// per-radius sizes and coverage, no distances or port rows - lazily, to
/// the deepest radius any assignment needs, and later runs replay it
/// through the recorded per-radius sizes. The live state - one id buffer,
/// one algorithm instance, one identifier stream - fits in a few cache
/// lines no matter how many assignments the batch holds. Views carry exact
/// identifiers, radius and coverage, and empty dist/ports (the contract).
void run_sequential_range(const graph::Graph& g, SequentialWorker& state,
                          std::span<const graph::IdAssignment> batch,
                          const ViewAlgorithmFactory& factory, const ViewEngineOptions& options,
                          graph::Vertex begin, graph::Vertex end, const ResultSink& sink) {
  const std::size_t cap = g.vertex_count();
  PhaseTimer timer(options.phase_stats);
  for (graph::Vertex v = begin; v < end; ++v) {
    state.layers.reset(v);
    for (std::size_t trial = 0; trial < batch.size(); ++trial) {
      if (state.algorithm == nullptr || !state.algorithm->reset()) {
        state.algorithm = factory();
        AVGLOCAL_REQUIRE_MSG(state.algorithm != nullptr, "view algorithm factory returned null");
      }
      ViewAlgorithm& algorithm = *state.algorithm;
      const std::size_t min_radius = algorithm.min_radius();
      const std::span<const std::uint64_t> sigma = batch[trial].ids();
      state.ids.resize(1);
      state.ids[0] = sigma[v];
      std::size_t filled = 1;
      std::size_t rho = 0;
      while (true) {
        const bool covers = rho >= state.layers.covers_radius();
        if (rho >= min_radius || covers) {
          state.view.radius = static_cast<int>(rho);
          state.view.ids = {state.ids.data(), filled};
          state.view.covers_graph = covers;
          if (const auto output = algorithm.on_view(state.view)) {
            sink(trial, v, *output, rho);
            timer.lap(&BatchPhaseStats::eval_sec);
            break;
          }
        }
        if (rho >= cap) {
          throw std::runtime_error(
              "view engine: radius cap exceeded (non-terminating algorithm?)");
        }
        timer.lap(&BatchPhaseStats::eval_sec);
        ++rho;
        while (state.layers.radius() < rho) state.layers.grow();
        timer.lap(&BatchPhaseStats::grow_sec);
        const std::size_t s_rho = state.layers.sizes()[rho];
        const std::span<const graph::Vertex> order = state.layers.order();
        state.ids.resize(s_rho);
        for (std::size_t k = filled; k < s_rho; ++k) state.ids[k] = sigma[order[k]];
        filled = s_rho;
        timer.lap(&BatchPhaseStats::gather_sec);
      }
    }
  }
}

/// Lockstep mode, for algorithms that read full views (ports, dist): every
/// assignment of the batch advances in step over one shared ball. At equal
/// radius the geometry (distances, ports, coverage) is identical for every
/// assignment, so the grower's live view serves them all - only the
/// identifier span is re-pointed per trial around the algorithm call. Each
/// trial pays an id gather and its algorithm; the BFS runs once per vertex,
/// up to the deepest radius any trial of the batch needs. The gather reads
/// each survivor's new layers from its own assignment array.
void run_lockstep_range(const graph::Graph& g, LockstepWorker& state,
                        std::span<const graph::IdAssignment> batch,
                        const ViewAlgorithmFactory& factory, const ViewEngineOptions& options,
                        graph::Vertex begin, graph::Vertex end, const ResultSink& sink) {
  const std::size_t cap = g.vertex_count();
  PhaseTimer timer(options.phase_stats);
  for (graph::Vertex v = begin; v < end; ++v) {
    state.grower.reset(v);

    // Evaluates one slot at the current radius: point the shared view's
    // identifier span at the trial's buffer (two words; grow() clears the
    // binding) and ask the algorithm. Returns true when the trial finished
    // (the result goes straight to the sink).
    std::size_t radius = 0;
    std::size_t ball_end = 1;  // |ball| at the current radius
    const auto evaluate = [&](TrialSlot& slot, const std::uint64_t* ids) {
      if (radius < slot.min_radius && !state.grower.view().covers_graph) return false;
      state.grower.bind_ids({ids, ball_end});
      const auto output = slot.algorithm->on_view(state.grower.view());
      if (!output) return false;
      sink(slot.trial, v, *output, radius);
      return true;
    };

    // Radius 0 fused with slot setup: every trial sees just its root
    // identifier - one pass over the slots, not two.
    state.active.clear();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      TrialSlot& slot = state.slots[k];
      slot.inline_ids[0] = batch[slot.trial].ids()[v];
      if (slot.algorithm == nullptr || !slot.algorithm->reset()) {
        slot.algorithm = factory();
        AVGLOCAL_REQUIRE_MSG(slot.algorithm != nullptr, "view algorithm factory returned null");
        slot.min_radius = checked_u32(slot.algorithm->min_radius());
      }
      if (!evaluate(slot, slot.inline_ids.data())) {
        state.active.push_back(checked_u32(k));
      }
    }
    timer.lap(&BatchPhaseStats::eval_sec);

    while (!state.active.empty()) {
      // Layer-jump target: the smallest min_radius any surviving trial
      // declares. Below it (and before coverage) the per-layer evaluate
      // pass is a guaranteed no-op - the min_radius contract - so the
      // engine grows straight through those layers and gathers them in one
      // fused pass below.
      std::size_t jump_target = SIZE_MAX;
      for (const std::uint32_t k : state.active) {
        jump_target = std::min(jump_target, static_cast<std::size_t>(state.slots[k].min_radius));
      }

      if (radius >= cap) {
        throw std::runtime_error("view engine: radius cap exceeded (non-terminating algorithm?)");
      }
      // One shared BFS step ...
      state.grower.grow();
      ++radius;
      // ... plus every further layer a stepwise engine would have grown
      // without a single live evaluate. The cap is checked per layer and the
      // jump stops at the first covering radius, so behaviour (including
      // exceptions) matches per-trial run_views exactly.
      while (radius < jump_target && !state.grower.view().covers_graph) {
        if (radius >= cap) {
          throw std::runtime_error(
              "view engine: radius cap exceeded (non-terminating algorithm?)");
        }
        state.grower.grow();
        ++radius;
      }
      timer.lap(&BatchPhaseStats::grow_sec);
      const std::span<const graph::Vertex> order = state.grower.layers().order();
      const std::size_t new_end = order.size();

      // ... then, for every surviving trial, the new layers' identifiers
      // (the only per-trial view state) gathered from its own assignment
      // array and evaluated in one fused pass. Finished trials are
      // compacted out of the 4-byte index list in place; slots never move.
      std::size_t kept = 0;
      const std::size_t in_flight = state.active.size();
      const std::size_t prev_end = ball_end;
      ball_end = new_end;
      for (std::size_t j = 0; j < in_flight; ++j) {
        const std::uint32_t k = state.active[j];
        TrialSlot& slot = state.slots[k];
        const std::span<const std::uint64_t> sigma = batch[slot.trial].ids();
        std::uint64_t* ids = slot.ids_for(prev_end, new_end);
        for (std::size_t i = prev_end; i < new_end; ++i) ids[i] = sigma[order[i]];
        timer.lap(&BatchPhaseStats::gather_sec);
        if (!evaluate(slot, ids)) state.active[kept++] = k;
        timer.lap(&BatchPhaseStats::eval_sec);
      }
      state.active.resize(kept);
    }
  }
}

/// Sweeps vertices [0, n) through run_range(worker, options, begin, end):
/// serially on one worker, or in dynamically scheduled pool chunks with
/// one worker per pool thread, built by make_worker() on its first chunk
/// and kept across the rest.
template <class MakeWorker, class RunRange>
void sweep_vertices(std::size_t n, const ViewEngineOptions& options,
                    const MakeWorker& make_worker, const RunRange& run_range) {
  support::ThreadPool* pool = options.pool;
  if (pool == nullptr || pool->size() == 1 || n == 1) {
    run_range(*make_worker(), options, 0, checked_u32(n));
    return;
  }
  // phase_stats is a serial-path facility: workers would race on the
  // accumulator, so the parallel sweep runs with it cleared.
  ViewEngineOptions parallel_options = options;
  parallel_options.phase_stats = nullptr;
  std::vector<decltype(make_worker())> workers(pool->size());
  // Chunks carry batch.size() runs per vertex, so smaller chunks than the
  // single-assignment sweep still amortise the scheduling cursor while
  // balancing the heavy tail.
  const std::size_t grain = std::max<std::size_t>(4, n / (16 * pool->size()));
  pool->for_range(n, grain, [&](std::size_t worker, std::size_t begin, std::size_t end) {
    if (!workers[worker]) workers[worker] = make_worker();
    run_range(*workers[worker], parallel_options, checked_u32(begin), checked_u32(end));
  });
}

}  // namespace

void run_views_batched(const graph::Graph& g, std::span<const graph::IdAssignment> batch,
                       const ViewAlgorithmFactory& factory, const ViewEngineOptions& options,
                       const ResultSink& sink) {
  AVGLOCAL_EXPECTS(!batch.empty());
  const std::size_t n = g.vertex_count();
  if (n == 0) return;
  for (const graph::IdAssignment& ids : batch) AVGLOCAL_EXPECTS(ids.size() == n);

  // The execution mode is probed once: a factory must produce algorithms of
  // uniform capabilities (in practice it constructs one type).
  const bool ids_only = [&] {
    const auto probe = factory();
    AVGLOCAL_REQUIRE_MSG(probe != nullptr, "view algorithm factory returned null");
    return probe->ids_only_view();
  }();

  // The sink sees disjoint vertex sets per worker.
  if (ids_only) {
    sweep_vertices(
        n, options, [&] { return std::make_unique<SequentialWorker>(g, options.semantics); },
        [&](SequentialWorker& worker, const ViewEngineOptions& opts, graph::Vertex b,
            graph::Vertex e) {
          run_sequential_range(g, worker, batch, factory, opts, b, e, sink);
        });
  } else {
    sweep_vertices(
        n, options,
        [&] { return std::make_unique<LockstepWorker>(g, options.semantics, batch.size()); },
        [&](LockstepWorker& worker, const ViewEngineOptions& opts, graph::Vertex b,
            graph::Vertex e) { run_lockstep_range(g, worker, batch, factory, opts, b, e, sink); });
  }
}

RunResult run_views(const graph::Graph& g, const graph::IdAssignment& ids,
                    const ViewAlgorithmFactory& factory, const ViewEngineOptions& options) {
  AVGLOCAL_EXPECTS(ids.size() == g.vertex_count());
  AVGLOCAL_EXPECTS(options.pool == nullptr);
  const std::size_t n = g.vertex_count();
  RunResult result;
  result.outputs.resize(n);
  result.radii.resize(n);
  if (n == 0) return result;

  BallGrower::Scratch scratch(n);
  BallGrower grower(g, 0, options.semantics, scratch);
  std::vector<std::uint64_t> view_ids;
  for (graph::Vertex v = 0; v < n; ++v) {
    grower.reset(v);
    const auto [output, radius] = run_one(g, grower, ids, view_ids, factory);
    result.outputs[v] = output;
    result.radii[v] = radius;
  }
  return result;
}

}  // namespace avglocal::local
