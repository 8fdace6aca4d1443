#include "core/sweep_backend.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "local/engine.hpp"
#include "local/view_engine.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::core {

namespace {

/// View-backend state: the per-size algorithm factory plus per-worker
/// partial buffers. Trial aggregates are indexed within the batch and
/// folded into the accumulator after each run_views_batched call, always by
/// integer addition / maximum, so the totals do not depend on which worker
/// ran which vertices.
struct ViewPointState final : BackendPointState {
  const graph::Graph* g = nullptr;
  local::ViewAlgorithmFactory factory;
  struct WorkerPartial {
    std::vector<std::uint64_t> trial_sum;
    std::vector<std::uint64_t> trial_max;
    local::RadiusHistogram histogram;
  };
  std::vector<WorkerPartial> partials;
};

/// Message-backend state: ONE persistent arena-backed engine. The runner
/// outlives every batch and adaptive round the driver pushes through it,
/// so warm-up (topology tables, arenas, contexts) is paid once per
/// (point, lane).
struct MessagePointState final : BackendPointState {
  explicit MessagePointState(local::MessageBatchRunner r) : runner(std::move(r)) {}
  local::MessageBatchRunner runner;
};

}  // namespace

ViewBackend::ViewBackend(AlgorithmProvider algorithms, local::ViewSemantics semantics)
    : algorithms_(std::move(algorithms)), semantics_(semantics) {
  AVGLOCAL_EXPECTS(static_cast<bool>(algorithms_));
}

std::unique_ptr<BackendPointState> ViewBackend::prepare(const graph::Graph& g,
                                                        std::size_t /*point_index*/) const {
  auto state = std::make_unique<ViewPointState>();
  state->g = &g;
  state->factory = algorithms_(g.vertex_count());
  return state;
}

void ViewBackend::run_batch(BackendPointState& state, std::span<const graph::IdAssignment> batch,
                            std::size_t batch_begin, support::ThreadPool* pool,
                            PointAccumulator& acc,
                            std::span<std::uint32_t> radius_matrix) const {
  auto& view_state = static_cast<ViewPointState&>(state);
  const std::size_t n = acc.n;
  const std::size_t batch_size = batch.size();

  view_state.partials.resize(pool != nullptr ? pool->size() : 1);
  for (ViewPointState::WorkerPartial& w : view_state.partials) {
    w.trial_sum.assign(batch_size, 0);
    w.trial_max.assign(batch_size, 0);
    w.histogram = local::RadiusHistogram();
  }

  local::ViewEngineOptions engine;
  engine.semantics = semantics_;
  engine.pool = pool;

  local::run_views_batched(
      *view_state.g, batch, view_state.factory, engine,
      [&](std::size_t worker, std::size_t trial, graph::Vertex v, std::int64_t /*output*/,
          std::size_t radius) {
        ViewPointState::WorkerPartial& w = view_state.partials[worker];
        const auto r = static_cast<std::uint64_t>(radius);
        w.trial_sum[trial] += r;
        w.trial_max[trial] = std::max(w.trial_max[trial], r);
        w.histogram.add(radius);
        // Workers own disjoint vertex ranges, so these shared rows are
        // safe: each (trial, v) cell has exactly one writer.
        acc.node_sum[v] += r;
        radius_matrix[trial * n + v] = support::checked_u32(radius);
      });

  for (const ViewPointState::WorkerPartial& w : view_state.partials) {
    for (std::size_t i = 0; i < batch_size; ++i) {
      acc.trial_sum[batch_begin + i] += w.trial_sum[i];
      acc.trial_max[batch_begin + i] = std::max(acc.trial_max[batch_begin + i], w.trial_max[i]);
    }
    acc.histogram.merge(w.histogram);
  }
}

SweepMemoryModel ViewBackend::memory_model(const graph::Graph& g) const noexcept {
  const std::size_t n = g.vertex_count();
  const std::size_t arcs = g.arc_count();
  const std::size_t edges = arcs / 2;
  SweepMemoryModel model;
  // A buffer grown by doubling (push_back, resize) is charged at twice the
  // size it can reach, which bounds its capacity; a buffer allocated once
  // is charged at its size.
  //
  // Per resident trial: the id assignment (8n, allocated once), its
  // radius-matrix row (4n) and, in lockstep mode, the trial's spill id
  // buffer, doubled up to n ids should its ball reach the whole graph
  // (2 * 8n). 28n.
  model.bytes_per_trial = n * (8 + 4 + 2 * 8);
  // Per lane, allocated once: the CSR tables, the canonical edge list (8
  // bytes per edge), PointAccumulator::node_sum (8n), the identity
  // placeholder the grower runs on (8n per run_views_batched call) and the
  // epoch-stamped ball scratch (local_of + stamps, 8n).
  const std::size_t allocated_once = g.memory_bytes() + 8 * edges + 24 * n;
  // Per lane, doubled up to full coverage: the grower's discovery arrays
  // (ids 8n, globals 4n, dist 4n, port offsets 4n, port targets 4 bytes
  // per arc), the sequential mode's id buffer (8n), the per-radius ball
  // sizes (at most n radii, 4n) and three radius histograms of at most n
  // buckets (the worker's, the accumulator's and the edge times', 24n).
  const std::size_t doubled = 20 * n + 4 * arcs + 8 * n + 4 * n + 24 * n;
  model.fixed_bytes = allocated_once + 2 * doubled;
  return model;
}

SweepMemoryModel MessageBackend::memory_model(const graph::Graph& g) const noexcept {
  const std::size_t n = g.vertex_count();
  const std::size_t arcs = g.arc_count();
  SweepMemoryModel model;
  // Message trials run one at a time through a lane's engine, so a
  // resident trial costs only its id buffer and radius-matrix row.
  model.bytes_per_trial = n * (8 + 4);
  // Per lane: the CSR tables, edge list, per-node contexts and the two
  // ping-pong arenas (8-byte slot + presence bit per arc each, plus
  // payload words at one word per arc as the steady-state floor).
  model.fixed_bytes = g.memory_bytes() + 8 * (arcs / 2) + 48 * n + 2 * (17 * arcs / 2);
  return model;
}

MessageBackend::MessageBackend(MessageAlgorithmProvider algorithms, local::Knowledge knowledge)
    : algorithms_(std::move(algorithms)), knowledge_(knowledge) {
  AVGLOCAL_EXPECTS(static_cast<bool>(algorithms_));
}

std::unique_ptr<BackendPointState> MessageBackend::prepare(const graph::Graph& g,
                                                           std::size_t /*point_index*/) const {
  local::EngineOptions options;
  options.knowledge = knowledge_;
  return std::make_unique<MessagePointState>(
      local::MessageBatchRunner(g, algorithms_(g.vertex_count()), options));
}

void MessageBackend::run_batch(BackendPointState& state,
                               std::span<const graph::IdAssignment> batch,
                               std::size_t batch_begin, support::ThreadPool* /*pool*/,
                               PointAccumulator& acc,
                               std::span<std::uint32_t> radius_matrix) const {
  auto& message_state = static_cast<MessagePointState&>(state);
  const std::size_t n = acc.n;
  message_state.runner.run(
      batch, [&](std::size_t trial, graph::Vertex v, std::int64_t /*output*/,
                 std::size_t radius) {
        const auto r = static_cast<std::uint64_t>(radius);
        acc.trial_sum[batch_begin + trial] += r;
        acc.trial_max[batch_begin + trial] = std::max(acc.trial_max[batch_begin + trial], r);
        acc.histogram.add(radius);
        acc.node_sum[v] += r;
        radius_matrix[trial * n + v] = support::checked_u32(radius);
      });
}

}  // namespace avglocal::core
