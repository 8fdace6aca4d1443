#include "core/sweep_backend.hpp"

#include <memory>
#include <utility>

#include "local/engine.hpp"
#include "local/node_context.hpp"
#include "local/view_engine.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::core {

namespace {

/// View-backend state: the graph and its per-size algorithm factory.
struct ViewPointState final : BackendPointState {
  const graph::Graph* g = nullptr;
  local::ViewAlgorithmFactory factory;
};

/// Message-backend state: ONE persistent arena-backed engine. The runner
/// outlives every batch and adaptive round the driver pushes through it,
/// so warm-up (topology tables, arenas, contexts) is paid once per
/// (point, lane).
struct MessagePointState final : BackendPointState {
  MessagePointState(local::MessageBatchRunner r, std::size_t vertices)
      : runner(std::move(r)), n(vertices) {}
  local::MessageBatchRunner runner;
  std::size_t n;
};

/// Whether the view engine runs the provider's algorithms at size n in its
/// sequential (ids-only) mode, which keeps no per-trial spill buffer. A
/// provider that throws is priced as lockstep, the larger charge.
bool runs_sequential(const AlgorithmProvider& algorithms, std::size_t n) noexcept {
  try {
    const auto probe = algorithms(n)();
    return probe != nullptr && probe->ids_only_view();
  } catch (...) {
    return false;
  }
}

/// Whether the provider's message algorithms at size n halt after output,
/// which makes the engine keep a standing store and node lists. A provider
/// that throws is priced as halting, the larger charge.
bool runs_halting(const MessageAlgorithmProvider& algorithms, std::size_t n) noexcept {
  try {
    const auto probe = algorithms(n)();
    return probe == nullptr || probe->halts_after_output();
  } catch (...) {
    return true;
  }
}

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
                            std::size_t /*batch_begin*/, support::ThreadPool* pool,
                            PointAccumulator& /*acc*/,
                            std::span<std::uint32_t> radius_matrix) const {
  auto& view_state = static_cast<ViewPointState&>(state);
  const std::size_t n = view_state.g->vertex_count();
  local::ViewEngineOptions engine;
  engine.semantics = semantics_;
  engine.pool = pool;
  local::run_views_batched(*view_state.g, batch, view_state.factory, engine,
                           [&](std::size_t trial, graph::Vertex v, std::int64_t /*output*/,
                               std::size_t radius) {
                             radius_matrix[trial * n + v] = support::checked_u32(radius);
                           });
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
  // radius-matrix row (4n) and, in lockstep mode only, the trial's spill id
  // buffer, doubled up to n ids should its ball reach the whole graph
  // (2 * 8n). 28n lockstep, 12n sequential.
  const bool sequential = runs_sequential(algorithms_, n);
  model.bytes_per_trial = n * (8 + 4 + (sequential ? 0 : 2 * 8));
  // Per lane, allocated once: the CSR tables, the canonical edge list (8
  // bytes per edge), PointAccumulator::node_sum (8n) and the
  // epoch-stamped ball scratch (local_of + stamps, 8n).
  const std::size_t allocated_once = g.memory_bytes() + 8 * edges + 16 * n;
  // Per lane, doubled up to full coverage: the geometry core's discovery
  // order and per-radius ball sizes (at most n radii; 8n); in lockstep mode
  // the grower's dist (4n), port-row offsets (4n) and targets (4 bytes per
  // arc), in sequential mode the one id buffer (8n); and three radius
  // histograms of at most n buckets (the driver's flat node-radius counts,
  // the accumulator's and the edge times', 24n).
  const std::size_t mode_rows = sequential ? 8 * n : 8 * n + 4 * arcs;
  const std::size_t doubled = 8 * n + mode_rows + 24 * n;
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
  // One arena: an 8-byte slot and a presence bit per arc, plus payload
  // words at one word per arc as the steady-state floor. A broadcast
  // stores its words once for all its ports, so for broadcast-only
  // algorithms (local3, cv3-msg, greedy-msg) the floor can overstate the
  // buffer by up to the degree; the charge stays, since unicast relays
  // (largest-id-msg) do store a word per arc.
  const std::size_t arena = 8 * arcs + 8 * ((arcs + 63) / 64) + 8 * arcs;
  // Per lane: the CSR tables, the edge list (8 bytes per edge), a context
  // and an algorithm pointer per node, the mirror-arc table (4 bytes per
  // arc) and the two ping-pong arenas. An algorithm that halts after
  // output adds the standing store, priced as a third arena (its words
  // are each halted node's last sends, a broadcast's once), and the
  // active and halted node lists (4 bytes per node each). Per-node
  // algorithm state is not modelled.
  const std::size_t per_node =
      sizeof(local::NodeContext) + sizeof(std::unique_ptr<local::Algorithm>);
  model.fixed_bytes = g.memory_bytes() + 8 * (arcs / 2) + per_node * n + 4 * arcs + 2 * arena;
  if (runs_halting(algorithms_, n)) model.fixed_bytes += arena + 8 * n;
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
      local::MessageBatchRunner(g, algorithms_(g.vertex_count()), options), g.vertex_count());
}

void MessageBackend::run_batch(BackendPointState& state,
                               std::span<const graph::IdAssignment> batch,
                               std::size_t /*batch_begin*/, support::ThreadPool* /*pool*/,
                               PointAccumulator& /*acc*/,
                               std::span<std::uint32_t> radius_matrix) const {
  auto& message_state = static_cast<MessagePointState&>(state);
  const std::size_t n = message_state.n;
  message_state.runner.run(batch, [&](std::size_t trial, graph::Vertex v,
                                      std::int64_t /*output*/, std::size_t radius) {
    radius_matrix[trial * n + v] = support::checked_u32(radius);
  });
}

}  // namespace avglocal::core
