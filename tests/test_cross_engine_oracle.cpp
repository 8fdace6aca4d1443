// Cross-engine oracle suite: algorithms with both a view and a message
// formulation must produce identical per-node output rounds through every
// execution path - the MessageBackend (one reused engine), the ViewBackend
// (geometry replay) and the full-information gossip adapter - on rings,
// tori, gnp graphs and random trees under shared sweep seeds.
//
// This is the strongest claim the simulator makes (the paper's two
// formulations of the LOCAL model agree, at code level), and it pins the
// new message-sweep path to the measurement ground truth sample by sample,
// not just in aggregate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algo/cole_vishkin.hpp"
#include "algo/largest_id.hpp"
#include "algo/mis_ring.hpp"
#include "core/batched_sweep.hpp"
#include "core/shard.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/full_info.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

struct NamedGraph {
  std::string name;
  graph::Graph g;
};

std::vector<NamedGraph> oracle_topologies() {
  support::Xoshiro256 rng(4242);
  std::vector<NamedGraph> out;
  out.push_back({"ring", graph::make_cycle(20)});
  out.push_back({"torus", graph::make_torus(4, 5)});
  out.push_back({"gnp", graph::make_gnp_connected(18, 0.18, rng)});
  out.push_back({"random_tree", graph::make_random_tree(19, rng)});
  return out;
}

/// Exact partials of trials [0, options.trials) of point 0 on g, through a
/// driver over `backend` (pooled when `pool` is set).
core::PointAccumulator sweep_point(const core::SweepBackend& backend, const graph::Graph& g,
                                   const core::BatchedSweepOptions& options,
                                   support::ThreadPool* pool = nullptr) {
  const core::SweepDriver driver(backend, options, pool);
  core::SweepDriver::Point point = driver.prepare(g, 0);
  return driver.run_trials(point, 0, options.trials);
}

/// A message backend running one size-independent factory.
core::MessageBackend message_backend(local::AlgorithmFactory factory) {
  return core::MessageBackend([factory](std::size_t) { return factory; });
}

/// Largest-id through the view engine under flooding-knowledge semantics,
/// the semantics whose radii equal the message formulation's rounds.
core::ViewBackend flooding_largest_id() {
  return core::ViewBackend([](std::size_t) { return algo::make_largest_id_view(); },
                           local::ViewSemantics::kFloodingKnowledge);
}

/// The sweep's id assignment for (seed, point, trial) - the single seed
/// derivation every engine path shares.
graph::IdAssignment sweep_ids(std::uint64_t seed, std::size_t point, std::size_t trial,
                              std::size_t n) {
  support::Xoshiro256 rng(support::derive_seed(support::derive_seed(seed, point), trial));
  return graph::IdAssignment::random(n, rng);
}

// The message formulation of largest-id is the full-information adapter on
// general graphs (the hand-rolled token flooding below is ring-only); its
// rounds equal the flooding-knowledge view radii.
TEST(CrossEngineOracle, MessageSweepEqualsBatchedViewsAndAdapterEverywhere) {
  constexpr std::uint64_t kSeed = 606;
  constexpr std::size_t kTrials = 4;

  for (const auto& [name, g] : oracle_topologies()) {
    const std::size_t n = g.vertex_count();

    core::BatchedSweepOptions options;
    options.trials = kTrials;
    options.seed = kSeed;

    // Path 1: the message sweep over the gossip adapter (one reused
    // engine for all trials).
    const core::PointAccumulator message_acc = sweep_point(
        message_backend(local::make_full_info_factory(algo::make_largest_id_view())), g, options);

    // Path 2: the batched view engine under the same options.
    const core::PointAccumulator view_acc = sweep_point(flooding_largest_id(), g, options);

    // Identical per-node output rounds make the entire exact-integer
    // accumulators equal - per-trial sums and maxima, per-node sums, node
    // and edge histograms, edge times.
    EXPECT_EQ(message_acc, view_acc) << name;

    // Path 3: the adapter run one trial at a time through run_messages
    // (fresh engine per trial), against per-vertex view-engine runs.
    for (std::size_t t = 0; t < kTrials; ++t) {
      const graph::IdAssignment ids = sweep_ids(kSeed, 0, t, n);
      const auto adapter =
          local::run_views_by_messages(g, ids, algo::make_largest_id_view());
      local::ViewEngineOptions flooding;
      flooding.semantics = local::ViewSemantics::kFloodingKnowledge;
      const auto views = local::run_views(g, ids, algo::make_largest_id_view(), flooding);
      EXPECT_EQ(adapter.outputs, views.outputs) << name << " trial " << t;
      EXPECT_EQ(adapter.radii, views.radii) << name << " trial " << t;
    }
  }
}

// On rings the hand-rolled token-flooding formulation (largest-id-msg) is
// also available; its output rounds must match the flooding-knowledge view
// radii, closing the triangle message-algorithm = adapter = view engine.
TEST(CrossEngineOracle, RingTokenFloodingMatchesViewRadii) {
  constexpr std::uint64_t kSeed = 707;
  constexpr std::size_t kTrials = 5;
  const auto g = graph::make_cycle(23);

  core::BatchedSweepOptions options;
  options.trials = kTrials;
  options.seed = kSeed;

  const core::PointAccumulator token_acc =
      sweep_point(message_backend(algo::make_largest_id_messages()), g, options);
  const core::PointAccumulator view_acc = sweep_point(flooding_largest_id(), g, options);
  EXPECT_EQ(token_acc, view_acc);

  const core::PointAccumulator adapter_acc = sweep_point(
      message_backend(local::make_full_info_factory(algo::make_largest_id_view())), g, options);
  EXPECT_EQ(token_acc, adapter_acc);
}

/// Renders one shard artefact through a directly-constructed ViewBackend,
/// so the layer_jump toggle (not exposed through scenario specs - it is an
/// execution knob, not a workload parameter) can be pinned at the artefact
/// byte level.
std::string render_view_artefact(const graph::Graph& g, const std::string& algorithm,
                                 const core::AlgorithmProvider& provider, bool layer_jump) {
  const std::vector<std::size_t> ns = {g.vertex_count()};
  core::BatchedSweepOptions options;
  options.trials = 5;
  options.seed = 2026;
  options.node_profile = true;

  const core::ViewBackend backend(provider, local::ViewSemantics::kInducedBall, layer_jump);
  const core::SweepDriver driver(backend, options, /*pool=*/nullptr);

  core::ShardDocument doc;
  doc.meta = core::SweepPlanMeta::from_options(ns, options);
  doc.meta.algorithm = algorithm;
  doc.meta.graph = "cycle";
  doc.meta.engine = "view";
  doc.shard = {0, 1, 0, options.trials};
  core::SweepDriver::Point prepared = driver.prepare(g, 0);
  doc.points.push_back(driver.run_trials(prepared, 0, options.trials));
  return core::shard_to_json(doc);
}

// The layer-jump is a pure execution optimisation: the whole serialised
// shard artefact - every radius histogram bucket, edge time and node
// profile double - must be byte-identical with the jump on and off, for
// algorithms whose min_radius schedules actually trigger multi-layer
// jumps (cv3, mis-ring) and one that never jumps (largest-id).
TEST(CrossEngineOracle, LayerJumpLeavesShardArtefactsByteIdentical) {
  const std::size_t n = 30;
  const auto g = graph::make_cycle(n);
  const std::vector<std::pair<std::string, core::AlgorithmProvider>> cases = {
      {"cv3", [](std::size_t size) { return algo::make_cole_vishkin_view(size); }},
      {"mis", [](std::size_t size) { return algo::make_mis_ring_view(size); }},
      {"largest-id", [](std::size_t) { return algo::make_largest_id_view(); }},
  };
  for (const auto& [name, provider] : cases) {
    const std::string with_jump = render_view_artefact(g, name, provider, /*layer_jump=*/true);
    const std::string without = render_view_artefact(g, name, provider, /*layer_jump=*/false);
    EXPECT_FALSE(with_jump.empty()) << name;
    EXPECT_EQ(with_jump, without) << name;
  }
}

// The parity must hold for every pool size of the view engine: the message
// point runs serially here, so this pins "thread schedule never
// changes results" across engines, not just within one.
TEST(CrossEngineOracle, ParityIsThreadScheduleIndependent) {
  support::Xoshiro256 rng(99);
  const auto g = graph::make_gnp_connected(16, 0.2, rng);
  core::BatchedSweepOptions options;
  options.trials = 3;
  options.seed = 5;

  const core::PointAccumulator message_acc = sweep_point(
      message_backend(local::make_full_info_factory(algo::make_largest_id_view())), g, options);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    support::ThreadPool pool(threads);
    const core::PointAccumulator view_acc =
        sweep_point(flooding_largest_id(), g, options, &pool);
    EXPECT_EQ(message_acc, view_acc) << "threads=" << threads;
  }
}

}  // namespace
