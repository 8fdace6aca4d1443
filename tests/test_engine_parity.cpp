// Property suite pinning the three execution paths of the LOCAL simulator
// to each other: the serial view sweep (run_views), the pooled vertex-
// parallel sweep (run_views_batched over a batch of one) at several thread
// counts, and the message engine driven through the full-information
// adapter. On every random topology, seed and thread count they must
// produce identical outputs and radii - this is what makes the
// flat-memory/parallel core a pure optimisation.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/largest_id.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/full_info.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace avglocal;

void expect_same_run(const local::RunResult& a, const local::RunResult& b,
                     const std::string& what) {
  ASSERT_EQ(a.outputs.size(), b.outputs.size()) << what;
  EXPECT_EQ(a.outputs, b.outputs) << what;
  EXPECT_EQ(a.radii, b.radii) << what;
}

/// One assignment through the batched engine, collected as a RunResult.
/// With options.pool set this is the vertex-parallel sweep every pooled
/// sweep runs through.
local::RunResult run_batch_of_one(const graph::Graph& g, const graph::IdAssignment& ids,
                                  const local::ViewAlgorithmFactory& factory,
                                  const local::ViewEngineOptions& options) {
  local::RunResult result;
  result.outputs.resize(g.vertex_count());
  result.radii.resize(g.vertex_count());
  local::run_views_batched(g, std::span(&ids, 1), factory, options,
                           [&](std::size_t, graph::Vertex v, std::int64_t output,
                               std::size_t radius) {
                             result.outputs[v] = output;
                             result.radii[v] = radius;
                           });
  return result;
}

graph::Graph make_topology(int kind, std::size_t n, support::Xoshiro256& rng) {
  switch (kind) {
    case 0: return graph::make_random_tree(n, rng);
    case 1: return graph::make_cycle(n);
    default: return graph::make_gnp_connected(n, 0.15, rng);
  }
}

const char* kTopologyNames[] = {"random_tree", "cycle", "gnp"};

TEST(EngineParity, SerialPooledAndMessagesAgreeEverywhere) {
  const std::size_t kThreadCounts[] = {1, 2, 4};
  for (int kind = 0; kind < 3; ++kind) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      support::Xoshiro256 rng(support::derive_seed(seed, static_cast<std::uint64_t>(kind)));
      const std::size_t n = 24 + rng.below(16);
      const graph::Graph g = make_topology(kind, n, rng);
      const graph::IdAssignment ids =
          graph::IdAssignment::random(g.vertex_count(), rng);
      const std::string label =
          std::string(kTopologyNames[kind]) + " seed=" + std::to_string(seed);

      // Ground truth: serial sweep under flooding semantics (what the
      // message engine's gossip delivers round by round).
      local::ViewEngineOptions flooding;
      flooding.semantics = local::ViewSemantics::kFloodingKnowledge;
      const auto serial = local::run_views(g, ids, algo::make_largest_id_view(), flooding);

      for (const std::size_t threads : kThreadCounts) {
        support::ThreadPool pool(threads);
        local::ViewEngineOptions pooled = flooding;
        pooled.pool = &pool;
        const auto parallel = run_batch_of_one(g, ids, algo::make_largest_id_view(), pooled);
        expect_same_run(serial, parallel,
                        label + " pooled threads=" + std::to_string(threads));
      }

      const auto messages =
          local::run_views_by_messages(g, ids, algo::make_largest_id_view());
      expect_same_run(serial, messages, label + " messages");
    }
  }
}

TEST(EngineParity, InducedSemanticsSerialVsPooled) {
  support::Xoshiro256 rng(77);
  for (int kind = 0; kind < 3; ++kind) {
    const std::size_t n = 30 + rng.below(20);
    const graph::Graph g = make_topology(kind, n, rng);
    const graph::IdAssignment ids = graph::IdAssignment::random(g.vertex_count(), rng);
    const auto serial = local::run_views(g, ids, algo::make_largest_id_view());
    support::ThreadPool pool(3);
    local::ViewEngineOptions options;
    options.pool = &pool;
    const auto pooled = run_batch_of_one(g, ids, algo::make_largest_id_view(), options);
    expect_same_run(serial, pooled, std::string("induced ") + kTopologyNames[kind]);
    // run_views is the serial reference: a pool is rejected, never ignored.
    EXPECT_THROW(local::run_views(g, ids, algo::make_largest_id_view(), options),
                 std::invalid_argument);
  }
}

// A shared pool must be reusable across many sweeps (that is the whole
// point of hoisting it): results stay identical call after call.
TEST(EngineParity, PoolIsReusableAcrossRuns) {
  support::Xoshiro256 rng(5);
  const auto g = graph::make_cycle(48);
  support::ThreadPool pool(4);
  local::ViewEngineOptions pooled;
  pooled.pool = &pool;
  for (int run = 0; run < 5; ++run) {
    const graph::IdAssignment ids = graph::IdAssignment::random(48, rng);
    const auto serial = local::run_views(g, ids, algo::make_largest_id_view());
    const auto parallel = run_batch_of_one(g, ids, algo::make_largest_id_view(), pooled);
    expect_same_run(serial, parallel, "run " + std::to_string(run));
  }
}

// The registry opened torus, random-regular and random-tree sweeps to every
// tool, so their port conventions must hold under all three execution
// paths, not just the per-trial one the benches used to exercise: the
// batched engine replays recorded ball geometry (a wrong port table would
// corrupt replayed views), and the message engine reconstructs views from
// gossip (a wrong mirror port would misroute payloads).
TEST(EngineParity, BatchedPerTrialAndMessagesAgreeOnGeneratorFamilies) {
  support::Xoshiro256 rng(29);
  struct Named {
    const char* name;
    graph::Graph g;
  };
  const Named topologies[] = {
      {"torus", graph::make_torus(5, 6)},
      {"random_regular", graph::make_random_regular(26, 3, rng)},
      {"random_tree", graph::make_random_tree(31, rng)},
  };
  for (const auto& [name, g] : topologies) {
    const std::size_t n = g.vertex_count();
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      support::Xoshiro256 id_rng(support::derive_seed(seed, 99));
      const graph::IdAssignment ids = graph::IdAssignment::random(n, id_rng);
      const std::string label = std::string(name) + " seed=" + std::to_string(seed);

      for (const auto semantics : {local::ViewSemantics::kInducedBall,
                                   local::ViewSemantics::kFloodingKnowledge}) {
        local::ViewEngineOptions options;
        options.semantics = semantics;
        const auto per_trial = local::run_views(g, ids, algo::make_largest_id_view(), options);

        const auto batched = run_batch_of_one(g, ids, algo::make_largest_id_view(), options);
        expect_same_run(per_trial, batched, label + " batched");
      }

      // The message engine's gossip delivers flooding-knowledge views.
      local::ViewEngineOptions flooding;
      flooding.semantics = local::ViewSemantics::kFloodingKnowledge;
      const auto serial = local::run_views(g, ids, algo::make_largest_id_view(), flooding);
      const auto messages =
          local::run_views_by_messages(g, ids, algo::make_largest_id_view());
      expect_same_run(serial, messages, label + " messages");
    }
  }
}

// The universe-aware refinement exercises a second stopping rule (earlier
// outputs, different ball shapes) through the same machinery.
TEST(EngineParity, UniverseAwareRuleSerialVsPooled) {
  support::Xoshiro256 rng(11);
  const auto g = graph::make_cycle(64);
  const graph::IdAssignment ids = graph::IdAssignment::random(64, rng);
  const auto serial = local::run_views(g, ids, algo::make_largest_id_universe_aware_view());
  support::ThreadPool pool(2);
  local::ViewEngineOptions options;
  options.pool = &pool;
  const auto pooled =
      run_batch_of_one(g, ids, algo::make_largest_id_universe_aware_view(), options);
  expect_same_run(serial, pooled, "universe-aware");
}

}  // namespace
