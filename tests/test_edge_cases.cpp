// Edge-case and failure-injection tests: disconnected graphs, arbitrary
// (non-permutation) identifiers, minimum sizes, and guard paths.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>

#include "algo/cole_vishkin.hpp"
#include "algo/greedy_colouring.hpp"
#include "algo/largest_id.hpp"
#include "algo/local_colouring.hpp"
#include "algo/validity.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/engine.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

TEST(EdgeCases, DisconnectedGraphElectsPerComponentLeaders) {
  // A node genuinely cannot learn about other components in the LOCAL
  // model: its ball covers its component and closure is (correctly)
  // detected there. The semantics of largest-ID on a disconnected graph is
  // therefore per-component leader election - documented here.
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);  // triangle {0,1,2}
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);  // triangle {3,4,5}
  const graph::Graph g = b.build();
  const graph::IdAssignment ids({10, 20, 30, 40, 50, 60});
  const auto run = local::run_views(g, ids, algo::make_largest_id_view());
  EXPECT_EQ(run.outputs[2], algo::kYes) << "leader of the first component (id 30)";
  EXPECT_EQ(run.outputs[5], algo::kYes) << "leader of the second component (id 60)";
  EXPECT_EQ(run.outputs[0], algo::kNo);
  EXPECT_EQ(run.outputs[3], algo::kNo);
}

TEST(EdgeCases, ArbitraryDistinctIdentifiers) {
  // Identifiers need not be a permutation of {1..n}: any distinct 64-bit
  // values work (the paper's algorithm never assumes the universe).
  const graph::Graph g = graph::make_cycle(5);
  const graph::IdAssignment ids(
      {0, std::uint64_t{1} << 63, 42, 7'000'000'000'000ULL, 1});
  const auto run = local::run_views(g, ids, algo::make_largest_id_view());
  EXPECT_TRUE(algo::is_valid_largest_id(ids, run.outputs));
  EXPECT_EQ(run.outputs[1], algo::kYes);

  // Greedy colouring and the unknown-n colouring also accept huge ids.
  const auto greedy = local::run_views(g, ids, algo::make_greedy_colouring_view());
  EXPECT_TRUE(algo::is_valid_colouring(g, greedy.outputs, 3));
  local::EngineOptions options;
  options.max_rounds = 10'000;
  const auto local3 = local::run_messages(g, ids, algo::make_local_three_colouring(), options);
  EXPECT_TRUE(algo::is_valid_colouring(g, local3.outputs, 3));
}

TEST(EdgeCases, MinimumRing) {
  const graph::Graph g = graph::make_cycle(3);
  const graph::IdAssignment ids = graph::IdAssignment::identity(3);
  const auto leader = local::run_views(g, ids, algo::make_largest_id_view());
  EXPECT_TRUE(algo::is_valid_largest_id(ids, leader.outputs));
  EXPECT_EQ(leader.max_radius(), 1u);  // ball of radius 1 covers the triangle

  const auto cv = local::run_views(g, ids, algo::make_cole_vishkin_view(3));
  EXPECT_TRUE(algo::is_valid_colouring(g, cv.outputs, 3));

  local::EngineOptions options;
  options.max_rounds = 1'000;
  const auto local3 = local::run_messages(g, ids, algo::make_local_three_colouring(), options);
  EXPECT_TRUE(algo::is_valid_colouring(g, local3.outputs, 3));
}

/// Never commits: the view engine's radius cap (the vertex count) must stop
/// it with an error instead of growing forever.
class NeverOutputs final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView&) override { return std::nullopt; }
};

TEST(EdgeCases, ViewEngineRadiusCapGuardsNonTerminatingAlgorithms) {
  const graph::Graph g = graph::make_cycle(64);
  const graph::IdAssignment ids = graph::IdAssignment::identity(64);
  const local::ViewAlgorithmFactory never = [] { return std::make_unique<NeverOutputs>(); };
  EXPECT_THROW(local::run_views(g, ids, never), std::runtime_error);
  EXPECT_THROW(local::run_views_batched(g, std::span(&ids, 1), never, {},
                                        [](std::size_t, graph::Vertex, std::int64_t,
                                           std::size_t) {}),
               std::runtime_error);
}

TEST(EdgeCases, ColeVishkinRequiresRingAndKnowledge) {
  // Running the known-n message algorithm without Knowledge::kKnowsN is an
  // error the algorithm reports, not silent misbehaviour.
  const graph::Graph g = graph::make_cycle(8);
  const graph::IdAssignment ids = graph::IdAssignment::identity(8);
  EXPECT_THROW(local::run_messages(g, ids, algo::make_cole_vishkin_messages()),
               std::logic_error);

  // And the view variant refuses non-ring topologies.
  const graph::Graph star = graph::make_star(8);
  const graph::IdAssignment star_ids = graph::IdAssignment::identity(8);
  EXPECT_THROW(local::run_views(star, star_ids, algo::make_cole_vishkin_view(8)),
               std::logic_error);
}

TEST(EdgeCases, UniverseAwareOnNonPermutationIdsStaysCorrect) {
  // The universe-aware rule assumes ids form a permutation of {1..n'}; with
  // arbitrary ids its "No" shortcut fires more eagerly (view size >= own id),
  // which is *still correct* whenever every id is at most the true maximum:
  // here all ids are huge, the shortcut never fires, and behaviour matches
  // the paper's algorithm.
  const graph::Graph g = graph::make_cycle(6);
  const graph::IdAssignment ids({1000, 2000, 3000, 4000, 5000, 6000});
  const auto aware = local::run_views(g, ids, algo::make_largest_id_universe_aware_view());
  const auto paper = local::run_views(g, ids, algo::make_largest_id_view());
  for (std::size_t v = 0; v < 6; ++v) {
    EXPECT_EQ(aware.outputs[v], paper.outputs[v]);
    EXPECT_EQ(aware.radii[v], paper.radii[v]);
  }
}

}  // namespace
