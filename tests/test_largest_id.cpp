// Tests of the paper's Section 2 algorithm: correctness on many graph
// families, the per-vertex radius law, engine-variant agreement, and the
// universe-aware refinement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/largest_id.hpp"
#include "algo/validity.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "kit/ball.hpp"
#include "kit/oracles.hpp"
#include "local/engine.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

/// n distinct identifiers spread over the whole 64-bit range, 0 and
/// UINT64_MAX among them, in random positions: no identifier is special.
graph::IdAssignment sparse_ids(std::size_t n, support::Xoshiro256& rng) {
  std::vector<std::uint64_t> sparse = {0, UINT64_MAX};
  while (sparse.size() < n) {
    const std::uint64_t id = rng.next();
    if (std::find(sparse.begin(), sparse.end(), id) == sparse.end()) sparse.push_back(id);
  }
  support::shuffle(std::span<std::uint64_t>(sparse), rng);
  return graph::IdAssignment(std::move(sparse));
}

class LargestIdOnCycles : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(LargestIdOnCycles, CorrectAndPointwiseMinimal) {
  const auto [n, seed] = GetParam();
  support::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::random(n, rng);
  const auto run = local::run_views(g, ids, algo::make_largest_id_view());
  EXPECT_TRUE(algo::is_valid_largest_id(ids, run.outputs));

  // Radius law on the cycle (induced semantics):
  // r(v) = min(distance to a larger identifier, ceil((n-1)/2)).
  const auto expected = algo::largest_id_radii_on_cycle(ids);
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(run.radii[v], expected[v]) << "vertex " << v << " n " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LargestIdOnCycles,
                         ::testing::Combine(::testing::Values(3, 4, 5, 8, 16, 33, 64, 129),
                                            ::testing::Values(1, 2, 3)));

TEST(LargestId, RadiusFormulaMatchesBruteForce) {
  support::Xoshiro256 rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.below(40);
    const auto ids = graph::IdAssignment::random(n, rng);
    const auto fast = algo::largest_id_radii_on_cycle(ids);
    const std::size_t cover = n / 2;
    for (std::size_t v = 0; v < n; ++v) {
      std::size_t expected = cover;
      for (std::size_t d = 1; d < cover; ++d) {
        if (ids.id_of(static_cast<graph::Vertex>((v + d) % n)) > ids.id_of(v) ||
            ids.id_of(static_cast<graph::Vertex>((v + n - d) % n)) > ids.id_of(v)) {
          expected = d;
          break;
        }
      }
      EXPECT_EQ(fast[v], expected) << "n " << n << " v " << v;
    }
  }
}

TEST(LargestId, WorstCaseRadiusIsClosureForMaxVertex) {
  const std::size_t n = 12;
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::identity(n);
  const auto run = local::run_views(g, ids, algo::make_largest_id_view());
  EXPECT_EQ(run.radii[ids.argmax()], n / 2);
  EXPECT_EQ(run.outputs[ids.argmax()], algo::kYes);
}

struct FamilyCase {
  std::string family;
  std::size_t n;
};

class LargestIdOnFamilies : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(LargestIdOnFamilies, CorrectOnGeneralGraphs) {
  const auto& param = GetParam();
  support::Xoshiro256 rng(99);
  graph::Graph g = param.family == "path"   ? graph::make_path(param.n)
                   : param.family == "tree" ? graph::make_random_tree(param.n, rng)
                   : param.family == "grid" ? graph::make_grid(param.n / 4, 4)
                   : param.family == "star" ? graph::make_star(param.n)
                   : param.family == "gnp"
                       ? graph::make_gnp_connected(param.n, 0.2, rng)
                       : graph::make_complete(param.n);
  for (int trial = 0; trial < 3; ++trial) {
    const auto ids = graph::IdAssignment::random(g.vertex_count(), rng);
    const auto run = local::run_views(g, ids, algo::make_largest_id_view());
    EXPECT_TRUE(algo::is_valid_largest_id(ids, run.outputs))
        << param.family << " trial " << trial;
    // The maximum vertex pays at least its eccentricity... its radius is
    // exactly the closure radius of its ball, bounded below by ecc.
    const auto leader = ids.argmax();
    EXPECT_GE(run.radii[leader],
              static_cast<std::size_t>(graph::eccentricity(g, leader)));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, LargestIdOnFamilies,
                         ::testing::Values(FamilyCase{"path", 17}, FamilyCase{"tree", 25},
                                           FamilyCase{"grid", 24}, FamilyCase{"star", 9},
                                           FamilyCase{"gnp", 30},
                                           FamilyCase{"complete", 8}),
                         [](const auto& param_info) {
                           return param_info.param.family + std::to_string(param_info.param.n);
                         });

// The message variant against the flooding-knowledge views at every cycle
// length in 3..257, odd and even: three random assignments per n, plus a
// sparse one holding the extreme identifiers 0 and UINT64_MAX.
TEST(LargestId, MessageVariantMatchesFloodingViews) {
  support::Xoshiro256 rng(5);
  local::ViewEngineOptions flooding;
  flooding.semantics = local::ViewSemantics::kFloodingKnowledge;
  for (std::size_t n = 3; n <= 257; ++n) {
    const auto g = graph::make_cycle(n);
    for (int trial = 0; trial < 4; ++trial) {
      const auto ids = trial < 3 ? graph::IdAssignment::random(n, rng) : sparse_ids(n, rng);
      const auto views = local::run_views(g, ids, algo::make_largest_id_view(), flooding);
      const auto messages = local::run_messages(g, ids, algo::make_largest_id_messages());
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(messages.outputs[v], views.outputs[v])
            << "n " << n << " trial " << trial << " v " << v;
        ASSERT_EQ(messages.radii[v], views.radii[v])
            << "n " << n << " trial " << trial << " v " << v;
      }
    }
  }
}

// One persistent runner per cycle length serves every trial, so each node's
// instance is reset and reused, and no identifier may stand for "nothing
// heard": a sparse assignment holding 0 and UINT64_MAX runs mid-batch.
// Every trial must equal a fresh engine and the views.
TEST(LargestId, BatchRunnerReuseMatchesFreshEngines) {
  constexpr std::size_t kTrials = 64;
  constexpr std::size_t kSparseTrial = 21;
  support::Xoshiro256 rng(31);
  for (const std::size_t n : {3u, 4u, 9u, 64u, 257u}) {
    const auto g = graph::make_cycle(n);
    std::vector<graph::IdAssignment> batch;
    for (std::size_t t = 0; t < kTrials; ++t) {
      batch.push_back(t == kSparseTrial ? sparse_ids(n, rng) : graph::IdAssignment::random(n, rng));
    }

    local::MessageBatchRunner runner(g, algo::make_largest_id_messages());
    std::vector<std::vector<std::int64_t>> outputs(kTrials, std::vector<std::int64_t>(n));
    std::vector<std::vector<std::size_t>> radii(kTrials, std::vector<std::size_t>(n));
    const auto sink = [&](std::size_t trial, graph::Vertex v, std::int64_t output,
                          std::size_t radius) {
      outputs[trial][v] = output;
      radii[trial][v] = radius;
    };
    // Two calls: the runner's engine and instances persist across them.
    const std::span<const graph::IdAssignment> all(batch);
    const std::size_t half = kTrials / 2;
    runner.run(all.first(half), sink);
    runner.run(all.subspan(half),
               [&](std::size_t trial, graph::Vertex v, std::int64_t output, std::size_t radius) {
                 sink(half + trial, v, output, radius);
               });

    local::ViewEngineOptions flooding;
    flooding.semantics = local::ViewSemantics::kFloodingKnowledge;
    for (std::size_t t = 0; t < kTrials; ++t) {
      const auto fresh = local::run_messages(g, batch[t], algo::make_largest_id_messages());
      const auto views = local::run_views(g, batch[t], algo::make_largest_id_view(), flooding);
      EXPECT_TRUE(algo::is_valid_largest_id(batch[t], outputs[t])) << "n " << n << " trial " << t;
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(outputs[t][v], fresh.outputs[v]) << "n " << n << " trial " << t << " v " << v;
        ASSERT_EQ(radii[t][v], fresh.radii[v]) << "n " << n << " trial " << t << " v " << v;
        ASSERT_EQ(outputs[t][v], views.outputs[v]) << "n " << n << " trial " << t << " v " << v;
        ASSERT_EQ(radii[t][v], views.radii[v]) << "n " << n << " trial " << t << " v " << v;
      }
    }
  }
}

TEST(LargestId, SemanticsDifferByAtMostOne) {
  support::Xoshiro256 rng(6);
  for (const std::size_t n : {5u, 8u, 13u}) {
    const auto g = graph::make_cycle(n);
    const auto ids = graph::IdAssignment::random(n, rng);
    local::ViewEngineOptions flooding;
    flooding.semantics = local::ViewSemantics::kFloodingKnowledge;
    const auto induced = local::run_views(g, ids, algo::make_largest_id_view());
    const auto flooded = local::run_views(g, ids, algo::make_largest_id_view(), flooding);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_LE(induced.radii[v], flooded.radii[v]);
      EXPECT_LE(flooded.radii[v] - induced.radii[v], 1u);
    }
  }
}

TEST(LargestId, UniverseAwareNeverSlower) {
  support::Xoshiro256 rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 6 + rng.below(60);
    const auto g = graph::make_cycle(n);
    const auto ids = graph::IdAssignment::random(n, rng);
    const auto paper = local::run_views(g, ids, algo::make_largest_id_view());
    const auto aware =
        local::run_views(g, ids, algo::make_largest_id_universe_aware_view());
    EXPECT_TRUE(algo::is_valid_largest_id(ids, aware.outputs));
    std::uint64_t saved = 0;
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_LE(aware.radii[v], paper.radii[v]) << "v " << v;
      saved += paper.radii[v] - aware.radii[v];
    }
    // The vertex with identifier 1 always stops at radius 0 under the
    // universe-aware rule (every completion contains a larger identifier).
    for (std::size_t v = 0; v < n; ++v) {
      if (ids.id_of(static_cast<graph::Vertex>(v)) == 1) {
        EXPECT_EQ(aware.radii[v], 0u);
      }
    }
    (void)saved;
  }
}

TEST(LargestId, TreeRadiusLaw) {
  // On any graph, under induced semantics, r(v) = min(distance to a larger
  // identifier, eccentricity of v) - the ball covers the graph exactly at
  // ecc(v). Validated on random trees and paths.
  support::Xoshiro256 rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 8 + rng.below(40);
    const graph::Graph g = trial % 2 == 0 ? graph::make_random_tree(n, rng)
                                          : graph::make_path(n);
    const auto ids = graph::IdAssignment::random(n, rng);
    const auto run = local::run_views(g, ids, algo::make_largest_id_view());
    for (graph::Vertex v = 0; v < n; ++v) {
      const auto dist = graph::bfs_distances(g, v);
      std::size_t expected = static_cast<std::size_t>(graph::eccentricity(g, v));
      for (graph::Vertex u = 0; u < n; ++u) {
        if (ids.id_of(u) > ids.id_of(v)) {
          expected = std::min(expected, static_cast<std::size_t>(dist[u]));
        }
      }
      EXPECT_EQ(run.radii[v], expected) << "trial " << trial << " v " << v;
    }
  }
}

TEST(LargestId, RadiusSumHelperAgrees) {
  support::Xoshiro256 rng(8);
  const auto ids = graph::IdAssignment::random(41, rng);
  const auto radii = algo::largest_id_radii_on_cycle(ids);
  std::uint64_t sum = 0;
  for (auto r : radii) sum += r;
  EXPECT_EQ(algo::largest_id_radius_sum_on_cycle(ids), sum);
}

TEST(Validity, CheckersCatchBadOutputs) {
  const auto ids = graph::IdAssignment::identity(5);
  const auto g = graph::make_cycle(5);
  std::vector<std::int64_t> two_leaders = {0, 1, 0, 0, 1};
  EXPECT_FALSE(algo::is_valid_largest_id(ids, two_leaders));
  std::vector<std::int64_t> ok = {0, 0, 0, 0, 1};
  EXPECT_TRUE(algo::is_valid_largest_id(ids, ok));

  std::vector<std::int64_t> bad_colouring = {0, 0, 1, 2, 1};
  EXPECT_FALSE(algo::is_valid_colouring(g, bad_colouring, 3));
  std::vector<std::int64_t> good_colouring = {0, 1, 0, 1, 2};
  EXPECT_TRUE(algo::is_valid_colouring(g, good_colouring, 3));
  EXPECT_FALSE(algo::is_valid_colouring(g, good_colouring, 2)) << "palette bound enforced";

  std::vector<std::int64_t> not_maximal = {0, 0, 0, 0, 0};
  EXPECT_FALSE(algo::is_maximal_independent_set(g, not_maximal));
  std::vector<std::int64_t> not_independent = {1, 1, 0, 1, 0};
  EXPECT_FALSE(algo::is_maximal_independent_set(g, not_independent));
  std::vector<std::int64_t> good_mis = {1, 0, 1, 0, 0};
  EXPECT_TRUE(algo::is_maximal_independent_set(g, good_mis));
}

}  // namespace
