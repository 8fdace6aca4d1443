// Tests of greedy (Delta+1)-colouring by identifier order: validity on many
// families, the longest-increasing-path radius law, agreement between the
// message and ball formulations, and the worst/average separation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "algo/greedy_colouring.hpp"
#include "algo/registry.hpp"
#include "algo/validity.hpp"
#include "graph/family_registry.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "graph/properties.hpp"
#include "kit/oracles.hpp"
#include "local/engine.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace avglocal;

graph::Graph make_family(const std::string& family, std::size_t n,
                         support::Xoshiro256& rng) {
  if (family == "cycle") return graph::make_cycle(n);
  if (family == "path") return graph::make_path(n);
  if (family == "tree") return graph::make_random_tree(n, rng);
  if (family == "grid") return graph::make_grid(n / 5, 5);
  if (family == "torus") return graph::make_torus(n / 6, 6);
  if (family == "gnp") return graph::make_gnp_connected(n, 0.15, rng);
  if (family == "random_regular") return graph::make_random_regular(n, 4, rng);
  return graph::make_star(n);
}

struct GreedyCase {
  std::string family;
  std::size_t n;
  std::uint64_t seed;
};

class GreedyColouring : public ::testing::TestWithParam<GreedyCase> {};

TEST_P(GreedyColouring, ValidDeltaPlusOneAndRadiusLaw) {
  const auto& param = GetParam();
  support::Xoshiro256 rng(param.seed);
  const graph::Graph g = make_family(param.family, param.n, rng);
  const auto ids = graph::IdAssignment::random(g.vertex_count(), rng);

  const auto by_messages =
      local::run_messages(g, ids, algo::make_greedy_colouring_messages());
  EXPECT_TRUE(algo::is_valid_colouring(
      g, by_messages.outputs, static_cast<std::int64_t>(graph::max_degree(g)) + 1))
      << param.family;

  // Message rounds follow the longest-increasing-path law exactly.
  const auto law = algo::greedy_colouring_radii(g, ids);
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(by_messages.radii[v], law[v]) << param.family << " v " << v;
  }

  // The ball formulation computes the same colouring, never later than the
  // message formulation (shortcuts through the ball can only help).
  const auto by_views = local::run_views(g, ids, algo::make_greedy_colouring_view());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(by_views.outputs[v], by_messages.outputs[v]) << param.family << " v " << v;
    EXPECT_LE(by_views.radii[v], by_messages.radii[v]) << param.family << " v " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GreedyColouring,
    ::testing::Values(GreedyCase{"cycle", 24, 1}, GreedyCase{"cycle", 64, 2},
                      GreedyCase{"path", 30, 3}, GreedyCase{"tree", 40, 4},
                      GreedyCase{"grid", 30, 5}, GreedyCase{"gnp", 32, 6},
                      GreedyCase{"star", 12, 7}, GreedyCase{"torus", 36, 11},
                      GreedyCase{"random_regular", 32, 12}),
    [](const auto& param_info) {
      return param_info.param.family + std::to_string(param_info.param.n) + "_s" +
             std::to_string(param_info.param.seed);
    });

/// Exact reference: replays the greedy order over the whole ball, every
/// vertex in decreasing identifier order. A vertex is determined when all
/// its ports are resolved and every higher-identifier neighbour is
/// determined. The registry's greedy colours only the root's increasing
/// paths and must agree on every output and radius.
class WholeBallGreedy final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    std::vector<std::size_t> order(view.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&view](std::size_t a, std::size_t b) { return view.ids[a] > view.ids[b]; });
    std::vector<std::optional<std::int64_t>> colour(view.size());
    for (const std::size_t u : order) {
      bool resolved = true;
      std::vector<std::int64_t> higher_colours;
      for (const auto target : view.ports[u]) {
        if (target == local::kUnknownTarget ||
            (view.ids[target] > view.ids[u] && !colour[target])) {
          resolved = false;
          break;
        }
        if (view.ids[target] > view.ids[u]) higher_colours.push_back(*colour[target]);
      }
      if (!resolved) continue;
      std::sort(higher_colours.begin(), higher_colours.end());
      std::int64_t free = 0;
      for (const std::int64_t c : higher_colours) {
        if (c == free) ++free;
        if (c > free) break;
      }
      colour[u] = free;
    }
    return colour[0];
  }

  bool reset() noexcept override { return true; }
  std::size_t min_radius() const noexcept override { return 1; }
};

struct ExactCase {
  const char* family;
  std::size_t n;
  std::uint64_t seed;
};

class GreedyExactReference : public ::testing::TestWithParam<ExactCase> {};

TEST_P(GreedyExactReference, SerialAndPooledMatchWholeBallReplay) {
  const auto& param = GetParam();
  support::Xoshiro256 rng(param.seed);
  const graph::Graph g = graph::FamilyRegistry::global().build(
      graph::parse_family_spec(param.family), param.n, rng);
  const std::size_t n = g.vertex_count();
  std::vector<graph::IdAssignment> batch;
  for (int t = 0; t < 3; ++t) batch.push_back(graph::IdAssignment::random(n, rng));

  const local::ViewAlgorithmFactory reference = [] { return std::make_unique<WholeBallGreedy>(); };
  const local::ViewAlgorithmFactory greedy = algo::AlgorithmRegistry::global().at("greedy").view(n);
  support::ThreadPool pool(4);
  for (const auto semantics :
       {local::ViewSemantics::kInducedBall, local::ViewSemantics::kFloodingKnowledge}) {
    local::ViewEngineOptions options;
    options.semantics = semantics;
    std::vector<local::RunResult> want;
    for (const graph::IdAssignment& ids : batch) {
      want.push_back(local::run_views(g, ids, reference, options));
      const local::RunResult serial = local::run_views(g, ids, greedy, options);
      EXPECT_EQ(serial.outputs, want.back().outputs) << local::to_string(semantics);
      EXPECT_EQ(serial.radii, want.back().radii) << local::to_string(semantics);
    }

    std::vector<std::vector<std::int64_t>> outputs(batch.size(), std::vector<std::int64_t>(n));
    std::vector<std::vector<std::size_t>> radii(batch.size(), std::vector<std::size_t>(n));
    options.pool = &pool;
    local::run_views_batched(g, batch, greedy, options,
                             [&](std::size_t trial, graph::Vertex v,
                                 std::int64_t output, std::size_t radius) {
                               outputs[trial][v] = output;
                               radii[trial][v] = radius;
                             });
    for (std::size_t t = 0; t < batch.size(); ++t) {
      EXPECT_EQ(outputs[t], want[t].outputs) << local::to_string(semantics) << " trial " << t;
      EXPECT_EQ(radii[t], want[t].radii) << local::to_string(semantics) << " trial " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GreedyExactReference,
    ::testing::Values(ExactCase{"cycle", 64, 21}, ExactCase{"path", 40, 22},
                      ExactCase{"random-tree", 60, 23}, ExactCase{"grid", 64, 24},
                      ExactCase{"torus", 64, 25}, ExactCase{"gnp", 48, 26},
                      ExactCase{"random-regular:degree=4", 48, 27},
                      ExactCase{"star", 16, 28}),
    [](const auto& param_info) {
      std::string name = param_info.param.family;
      std::replace_if(name.begin(), name.end(), [](char c) { return !std::isalnum(c); }, '_');
      return name;
    });

TEST(GreedyColouringLaw, ViewEqualsMinOfLawAndClosureOnCycles) {
  support::Xoshiro256 rng(8);
  for (const std::size_t n : {12u, 33u, 64u}) {
    const graph::Graph g = graph::make_cycle(n);
    const auto ids = graph::IdAssignment::random(n, rng);
    const auto law = algo::greedy_colouring_radii(g, ids);
    const auto run = local::run_views(g, ids, algo::make_greedy_colouring_view());
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(run.radii[v], std::min(law[v], n / 2)) << "n " << n << " v " << v;
    }
  }
}

TEST(GreedyColouringSeparation, MonotoneIdsForceLinearAverage) {
  // Identity identifiers on a cycle: the increasing path from vertex v runs
  // all the way to vertex n-1, so radii are linear and so is the average -
  // while a random permutation keeps the average logarithmic. A second
  // exponential measure-gap, on the same topology as the paper.
  const std::size_t n = 256;
  const graph::Graph g = graph::make_cycle(n);

  const auto monotone =
      local::run_views(g, graph::IdAssignment::identity(n), algo::make_greedy_colouring_view());
  EXPECT_GT(monotone.average_radius(), static_cast<double>(n) / 8.0);

  support::Xoshiro256 rng(9);
  const auto random_run =
      local::run_views(g, graph::IdAssignment::random(n, rng),
                       algo::make_greedy_colouring_view());
  EXPECT_LT(random_run.average_radius(), 3.0 * std::log2(static_cast<double>(n)));
  EXPECT_LT(random_run.average_radius() * 8, monotone.average_radius());
}

TEST(GreedyColouringLaw, LocalMaximaStopAtRadiusOne) {
  support::Xoshiro256 rng(10);
  const std::size_t n = 48;
  const graph::Graph g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::random(n, rng);
  const auto run = local::run_views(g, ids, algo::make_greedy_colouring_view());
  for (std::size_t v = 0; v < n; ++v) {
    const auto left = ids.id_of(static_cast<graph::Vertex>((v + n - 1) % n));
    const auto right = ids.id_of(static_cast<graph::Vertex>((v + 1) % n));
    if (ids.id_of(static_cast<graph::Vertex>(v)) > left &&
        ids.id_of(static_cast<graph::Vertex>(v)) > right) {
      EXPECT_EQ(run.radii[v], 1u) << "local maximum " << v;
      EXPECT_EQ(run.outputs[v], 0) << "local maxima take colour 0";
    }
  }
}

}  // namespace
