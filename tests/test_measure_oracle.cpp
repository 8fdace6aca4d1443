// Brute-force oracle for the node- and edge-averaged measures: on graphs
// with n <= 8, enumerate every identifier permutation (or, for the sweep
// pins, rebuild the sweep's exact id streams), recompute every measure by
// direct definition - independent double loops over vertices, edges and
// assignments, no histograms, no accumulators - and require measure.cpp and
// finalize_point to agree exactly. Integer quantities must match bit for
// bit; derived doubles are recomputed with the same operations in the same
// order, so they must too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "algo/greedy_colouring.hpp"
#include "algo/largest_id.hpp"
#include "core/batched_sweep.hpp"
#include "core/measure.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace {

using namespace avglocal;

/// Brute-force edge times: every unordered pair (u, v) that is adjacent,
/// found via has_edge - an implementation independent of the canonical
/// CSR-arc enumeration the library uses.
std::vector<std::size_t> brute_force_edge_times(const graph::Graph& g,
                                                const std::vector<std::size_t>& radii) {
  std::vector<std::size_t> times;
  for (graph::Vertex u = 0; u < g.vertex_count(); ++u) {
    for (graph::Vertex v = u + 1; v < g.vertex_count(); ++v) {
      if (g.has_edge(u, v)) times.push_back(std::max(radii[u], radii[v]));
    }
  }
  return times;
}

std::vector<graph::Graph> oracle_graphs() {
  support::Xoshiro256 rng(17);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::make_cycle(5));
  graphs.push_back(graph::make_path(6));
  graphs.push_back(graph::make_complete(4));
  graphs.push_back(graph::make_star(7));
  graphs.push_back(graph::make_random_tree(8, rng));
  return graphs;
}

TEST(MeasureOracle, EdgeMeasuresMatchBruteForceOverAllPermutationsAtSmallN) {
  for (const graph::Graph& g : oracle_graphs()) {
    const std::size_t n = g.vertex_count();
    const auto edges = core::canonical_edges(g);
    ASSERT_EQ(edges.size(), g.edge_count());

    std::vector<std::uint64_t> perm(n);
    std::iota(perm.begin(), perm.end(), 1);
    std::size_t permutations = 0;
    do {
      // Cap the 8! = 40320 case: every 97th permutation still covers the
      // space far better than random sampling would.
      if (n >= 8 && permutations++ % 97 != 0) continue;
      const graph::IdAssignment ids{std::vector<std::uint64_t>(perm)};
      const auto run = local::run_views(g, ids, algo::make_largest_id_view());

      const auto expected = brute_force_edge_times(g, run.radii);
      std::uint64_t expected_sum = 0;
      std::size_t expected_max = 0;
      for (const std::size_t t : expected) {
        expected_sum += t;
        expected_max = std::max(expected_max, t);
      }

      const core::EdgeMeasurement m = core::measure_edges(g, run.radii);
      ASSERT_EQ(m.edges, expected.size());
      ASSERT_EQ(m.sum_time, expected_sum);
      ASSERT_EQ(m.max_time, expected_max);
      ASSERT_EQ(m.avg_time, static_cast<double>(expected_sum) /
                                static_cast<double>(expected.size()));

      local::RadiusHistogram hist;
      ASSERT_EQ(core::accumulate_edge_times(edges, run.radii, hist), expected_sum);
      ASSERT_EQ(hist.samples(), expected.size());
      ASSERT_EQ(hist.max_radius(), expected_max);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

/// Recomputes every field of a finalized sweep point from per-trial
/// run_views (or run_messages) results obtained on the sweep's own id
/// streams: the full direct-enumeration pin of the averaged measures.
void expect_point_matches_brute_force(const graph::Graph& g,
                                      const core::BatchedSweepOptions& options,
                                      const core::BatchedSweepPoint& point,
                                      const std::vector<local::RunResult>& runs) {
  const std::size_t n = g.vertex_count();
  const std::size_t trials = options.trials;
  ASSERT_EQ(runs.size(), trials);

  // Node-averaged family, by definition.
  support::RunningStats avg_stats;
  support::RunningStats max_stats;
  std::vector<double> node_mean(n, 0.0);
  std::uint64_t radius_total = 0;
  std::size_t radius_max = 0;
  for (const auto& run : runs) {
    std::uint64_t sum = 0;
    std::size_t max = 0;
    for (graph::Vertex v = 0; v < n; ++v) {
      sum += run.radii[v];
      max = std::max(max, run.radii[v]);
      node_mean[v] += static_cast<double>(run.radii[v]);
      radius_total += run.radii[v];
      radius_max = std::max(radius_max, run.radii[v]);
    }
    avg_stats.add(static_cast<double>(sum) / static_cast<double>(n));
    max_stats.add(static_cast<double>(max));
  }
  for (double& m : node_mean) m /= static_cast<double>(trials);

  EXPECT_EQ(point.avg_mean, avg_stats.mean());
  EXPECT_EQ(point.avg_sd, avg_stats.stddev());
  EXPECT_EQ(point.max_mean, max_stats.mean());
  EXPECT_EQ(point.radius.samples, static_cast<std::uint64_t>(n) * trials);
  EXPECT_EQ(point.radius.mean, static_cast<double>(radius_total) /
                                   static_cast<double>(n * trials));
  EXPECT_EQ(point.radius.max, radius_max);
  EXPECT_EQ(point.node_mean_min, *std::min_element(node_mean.begin(), node_mean.end()));
  EXPECT_EQ(point.node_mean_max, *std::max_element(node_mean.begin(), node_mean.end()));

  // Edge-averaged family, by definition (brute-force pair enumeration).
  const std::size_t m = g.edge_count();
  support::RunningStats edge_stats;
  std::uint64_t edge_total = 0;
  std::size_t edge_max = 0;
  std::uint64_t edge_samples = 0;
  for (const auto& run : runs) {
    const auto times = brute_force_edge_times(g, run.radii);
    std::uint64_t sum = 0;
    for (const std::size_t t : times) {
      sum += t;
      edge_max = std::max(edge_max, t);
    }
    edge_total += sum;
    edge_samples += times.size();
    edge_stats.add(static_cast<double>(sum) / static_cast<double>(m));
  }
  EXPECT_EQ(point.edges, m);
  EXPECT_EQ(point.edge_avg_mean, edge_stats.mean());
  EXPECT_EQ(point.edge_avg_sd, edge_stats.stddev());
  EXPECT_EQ(point.edge_time.samples, edge_samples);
  EXPECT_EQ(point.edge_time.mean,
            static_cast<double>(edge_total) / static_cast<double>(edge_samples));
  EXPECT_EQ(point.edge_time.max, edge_max);

  // Quantiles, by the definition in RadiusHistogram::quantile: the smallest
  // time whose cumulative sample count reaches q * samples.
  std::vector<std::size_t> all_times;
  for (const auto& run : runs) {
    const auto times = brute_force_edge_times(g, run.radii);
    all_times.insert(all_times.end(), times.begin(), times.end());
  }
  std::sort(all_times.begin(), all_times.end());
  ASSERT_EQ(point.edge_time.probs.size(), point.edge_time.quantiles.size());
  for (std::size_t i = 0; i < point.edge_time.probs.size(); ++i) {
    const double q = point.edge_time.probs[i];
    const double target = q * static_cast<double>(all_times.size());
    std::size_t cumulative = 0;
    std::size_t expected = all_times.back();
    // The definition mirrored by RadiusHistogram::quantile: the smallest
    // *occurring* time whose cumulative count reaches q * samples.
    for (std::size_t t = 0; t <= all_times.back(); ++t) {
      const auto count = static_cast<std::size_t>(
          std::upper_bound(all_times.begin(), all_times.end(), t) -
          std::lower_bound(all_times.begin(), all_times.end(), t));
      cumulative += count;
      if (count != 0 && static_cast<double>(cumulative) >= target) {
        expected = t;
        break;
      }
    }
    EXPECT_EQ(point.edge_time.quantiles[i], expected) << "q=" << q;
  }
}

TEST(MeasureOracle, ViewSweepPointMatchesDirectEnumeration) {
  const auto g = graph::make_cycle(7);
  core::BatchedSweepOptions options;
  options.trials = 10;
  options.seed = 23;
  options.threads = 1;
  options.quantile_probs = {0.0, 0.25, 0.5, 0.9, 1.0};

  const core::ViewBackend backend([](std::size_t) { return algo::make_largest_id_view(); });
  const auto points = core::SweepDriver(backend, options)
                          .run({7}, [](std::size_t n) { return graph::make_cycle(n); });
  ASSERT_EQ(points.size(), 1u);

  // Rebuild the sweep's id streams and run each trial directly.
  std::vector<local::RunResult> runs;
  const std::uint64_t point_seed = support::derive_seed(options.seed, 0);
  for (std::size_t t = 0; t < options.trials; ++t) {
    support::Xoshiro256 rng(support::derive_seed(point_seed, t));
    const auto ids = graph::IdAssignment::random(7, rng);
    runs.push_back(local::run_views(g, ids, algo::make_largest_id_view()));
  }
  expect_point_matches_brute_force(g, options, points[0], runs);
}

TEST(MeasureOracle, MessageSweepPointMatchesDirectEnumeration) {
  support::Xoshiro256 graph_rng(3);
  const auto g = graph::make_random_tree(8, graph_rng);
  core::BatchedSweepOptions options;
  options.trials = 8;
  options.seed = 41;
  options.quantile_probs = {0.5, 0.9, 0.99};

  const core::MessageBackend backend(
      [](std::size_t) { return algo::make_greedy_colouring_messages(); });
  const core::SweepDriver driver(backend, options);
  core::SweepDriver::Point prepared = driver.prepare(g, 0);
  const auto point = core::finalize_point(driver.run_trials(prepared, 0, options.trials), options);

  std::vector<local::RunResult> runs;
  const std::uint64_t point_seed = support::derive_seed(options.seed, 0);
  for (std::size_t t = 0; t < options.trials; ++t) {
    support::Xoshiro256 rng(support::derive_seed(point_seed, t));
    const auto ids = graph::IdAssignment::random(8, rng);
    runs.push_back(local::run_messages(g, ids, algo::make_greedy_colouring_messages()));
  }
  expect_point_matches_brute_force(g, options, point, runs);
}

}  // namespace
