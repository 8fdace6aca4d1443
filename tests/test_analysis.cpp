// Tests of the analysis toolkit: the recurrence and its four-way agreement,
// A000788, adversaries, neighbourhood graphs and chromatic numbers.
#include <gtest/gtest.h>

#include <cmath>
#include "algo/largest_id.hpp"
#include "analysis/a000788.hpp"
#include "analysis/adversary.hpp"
#include "analysis/chromatic.hpp"
#include "analysis/exhaustive.hpp"
#include "analysis/neighbourhood_graph.hpp"
#include "analysis/recurrence.hpp"
#include "core/measure.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "local/view_engine.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

TEST(Recurrence, SmallValues) {
  const analysis::Recurrence rec(16);
  EXPECT_EQ(rec.a(0), 0u);
  EXPECT_EQ(rec.a(1), 1u);
  EXPECT_EQ(rec.a(2), 2u);
  EXPECT_EQ(rec.a(3), 4u);
  EXPECT_EQ(rec.a(4), 5u);
  EXPECT_EQ(rec.a(5), 7u);
  EXPECT_EQ(rec.a(6), 9u);
  EXPECT_EQ(rec.a(7), 12u);
}

TEST(Recurrence, EqualsA000788) {
  // The paper's pointer to OEIS A000788, verified exactly.
  const std::size_t limit = 4096;
  const analysis::Recurrence rec(limit);
  for (std::size_t p = 0; p <= limit; ++p) {
    ASSERT_EQ(rec.a(p), analysis::a000788(p)) << "p = " << p;
  }
}

TEST(Recurrence, ThetaNLogN) {
  const std::size_t p = 1u << 12;
  const analysis::Recurrence rec(p);
  const double normalised = static_cast<double>(rec.a(p)) /
                            (static_cast<double>(p) * std::log2(static_cast<double>(p)));
  EXPECT_GT(normalised, 0.4);
  EXPECT_LT(normalised, 0.6);
}

TEST(A000788, MatchesBruteForce) {
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i <= 3000; ++i) {
    sum += static_cast<std::uint64_t>(support::popcount_u64(i));
    ASSERT_EQ(analysis::a000788(i), sum) << "i = " << i;
  }
  EXPECT_EQ(analysis::total_ones_below(0), 0u);
  EXPECT_EQ(analysis::total_ones_below(1), 0u);
  EXPECT_EQ(analysis::total_ones_below(2), 1u);
}

TEST(Construction, SegmentIsAPermutation) {
  const analysis::Recurrence rec(64);
  for (std::size_t p = 1; p <= 64; ++p) {
    const auto ids = analysis::worst_case_segment_ids(rec, p);
    ASSERT_EQ(ids.size(), p);
    std::vector<bool> seen(p + 1, false);
    for (const auto id : ids) {
      ASSERT_GE(id, 1u);
      ASSERT_LE(id, p);
      ASSERT_FALSE(seen[id]);
      seen[id] = true;
    }
  }
}

TEST(Construction, AchievesPredictedSumExactly) {
  // The explicit extremal arrangement achieves ceil((n-1)/2) + a(n-1): the
  // third independent computation of the worst case.
  const analysis::Recurrence rec(1024);
  for (const std::size_t n : {4u, 8u, 16u, 64u, 256u, 1024u}) {
    const auto ids = analysis::worst_case_cycle_ids(rec, n);
    const std::uint64_t simulated = algo::largest_id_radius_sum_on_cycle(ids);
    EXPECT_EQ(simulated, analysis::predicted_worst_cycle_sum(rec, n)) << "n = " << n;
  }
}

TEST(Exhaustive, BruteForceMatchesRecurrence) {
  // The fourth independent computation: brute force over all permutations.
  const analysis::Recurrence rec(16);
  for (std::size_t n = 4; n <= 8; ++n) {
    const auto brute = analysis::exhaustive_worst_largest_id_cycle(n);
    EXPECT_EQ(brute.max_sum, analysis::predicted_worst_cycle_sum(rec, n)) << "n = " << n;
    std::uint64_t factorial = 1;
    for (std::size_t i = 2; i < n; ++i) factorial *= i;
    EXPECT_EQ(brute.permutations_checked, factorial);
  }
}

TEST(Exhaustive, NoPointwiseMinimalityViolations) {
  for (std::size_t n = 4; n <= 6; ++n) {
    EXPECT_EQ(analysis::count_pointwise_minimality_violations(n), 0u) << "n = " << n;
  }
}

TEST(Adversary, SlicePlantsGuaranteedHighRadiusCentres) {
  // The construction's deterministic guarantee (the device of Theorem 1's
  // proof): every copied slice centre keeps radius >= r* under the built
  // permutation, because its sub-r* views are copied verbatim.
  const std::size_t n = 128;
  const auto factory = algo::make_largest_id_view();
  const auto cycle = graph::make_cycle(n);

  analysis::SliceAdversaryOptions options;
  options.seed = 11;
  options.slice_radius = 7;  // ceil(log2 128)
  const auto adversarial = analysis::build_slice_adversary(n, factory, options);
  const auto run = local::run_views(cycle, adversarial, factory);

  // Slices of width 2*7+1 = 15 are cut until at most n/2 identifiers remain:
  // at least 4 centres are planted.
  std::size_t high_radius = 0;
  for (const std::size_t r : run.radii) {
    if (r >= options.slice_radius) ++high_radius;
  }
  EXPECT_GE(high_radius, 4u);

  // And the average can never beat the exact worst case.
  const analysis::Recurrence rec(n);
  const double slice_avg = core::measure(run).avg_radius;
  EXPECT_LE(slice_avg, static_cast<double>(analysis::predicted_worst_cycle_sum(rec, n)) /
                           static_cast<double>(n) + 1e-9);
}

TEST(Adversary, SlicePermutationIsValid) {
  analysis::SliceAdversaryOptions options;
  options.seed = 2;
  const auto ids = analysis::build_slice_adversary(64, algo::make_largest_id_view(), options);
  EXPECT_EQ(ids.size(), 64u);  // IdAssignment construction enforces distinctness
}

TEST(Adversary, HillClimbNeverWorseThanStart) {
  const std::size_t n = 48;
  const auto factory = algo::make_largest_id_view();
  analysis::HillClimbOptions options;
  options.iterations = 150;
  options.seed = 21;
  const auto climbed = analysis::hill_climb_adversary(n, factory, options);
  const auto cycle = graph::make_cycle(n);
  const double value = core::measure(local::run_views(cycle, climbed, factory)).avg_radius;

  support::Xoshiro256 rng(options.seed);
  std::vector<std::uint64_t> start(n);
  for (std::size_t i = 0; i < n; ++i) start[i] = i + 1;
  support::shuffle(start, rng);
  const double initial =
      core::measure(local::run_views(cycle, graph::IdAssignment(start), factory)).avg_radius;
  EXPECT_GE(value, initial);
}

TEST(NeighbourhoodGraph, SizeFormula) {
  EXPECT_EQ(analysis::neighbourhood_graph_size(5, 0), 5u);
  EXPECT_EQ(analysis::neighbourhood_graph_size(5, 1), 60u);
  EXPECT_EQ(analysis::neighbourhood_graph_size(7, 1), 210u);
}

TEST(NeighbourhoodGraph, RadiusZeroIsComplete) {
  for (std::size_t n = 4; n <= 7; ++n) {
    const auto g = analysis::build_neighbourhood_graph(n, 0);
    EXPECT_EQ(g.vertex_count(), n);
    EXPECT_EQ(g.edge_count(), n * (n - 1) / 2);
    const auto chi = analysis::chromatic_number(g);
    ASSERT_TRUE(chi.has_value());
    EXPECT_EQ(*chi, n) << "chi(B_0(n)) = chi(K_n) = n";
  }
}

TEST(NeighbourhoodGraph, RadiusOneStructure) {
  const std::size_t n = 5;
  const auto g = analysis::build_neighbourhood_graph(n, 1);
  EXPECT_EQ(g.vertex_count(), 60u);
  // Every view (a,b,c) has n-3 successor shifts and n-3 predecessor shifts.
  for (graph::Vertex v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(g.degree(v), 2 * (n - 3));
  }
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(NeighbourhoodGraph, RejectsOversize) {
  EXPECT_THROW(analysis::build_neighbourhood_graph(50, 2), std::invalid_argument);
  EXPECT_THROW(analysis::build_neighbourhood_graph(3, 1), std::invalid_argument);
}

TEST(Chromatic, ExactOnKnownGraphs) {
  const auto c5 = graph::make_cycle(5);
  EXPECT_EQ(analysis::chromatic_number(c5).value(), 3u);  // odd cycle
  const auto c6 = graph::make_cycle(6);
  EXPECT_EQ(analysis::chromatic_number(c6).value(), 2u);  // even cycle
  const auto k4 = graph::make_complete(4);
  EXPECT_EQ(analysis::chromatic_number(k4).value(), 4u);
  const auto star = graph::make_star(7);
  EXPECT_EQ(analysis::chromatic_number(star).value(), 2u);
}

TEST(Chromatic, KColourabilityConsistency) {
  const auto g = analysis::build_neighbourhood_graph(6, 1);
  const auto chi = analysis::chromatic_number(g, 20'000'000);
  ASSERT_TRUE(chi.has_value());
  EXPECT_GE(*chi, analysis::greedy_clique_lower(g));
  EXPECT_LE(*chi, analysis::greedy_chromatic_upper(g));
  EXPECT_TRUE(analysis::k_colourable(g, *chi, 20'000'000).value());
  if (*chi > 1) {
    EXPECT_FALSE(analysis::k_colourable(g, *chi - 1, 20'000'000).value());
  }
}

TEST(Chromatic, OneRoundCannotThreeColourModerateUniverses) {
  // The concrete content of Linial's bound at t = 1: already for small
  // identifier universes, one round is not enough to 3-colour the ring.
  const auto g = analysis::build_neighbourhood_graph(8, 1);
  const auto three = analysis::k_colourable(g, 3, 50'000'000);
  ASSERT_TRUE(three.has_value()) << "budget too small";
  EXPECT_FALSE(*three);
}

TEST(Chromatic, BudgetExhaustionIsReported) {
  const auto g = analysis::build_neighbourhood_graph(8, 1);
  EXPECT_EQ(analysis::k_colourable(g, 3, 10), std::nullopt);
}

}  // namespace
