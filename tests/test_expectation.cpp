// Tests of the expected-complexity formulas (the paper's "further work"
// question): exact closed forms validated against full enumeration at small
// n and against simulation at large n.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/largest_id.hpp"
#include "analysis/expectation.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"

namespace {

using namespace avglocal;

/// Largest-id random-permutation sweep on the n-cycle through the driver.
core::BatchedSweepPoint largest_id_cycle_point(std::size_t n,
                                               const core::BatchedSweepOptions& options) {
  const core::ViewBackend backend([](std::size_t) { return algo::make_largest_id_view(); });
  const core::SweepPool pool(options);
  return core::SweepDriver(backend, options, pool.get())
      .run({n}, [](std::size_t m) { return graph::make_cycle(m); })
      .front();
}

TEST(Expectation, ClosedFormMatchesFullEnumeration) {
  // E[avg radius] by formula == exact average over all (n-1)! arrangements.
  for (std::size_t n = 4; n <= 9; ++n) {
    const double formula = analysis::expected_largest_id_average(n);
    const double brute = analysis::brute_force_expected_average(n, false);
    EXPECT_NEAR(formula, brute, 1e-9) << "n = " << n;
  }
}

TEST(Expectation, UniverseAwareClosedFormMatchesFullEnumeration) {
  for (std::size_t n = 4; n <= 9; ++n) {
    const double formula = analysis::expected_universe_aware_average(n);
    const double brute = analysis::brute_force_expected_average(n, true);
    EXPECT_NEAR(formula, brute, 1e-9) << "n = " << n;
  }
}

TEST(Expectation, GrowsLikeHalfLogN) {
  // sum 1/(2d-1) = (ln n)/2 + O(1): the normalised value settles near 0.5.
  const double r1 = analysis::expected_largest_id_average(1u << 10) /
                    std::log(static_cast<double>(1u << 10));
  const double r2 = analysis::expected_largest_id_average(1u << 16) /
                    std::log(static_cast<double>(1u << 16));
  EXPECT_NEAR(r1, 0.5, 0.2);
  EXPECT_NEAR(r2, 0.5, 0.12);
  EXPECT_LT(std::abs(r2 - 0.5), std::abs(r1 - 0.5)) << "converging towards 1/2";
}

TEST(Expectation, UniverseAwareIsSmallerButSameOrder) {
  for (const std::size_t n : {64u, 1024u, 16384u}) {
    const double plain = analysis::expected_largest_id_average(n);
    const double aware = analysis::expected_universe_aware_average(n);
    EXPECT_LT(aware, plain) << "n = " << n;
    EXPECT_GT(aware, 0.25 * plain) << "same Theta(log n) order, n = " << n;
  }
}

TEST(Expectation, ClassicMeasureIsDeterministic) {
  // Every permutation gives max radius ceil((n-1)/2): check by running the
  // engine over several random permutations.
  const std::size_t n = 40;
  core::BatchedSweepOptions options;
  options.trials = 10;
  options.seed = 3;
  const auto point = largest_id_cycle_point(n, options);
  EXPECT_EQ(point.max_worst, analysis::deterministic_largest_id_max(n));
  EXPECT_DOUBLE_EQ(point.max_mean,
                   static_cast<double>(analysis::deterministic_largest_id_max(n)));
}

TEST(Expectation, SimulationWithinSamplingError) {
  const std::size_t n = 4096;
  core::BatchedSweepOptions options;
  options.trials = 40;
  options.seed = 9;
  const auto point = largest_id_cycle_point(n, options);
  const double exact = analysis::expected_largest_id_average(n);
  const double stderr_mean = point.avg_sd / std::sqrt(static_cast<double>(options.trials));
  EXPECT_NEAR(point.avg_mean, exact, 5 * stderr_mean + 1e-6);
}

}  // namespace
