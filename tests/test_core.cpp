// Tests of the core measurement framework and a smoke run of every
// experiment in the suite.
#include <gtest/gtest.h>

#include <string>

#include "algo/largest_id.hpp"
#include "core/experiments.hpp"
#include "core/measure.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "kit/oracles.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

TEST(Measure, ExtractsBothMeasures) {
  local::RunResult run;
  run.radii = {0, 1, 2, 3};
  run.outputs = {0, 0, 0, 1};
  const auto m = core::measure(run);
  EXPECT_EQ(m.n, 4u);
  EXPECT_EQ(m.sum_radius, 6u);
  EXPECT_EQ(m.max_radius, 3u);
  EXPECT_DOUBLE_EQ(m.avg_radius, 1.5);
  EXPECT_DOUBLE_EQ(core::measure_gap(m), 2.0);
}

TEST(Measure, GapOfZeroRadiiIsOne) {
  local::RunResult run;
  run.radii = {0, 0};
  EXPECT_DOUBLE_EQ(core::measure_gap(core::measure(run)), 1.0);
}

/// Largest-id random-permutation sweep on cycles through the one driver.
std::vector<core::BatchedSweepPoint> largest_id_cycle_sweep(
    const std::vector<std::size_t>& ns, const core::BatchedSweepOptions& options) {
  const core::ViewBackend backend([](std::size_t) { return algo::make_largest_id_view(); });
  const core::SweepPool pool(options);
  return core::SweepDriver(backend, options, pool.get())
      .run(ns, [](std::size_t n) { return graph::make_cycle(n); });
}

TEST(ViewRun, MeasureMatchesEngine) {
  const auto g = graph::make_cycle(32);
  const auto ids = graph::reversed_ids(32);
  const auto m = core::measure(local::run_views(g, ids, algo::make_largest_id_view()));
  EXPECT_EQ(m.n, 32u);
  EXPECT_EQ(m.max_radius, 16u);  // the max vertex must close the ball
}

TEST(Sweep, IsDeterministicAcrossThreadCounts) {
  core::BatchedSweepOptions serial;
  serial.trials = 10;
  serial.seed = 5;
  serial.threads = 1;
  core::BatchedSweepOptions parallel = serial;
  parallel.threads = 8;

  const auto a = largest_id_cycle_sweep({16, 32}, serial);
  const auto b = largest_id_cycle_sweep({16, 32}, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].avg_mean, b[i].avg_mean);
    EXPECT_DOUBLE_EQ(a[i].avg_sd, b[i].avg_sd);
    EXPECT_EQ(a[i].max_worst, b[i].max_worst);
  }
}

TEST(Sweep, Invariants) {
  core::BatchedSweepOptions options;
  options.trials = 8;
  options.seed = 9;
  const auto points = largest_id_cycle_sweep({24}, options);
  ASSERT_EQ(points.size(), 1u);
  const auto& p = points[0];
  EXPECT_EQ(p.n, 24u);
  EXPECT_EQ(p.trials, 8u);
  EXPECT_LE(p.avg_mean, p.avg_worst + 1e-12);
  EXPECT_LE(p.avg_worst, static_cast<double>(p.max_worst));
  EXPECT_EQ(p.max_worst, 12u) << "the leader always pays the closure radius";
}

TEST(Experiments, SmokeRunAllAtTinyScale) {
  core::ExperimentScale scale;
  scale.factor = 0.05;
  const auto experiments = core::all_experiments();
  ASSERT_EQ(experiments.size(), 14u);
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const auto result = experiments[i](scale);
    // `avglocal_cli experiments E<k>` selects all_experiments()[k-1].
    EXPECT_EQ(result.id, std::string("E").append(std::to_string(i + 1)));
    EXPECT_FALSE(result.tables.empty()) << result.id;
    const std::string rendered = core::render(result);
    EXPECT_NE(rendered.find(result.title), std::string::npos);
    // Self-checking columns render "NO" / "budget" only on failure.
    EXPECT_EQ(rendered.find(" NO "), std::string::npos) << result.id << "\n" << rendered;
  }
}

TEST(Experiments, ScaleHelper) {
  core::ExperimentScale full;
  EXPECT_EQ(full.at_least(100, 10), 100u);
  core::ExperimentScale tiny;
  tiny.factor = 0.01;
  EXPECT_EQ(tiny.at_least(100, 10), 10u);
}

}  // namespace
