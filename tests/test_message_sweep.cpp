// Tests of the message-sweep subsystem: the batch engine's bit-identity to
// per-trial run_messages calls (including algorithm reuse through
// Algorithm::reset), the MessageBackend's accumulators under the sweep
// driver and their shard round-trip, and the scenario layer's routing of
// message algorithms through sweep, shard and adaptive-schedule paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algo/largest_id.hpp"
#include "algo/local_colouring.hpp"
#include "core/scenario.hpp"
#include "core/shard.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "kit/oracles.hpp"
#include "local/engine.hpp"
#include "local/full_info.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

std::vector<graph::IdAssignment> random_batch(std::size_t n, std::size_t trials,
                                              std::uint64_t seed) {
  std::vector<graph::IdAssignment> batch;
  batch.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    support::Xoshiro256 rng(support::derive_seed(seed, t));
    batch.push_back(graph::IdAssignment::random(n, rng));
  }
  return batch;
}

void expect_batch_matches_per_trial(const graph::Graph& g,
                                    const local::AlgorithmFactory& factory,
                                    const local::EngineOptions& options, std::size_t trials,
                                    std::uint64_t seed) {
  const std::size_t n = g.vertex_count();
  const auto batch = random_batch(n, trials, seed);

  std::vector<std::vector<std::int64_t>> outputs(trials, std::vector<std::int64_t>(n, 0));
  std::vector<std::vector<std::size_t>> radii(trials, std::vector<std::size_t>(n, 0));
  local::MessageBatchRunner(g, factory, options)
      .run(batch, [&](std::size_t trial, graph::Vertex v, std::int64_t output,
                      std::size_t radius) {
        outputs[trial][v] = output;
        radii[trial][v] = radius;
      });

  for (std::size_t t = 0; t < trials; ++t) {
    const local::RunResult run = local::run_messages(g, batch[t], factory, options);
    EXPECT_EQ(run.outputs, outputs[t]) << "trial " << t;
    EXPECT_EQ(run.radii, radii[t]) << "trial " << t;
  }
}

// ------------------------------------------------------ the batch engine ----

TEST(RunMessagesBatch, MatchesPerTrialRunsForEveryMessageAlgorithm) {
  // One reused engine (and, through reset(), reused algorithm instances)
  // must be invisible in the results: every trial equals a fresh
  // run_messages call. local3 carries the richest cross-round state
  // (snapshots, candidacies), so it is the sharpest reuse probe.
  const auto g = graph::make_cycle(21);
  expect_batch_matches_per_trial(g, algo::make_largest_id_messages(), {}, 5, 31);
  expect_batch_matches_per_trial(g, algo::make_local_three_colouring(), {}, 5, 32);
}

TEST(RunMessagesBatch, FullInfoAdapterIsReusableAcrossTrials) {
  // The gossip adapter holds the largest per-run state of any Algorithm
  // (fact sets, reconstruction scratch); its reset() must scrub all of it.
  support::Xoshiro256 rng(8);
  const auto g = graph::make_random_tree(18, rng);
  expect_batch_matches_per_trial(
      g, local::make_full_info_factory(algo::make_largest_id_view()), {}, 4, 33);
}

TEST(RunMessagesBatch, NonResettableAlgorithmsAreReconstructed) {
  // An algorithm that declines reset() falls back to per-trial
  // construction: correctness must not depend on the opt-in.
  class StickyLargestId final : public local::Algorithm {
   public:
    StickyLargestId() : inner_(algo::make_largest_id_messages()()) {}
    void on_start(local::NodeContext& ctx) override { inner_->on_start(ctx); }
    void on_round(local::NodeContext& ctx, std::span<const local::Message> inbox) override {
      inner_->on_round(ctx, inbox);
    }
    // No reset override: default false.
   private:
    std::unique_ptr<local::Algorithm> inner_;
  };
  const auto g = graph::make_cycle(17);
  expect_batch_matches_per_trial(
      g, [] { return std::make_unique<StickyLargestId>(); }, {}, 4, 34);
}

// --------------------------------------------------------- the sweep API ----

TEST(MessageSweep, AccumulatorsMatchPerTrialRunsUnderSweepSeeds) {
  // The sweep's id streams derive from (seed, point, trial) exactly as in
  // the view sweeps; rebuilding them here and running the engine per trial
  // must reproduce every integer in the accumulator.
  const std::size_t n = 19;
  const auto g = graph::make_cycle(n);
  core::BatchedSweepOptions options;
  options.trials = 6;
  options.seed = 77;

  const core::MessageBackend backend([](std::size_t) { return algo::make_largest_id_messages(); });
  const core::SweepDriver driver(backend, options);
  core::SweepDriver::Point point = driver.prepare(g, /*point_index=*/0);
  const core::PointAccumulator acc = driver.run_trials(point, 0, options.trials);

  EXPECT_EQ(acc.n, n);
  EXPECT_EQ(acc.edges, g.edge_count());
  const std::uint64_t point_seed = support::derive_seed(options.seed, 0);
  local::RadiusHistogram expected_hist;
  local::RadiusHistogram expected_edge_hist;
  std::vector<std::uint64_t> expected_node_sum(n, 0);
  const auto edges = core::canonical_edges(g);
  for (std::size_t t = 0; t < options.trials; ++t) {
    support::Xoshiro256 rng(support::derive_seed(point_seed, t));
    const auto ids = graph::IdAssignment::random(n, rng);
    const auto run = local::run_messages(g, ids, algo::make_largest_id_messages());
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    for (graph::Vertex v = 0; v < n; ++v) {
      const auto r = static_cast<std::uint64_t>(run.radii[v]);
      sum += r;
      max = std::max(max, r);
      expected_node_sum[v] += r;
    }
    local::add_profile(expected_hist, run.radii);
    EXPECT_EQ(acc.trial_sum[t], sum) << "trial " << t;
    EXPECT_EQ(acc.trial_max[t], max) << "trial " << t;
    EXPECT_EQ(acc.trial_edge_sum[t],
              core::accumulate_edge_times(edges, run.radii, expected_edge_hist))
        << "trial " << t;
  }
  EXPECT_EQ(acc.node_sum, expected_node_sum);
  EXPECT_EQ(acc.histogram, expected_hist);
  EXPECT_EQ(acc.edge_histogram, expected_edge_hist);
}

TEST(MessageSweep, IndependentOfBatchSize) {
  const auto graphs = [](std::size_t n) { return graph::make_cycle(n); };
  const core::MessageBackend backend([](std::size_t) { return algo::make_largest_id_messages(); });
  core::BatchedSweepOptions base;
  base.trials = 7;
  base.seed = 3;
  const auto reference = core::SweepDriver(backend, base).run({16, 24}, graphs);
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{3}}) {
    core::BatchedSweepOptions options = base;
    options.batch_size = batch_size;
    EXPECT_EQ(core::SweepDriver(backend, options).run({16, 24}, graphs), reference)
        << "batch=" << batch_size;
  }
}

TEST(MessageSweep, ShardedMergeIsBitIdenticalToMonolithicSweep) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id-msg";
  spec.ns = {14, 22};
  spec.seed = 11;
  spec.schedule.max_trials = 9;
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  const core::BatchedSweepOptions options = resolved.sweep_options();

  const std::unique_ptr<core::SweepBackend> backend = resolved.make_backend();
  const auto monolithic =
      core::SweepDriver(*backend, options).run(resolved.spec.ns, resolved.graphs);

  std::vector<core::ShardDocument> docs;
  for (const auto& shard : core::plan_shards(resolved.spec.ns.size(), options.trials, 3)) {
    core::ShardDocument doc;
    doc.meta = resolved.spec;
    doc.shard = shard;
    doc.points = core::run_scenario_shard(resolved, {}, shard);
    // Through the JSON artefact: serialisation must preserve every integer,
    // edge partials included.
    docs.push_back(core::parse_shard_json(core::shard_to_json(doc)));
  }
  const core::ScenarioResult merged = core::merge_shards(std::move(docs));
  ASSERT_EQ(merged.points.size(), monolithic.size());
  for (std::size_t i = 0; i < monolithic.size(); ++i) {
    EXPECT_EQ(merged.points[i].point, monolithic[i]) << "point " << i;
  }
}

// ------------------------------------------------------- scenario layer ----

TEST(MessageScenario, RunScenarioSweepsMessageAlgorithms) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id-msg";
  spec.ns = {20};
  spec.seed = 5;
  spec.schedule.max_trials = 6;
  const core::ScenarioResult result = core::run_scenario(spec);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.spec.engine, "message");
  const auto& p = result.points[0].point;
  EXPECT_EQ(p.n, 20u);
  EXPECT_EQ(p.trials, 6u);
  EXPECT_EQ(p.radius.samples, 20u * 6u);
  EXPECT_EQ(p.edges, 20u);
  EXPECT_EQ(p.edge_time.samples, 20u * 6u);
  // An edge finishes when its later endpoint does, so its average sits at
  // or above the node average and at or below the worst case.
  EXPECT_GE(p.edge_avg_mean, p.avg_mean);
  EXPECT_LE(p.edge_avg_mean, static_cast<double>(p.max_worst));
}

TEST(MessageScenario, AdaptiveRunIsBitIdenticalToFixedRunOfStoppedCount) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id-msg";
  spec.ns = {18};
  spec.seed = 21;
  spec.schedule.max_trials = 16;
  spec.schedule.min_trials = 4;
  spec.schedule.batch = 4;
  spec.schedule.target_half_width = 0.2;

  const core::ScenarioResult adaptive = core::run_scenario(spec);
  ASSERT_EQ(adaptive.points.size(), 1u);

  core::ScenarioSpec fixed = spec;
  fixed.schedule = core::TrialSchedule{};
  fixed.schedule.max_trials = adaptive.points[0].point.trials;
  const core::ScenarioResult reference = core::run_scenario(fixed);
  EXPECT_EQ(adaptive.points[0].point, reference.points[0].point);
}

}  // namespace
