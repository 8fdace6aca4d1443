// Tests of the batched sweep subsystem: exactness of the geometry-replay
// engine against per-trial runs, bit-identical statistics against per-trial
// measure(run_views) aggregates, the driver's edge accumulation against the
// per-run edge measures, and bit-identical shard merge through the JSON
// artefact round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "algo/cole_vishkin.hpp"
#include "algo/largest_id.hpp"
#include "algo/mis_ring.hpp"
#include "core/batched_sweep.hpp"
#include "core/measure.hpp"
#include "core/shard.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/view.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

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

/// Collects per-(trial, vertex) results of run_views_batched into dense
/// tables comparable against per-trial run_views calls.
struct Collected {
  std::vector<std::vector<std::int64_t>> outputs;  // [trial][vertex]
  std::vector<std::vector<std::size_t>> radii;
};

core::AlgorithmProvider largest_id() {
  return [](std::size_t) { return algo::make_largest_id_view(); };
}

/// Whole sweep of a view-algorithm provider on cycles through the one
/// driver, pooled as options.threads asks.
std::vector<core::BatchedSweepPoint> cycle_sweep(const std::vector<std::size_t>& ns,
                                                 const core::AlgorithmProvider& algorithms,
                                                 const core::BatchedSweepOptions& options) {
  const core::ViewBackend backend(algorithms, options.semantics);
  const core::SweepPool pool(options);
  return core::SweepDriver(backend, options, pool.get())
      .run(ns, [](std::size_t n) { return graph::make_cycle(n); });
}

/// Exact partials of one shard of a largest-id cycle plan, point by point.
std::vector<core::PointAccumulator> cycle_shard(const std::vector<std::size_t>& ns,
                                                const core::BatchedSweepOptions& options,
                                                const core::SweepShard& shard) {
  const core::ViewBackend backend(largest_id(), options.semantics);
  const core::SweepPool pool(options);
  const core::SweepDriver driver(backend, options, pool.get());
  std::vector<core::PointAccumulator> partials;
  for (std::size_t p = shard.point_begin; p < shard.point_end; ++p) {
    const graph::Graph g = graph::make_cycle(ns[p]);
    core::SweepDriver::Point point = driver.prepare(g, p);
    partials.push_back(driver.run_trials(point, shard.trial_begin, shard.trial_end));
  }
  return partials;
}

/// The v4 shard header of a largest-id cycle plan: the canonical scenario
/// that names exactly what cycle_sweep and cycle_shard compute.
core::ScenarioSpec cycle_header(const std::vector<std::size_t>& ns,
                                const core::BatchedSweepOptions& options) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id";
  spec.ns = ns;
  spec.semantics = options.semantics;
  spec.seed = options.seed;
  spec.schedule.max_trials = options.trials;
  spec.quantile_probs = options.quantile_probs;
  spec.node_profile = options.node_profile;
  return core::resolve_scenario(spec).spec;
}

/// The finalized points of a merge, for comparison with a driver sweep.
std::vector<core::BatchedSweepPoint> merged_points(std::vector<core::ShardDocument> docs) {
  std::vector<core::BatchedSweepPoint> points;
  for (core::ScenarioPoint& point : core::merge_shards(std::move(docs)).points) {
    points.push_back(std::move(point.point));
  }
  return points;
}

Collected collect_batched(const graph::Graph& g, std::span<const graph::IdAssignment> batch,
                          const local::ViewAlgorithmFactory& factory,
                          const local::ViewEngineOptions& options) {
  Collected out;
  out.outputs.assign(batch.size(), std::vector<std::int64_t>(g.vertex_count(), 0));
  out.radii.assign(batch.size(), std::vector<std::size_t>(g.vertex_count(), 0));
  local::run_views_batched(g, batch, factory, options,
                           [&](std::size_t, std::size_t trial, graph::Vertex v,
                               std::int64_t output, std::size_t radius) {
                             out.outputs[trial][v] = output;
                             out.radii[trial][v] = radius;
                           });
  return out;
}

void expect_batched_matches_per_trial(const graph::Graph& g,
                                      const local::ViewAlgorithmFactory& factory,
                                      local::ViewSemantics semantics, std::size_t trials,
                                      support::ThreadPool* pool = nullptr) {
  const auto batch = random_batch(g.vertex_count(), trials, /*seed=*/911);
  local::ViewEngineOptions options;
  options.semantics = semantics;
  options.pool = pool;
  const Collected batched = collect_batched(g, batch, factory, options);
  local::ViewEngineOptions serial = options;
  serial.pool = nullptr;  // run_views is the serial reference
  for (std::size_t t = 0; t < batch.size(); ++t) {
    const local::RunResult run = local::run_views(g, batch[t], factory, serial);
    EXPECT_EQ(run.outputs, batched.outputs[t]) << "trial " << t;
    EXPECT_EQ(run.radii, batched.radii[t]) << "trial " << t;
  }
}

TEST(RunViewsBatched, MatchesPerTrialRunsOnCycle) {
  const auto g = graph::make_cycle(33);
  expect_batched_matches_per_trial(g, algo::make_largest_id_view(),
                                   local::ViewSemantics::kInducedBall, 6);
  expect_batched_matches_per_trial(g, algo::make_largest_id_view(),
                                   local::ViewSemantics::kFloodingKnowledge, 6);
}

TEST(RunViewsBatched, MatchesPerTrialRunsOnIrregularGraphs) {
  support::Xoshiro256 rng(7);
  const auto tree = graph::make_random_tree(40, rng);
  expect_batched_matches_per_trial(tree, algo::make_largest_id_view(),
                                   local::ViewSemantics::kInducedBall, 5);
  const auto gnp = graph::make_gnp_connected(48, 0.12, rng);
  expect_batched_matches_per_trial(gnp, algo::make_largest_id_view(),
                                   local::ViewSemantics::kInducedBall, 5);
  expect_batched_matches_per_trial(gnp, algo::make_largest_id_view(),
                                   local::ViewSemantics::kFloodingKnowledge, 5);
}

TEST(RunViewsBatched, ColeVishkinUsesPortsAndStillMatches) {
  // cv3 walks the ring through the view's port table, so this pins the
  // replayed ports (not just ids and coverage) to the grower's.
  const std::size_t n = 64;
  const auto g = graph::make_cycle(n);
  expect_batched_matches_per_trial(g, algo::make_cole_vishkin_view(n),
                                   local::ViewSemantics::kInducedBall, 4);
}

/// Fingerprints the *entire* view (radius, ids, dist, every port slot
/// including unknown ones, coverage) at every radius until an id-derived
/// stopping radius. If a replayed view deviated from the grower's in any
/// field at any radius, per-trial and batched fingerprints would differ.
class ViewFingerprint final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    hash_ = mix(hash_, static_cast<std::uint64_t>(view.radius));
    for (std::size_t i = 0; i < view.size(); ++i) {
      hash_ = mix(hash_, view.ids[i]);
      hash_ = mix(hash_, static_cast<std::uint64_t>(view.dist[i]));
      for (const auto target : view.ports[i]) hash_ = mix(hash_, target);
    }
    hash_ = mix(hash_, view.covers_graph ? 1 : 2);
    const auto stop = static_cast<std::size_t>(view.root_id() % 5);
    if (view.covers_graph || static_cast<std::size_t>(view.radius) >= stop) {
      return static_cast<std::int64_t>(hash_ & 0x7fffffffffffffffULL);
    }
    return std::nullopt;
  }

  bool reset() noexcept override {
    hash_ = 0x9e3779b97f4a7c15ULL;
    return true;
  }

 private:
  static std::uint64_t mix(std::uint64_t h, std::uint64_t x) noexcept {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
  std::uint64_t hash_ = 0x9e3779b97f4a7c15ULL;
};

TEST(RunViewsBatched, ReplayedViewsAreBitIdenticalToGrowerViews) {
  support::Xoshiro256 rng(21);
  const auto factory = [] { return std::make_unique<ViewFingerprint>(); };
  for (const auto semantics :
       {local::ViewSemantics::kInducedBall, local::ViewSemantics::kFloodingKnowledge}) {
    const auto gnp = graph::make_gnp_connected(36, 0.15, rng);
    expect_batched_matches_per_trial(gnp, factory, semantics, 5);
  }
}

TEST(RunViewsBatched, LockstepWithManyTrialsInFlightMatchesPerTrialRuns) {
  // Full-view algorithms run in lockstep mode. With 100 trials in flight,
  // trials finish at different radii (compacting the in-flight list) and
  // the fingerprint's balls outgrow the inline id slots (moving them to
  // spill); every trial must still reproduce per-trial run_views bit for
  // bit, serially and with a 4-worker pool.
  constexpr std::size_t kTrials = 100;
  support::Xoshiro256 rng(31);
  const auto gnp = graph::make_gnp_connected(40, 0.1, rng);
  const std::size_t n = 48;
  const auto cycle = graph::make_cycle(n);
  const auto fingerprint = [] { return std::make_unique<ViewFingerprint>(); };
  support::ThreadPool pool(4);
  for (support::ThreadPool* p : {static_cast<support::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pooled");
    expect_batched_matches_per_trial(gnp, fingerprint, local::ViewSemantics::kInducedBall, kTrials,
                                     p);
    expect_batched_matches_per_trial(cycle, fingerprint, local::ViewSemantics::kInducedBall,
                                     kTrials, p);
    expect_batched_matches_per_trial(cycle, algo::make_cole_vishkin_view(n),
                                     local::ViewSemantics::kInducedBall, kTrials, p);
  }
}

TEST(RunViewsBatched, LayerJumpMatchesPerTrialRuns) {
  // The min_radius layer-jump fuses BFS layers whose early-outs cannot
  // fire; the batched engine must still agree exactly with per-trial
  // run_views, which grows the ball one layer at a time. cv3 and mis-ring
  // both set min_radius from an n-dependent schedule, so they exercise
  // multi-layer jumps; largest-id jumps never (min_radius 0).
  const std::size_t n = 48;
  const auto g = graph::make_cycle(n);
  const std::vector<std::pair<const char*, local::ViewAlgorithmFactory>> algos = {
      {"cv3", algo::make_cole_vishkin_view(n)},
      {"mis", algo::make_mis_ring_view(n)},
      {"largest-id", algo::make_largest_id_view()},
  };
  const auto batch = random_batch(n, 6, /*seed=*/417);
  for (const auto& [name, factory] : algos) {
    const local::ViewEngineOptions options;
    const Collected batched = collect_batched(g, batch, factory, options);
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const local::RunResult run = local::run_views(g, batch[t], factory, options);
      EXPECT_EQ(run.outputs, batched.outputs[t]) << name << " trial " << t;
      EXPECT_EQ(run.radii, batched.radii[t]) << name << " trial " << t;
    }
  }
}

TEST(RunViewsBatched, PhaseStatsAccumulateOnSerialRuns) {
  // cv3 is not ids_only, so the lockstep path runs: all three phase timers
  // must have registered wall time.
  const std::size_t n = 40;
  const auto g = graph::make_cycle(n);
  const auto batch = random_batch(n, 8, /*seed=*/62);
  local::BatchPhaseStats stats;
  local::ViewEngineOptions options;
  options.phase_stats = &stats;
  collect_batched(g, batch, algo::make_cole_vishkin_view(n), options);
  EXPECT_GT(stats.grow_sec, 0.0);
  EXPECT_GT(stats.gather_sec, 0.0);
  EXPECT_GT(stats.eval_sec, 0.0);

  // ids_only algorithms run in sequential mode, through the same timers.
  local::BatchPhaseStats seq_stats;
  options.phase_stats = &seq_stats;
  collect_batched(g, batch, algo::make_largest_id_view(), options);
  EXPECT_GT(seq_stats.grow_sec, 0.0);
  EXPECT_GT(seq_stats.eval_sec, 0.0);
}

TEST(RunViewsBatched, PooledSweepIsIdenticalToSerial) {
  const auto g = graph::make_cycle(64);
  const auto batch = random_batch(64, 5, /*seed=*/3);
  local::ViewEngineOptions serial;
  const Collected a = collect_batched(g, batch, algo::make_largest_id_view(), serial);
  support::ThreadPool pool(4);
  local::ViewEngineOptions pooled;
  pooled.pool = &pool;
  const Collected b = collect_batched(g, batch, algo::make_largest_id_view(), pooled);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.radii, b.radii);
}

TEST(BatchedSweep, AggregatesAreBitIdenticalToPerTrialRuns) {
  const std::vector<std::size_t> ns = {16, 33};
  core::BatchedSweepOptions options;
  options.trials = 12;
  options.seed = 5;
  options.threads = 1;
  const auto fast = cycle_sweep(ns, largest_id(), options);
  ASSERT_EQ(fast.size(), ns.size());

  for (std::size_t point = 0; point < ns.size(); ++point) {
    // The reference: one independent per-trial run on each of the sweep's
    // (seed, point, trial) streams, aggregated in trial order.
    const std::size_t n = ns[point];
    const graph::Graph g = graph::make_cycle(n);
    const std::uint64_t point_seed = support::derive_seed(options.seed, point);
    support::RunningStats avg_stats;
    support::RunningStats max_stats;
    std::size_t max_worst = 0;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      support::Xoshiro256 rng(support::derive_seed(point_seed, trial));
      const core::Measurement m = core::measure(
          local::run_views(g, graph::IdAssignment::random(n, rng), algo::make_largest_id_view()));
      avg_stats.add(m.avg_radius);
      max_stats.add(static_cast<double>(m.max_radius));
      max_worst = std::max(max_worst, m.max_radius);
    }
    EXPECT_EQ(fast[point].n, n);
    EXPECT_EQ(fast[point].trials, options.trials);
    // Same per-trial sums, same accumulation order, same divisions: the
    // doubles must be equal to the last bit, not merely close.
    EXPECT_EQ(fast[point].avg_mean, avg_stats.mean());
    EXPECT_EQ(fast[point].avg_sd, avg_stats.stddev());
    EXPECT_EQ(fast[point].avg_worst, avg_stats.max());
    EXPECT_EQ(fast[point].max_mean, max_stats.mean());
    EXPECT_EQ(fast[point].max_worst, max_worst);
  }
}

TEST(BatchedSweep, IndependentOfThreadsAndBatchSize) {
  core::BatchedSweepOptions base;
  base.trials = 10;
  base.seed = 9;
  base.threads = 1;
  base.node_profile = true;
  const auto reference = cycle_sweep({24, 40}, largest_id(), base);

  for (const std::size_t threads : {std::size_t{4}}) {
    for (const std::size_t batch_size : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      core::BatchedSweepOptions options = base;
      options.threads = threads;
      options.batch_size = batch_size;
      const auto points = cycle_sweep({24, 40}, largest_id(), options);
      EXPECT_EQ(points, reference) << "threads=" << threads << " batch=" << batch_size;
    }
  }
}

TEST(BatchedSweep, DistributionAndNodeMeasuresAreConsistent) {
  core::BatchedSweepOptions options;
  options.trials = 8;
  options.seed = 2;
  options.node_profile = true;
  options.quantile_probs = {0.0, 0.5, 1.0};
  const auto points = cycle_sweep({30}, largest_id(), options);
  ASSERT_EQ(points.size(), 1u);
  const auto& p = points[0];

  EXPECT_EQ(p.radius.samples, 30u * 8u);
  // The distribution mean is the node- and ID-averaged radius, which must
  // equal the mean of per-run averages when every run has n samples.
  EXPECT_NEAR(p.radius.mean, p.avg_mean, 1e-12);
  EXPECT_EQ(p.radius.max, p.max_worst);
  ASSERT_EQ(p.radius.quantiles.size(), 3u);
  EXPECT_LE(p.radius.quantiles[0], p.radius.quantiles[1]);
  EXPECT_LE(p.radius.quantiles[1], p.radius.quantiles[2]);
  EXPECT_EQ(p.radius.quantiles[2], p.radius.max);

  ASSERT_EQ(p.node_mean.size(), 30u);
  double node_avg = 0.0;
  double worst = 0.0;
  double best = p.node_mean[0];
  for (double m : p.node_mean) {
    node_avg += m;
    worst = std::max(worst, m);
    best = std::min(best, m);
  }
  node_avg /= 30.0;
  EXPECT_NEAR(node_avg, p.avg_mean, 1e-12);
  EXPECT_EQ(worst, p.node_mean_max);
  EXPECT_EQ(best, p.node_mean_min);
  // The closure radius 15 is paid by the *leader*, which is a different
  // vertex in each run - that is the ordinary-node / worst-id distinction
  // these measures exist for. No fixed vertex leads every run here, so the
  // worst node mean sits strictly between the sweep average and the
  // worst-case radius.
  EXPECT_GT(p.node_mean_max, p.avg_mean);
  EXPECT_LT(p.node_mean_max, 15.0);
}

// ------------------------------------------------------------------------
// Edge accumulation: the driver's radius-matrix fold against the per-run
// edge measures.
// ------------------------------------------------------------------------

std::vector<graph::Graph> edge_accumulation_graphs() {
  support::Xoshiro256 rng(77);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::make_cycle(37));
  graphs.push_back(graph::make_star(21));
  graphs.push_back(graph::make_gnp_connected(48, 0.12, rng));
  return graphs;
}

TEST(EdgeAccumulation, MatrixRowsMatchPerRunEdgeTimes) {
  constexpr std::size_t kBatchBegin = 3;
  constexpr std::size_t kRows = 5;
  for (const graph::Graph& g : edge_accumulation_graphs()) {
    const std::size_t n = g.vertex_count();
    const auto edges = core::canonical_edges(g);
    // Radii up to n, the engines' radius cap, with 0 and 1 on every row.
    support::Xoshiro256 rng(n);
    std::vector<std::uint32_t> matrix(kRows * n);
    for (auto& r : matrix) r = static_cast<std::uint32_t>(rng.below(n + 1));
    for (std::size_t i = 0; i < kRows; ++i) {
      matrix[i * n] = 0;
      matrix[i * n + n - 1] = 1;
    }

    core::PointAccumulator acc = core::make_point_accumulator(g, 0, 0, kBatchBegin + kRows);
    std::vector<std::uint64_t> counts;
    core::accumulate_edge_partials(edges, matrix, kBatchBegin, kRows, acc, counts);

    local::RadiusHistogram want;
    for (std::size_t i = 0; i < kRows; ++i) {
      const std::vector<std::size_t> radii(matrix.begin() + static_cast<std::ptrdiff_t>(i * n),
                                           matrix.begin() + static_cast<std::ptrdiff_t>(i * n + n));
      EXPECT_EQ(acc.trial_edge_sum[kBatchBegin + i],
                core::accumulate_edge_times(edges, radii, want))
          << "n " << n << " row " << i;
    }
    for (std::size_t t = 0; t < kBatchBegin; ++t) {
      EXPECT_EQ(acc.trial_edge_sum[t], 0u) << "rows before batch_begin stay untouched";
    }
    EXPECT_EQ(local::RadiusHistogram(std::move(counts)), want) << "n " << n;
  }
}

TEST(EdgeAccumulation, U32RowsOrderExtremeRadiiLikeWideRows) {
  // The driver folds u32 matrix rows, the per-run measures size_t profiles;
  // both go through for_each_edge_time. Radii of 2^31 and UINT32_MAX, where
  // a signed comparison would misorder, must give the same times and sums.
  // (A time-indexed histogram of such radii would need 2^32 buckets, so the
  // extremes are pinned here, on the time stream itself.)
  const std::uint32_t extremes[] = {0, 1, std::uint32_t{1} << 31, UINT32_MAX};
  for (const graph::Graph& g : edge_accumulation_graphs()) {
    const auto edges = core::canonical_edges(g);
    support::Xoshiro256 rng(g.vertex_count());
    std::vector<std::uint32_t> narrow(g.vertex_count());
    for (auto& r : narrow) r = extremes[rng.below(4)];
    const std::vector<std::size_t> wide(narrow.begin(), narrow.end());

    std::vector<std::size_t> narrow_times;
    std::vector<std::size_t> wide_times;
    const std::uint64_t narrow_sum = core::for_each_edge_time(
        edges, std::span<const std::uint32_t>(narrow),
        [&](std::size_t t) { narrow_times.push_back(t); });
    const std::uint64_t wide_sum = core::for_each_edge_time(
        edges, std::span<const std::size_t>(wide),
        [&](std::size_t t) { wide_times.push_back(t); });
    EXPECT_EQ(narrow_times, wide_times);
    EXPECT_EQ(narrow_sum, wide_sum);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      EXPECT_EQ(narrow_times[k], std::max(wide[edges[k].first], wide[edges[k].second]));
    }
  }
}

TEST(ShardPlan, PartitionsTrialsAcrossShards) {
  const auto plan = core::plan_shards(3, 10, 4);
  ASSERT_EQ(plan.size(), 4u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].point_begin, 0u);
    EXPECT_EQ(plan[i].point_end, 3u);
    EXPECT_EQ(plan[i].trial_begin, covered);
    covered = plan[i].trial_end;
  }
  EXPECT_EQ(covered, 10u);

  // More shards than trials: empty shards are dropped, one trial each.
  const auto tiny = core::plan_shards(1, 3, 8);
  ASSERT_EQ(tiny.size(), 3u);
  for (const auto& shard : tiny) EXPECT_EQ(shard.trial_end - shard.trial_begin, 1u);
}

TEST(Shards, JsonMergeIsBitIdenticalToMonolithicSweep) {
  const std::vector<std::size_t> ns = {12, 26};
  core::BatchedSweepOptions options;
  options.trials = 9;
  options.seed = 77;
  options.threads = 2;
  options.node_profile = true;

  const auto monolithic = cycle_sweep(ns, largest_id(), options);

  // A deliberately lopsided plan: one shard owns all of point 0 while
  // point 1 is split across two uneven trial ranges.
  const core::ScenarioSpec header = cycle_header(ns, options);
  const std::vector<core::SweepShard> plan = {
      {0, 1, 0, 9},  // point 0, all trials
      {1, 2, 0, 4},  // point 1, first trials
      {1, 2, 4, 9},  // point 1, rest
  };
  std::vector<std::string> artefacts;
  for (const auto& shard : plan) {
    core::ShardDocument doc;
    doc.meta = header;
    doc.shard = shard;
    doc.points = cycle_shard(ns, options, shard);
    artefacts.push_back(core::shard_to_json(doc));
  }

  std::vector<core::ShardDocument> parsed;
  // Merge must not depend on artefact order; feed them scrambled.
  parsed.push_back(core::parse_shard_json(artefacts[2]));
  parsed.push_back(core::parse_shard_json(artefacts[0]));
  parsed.push_back(core::parse_shard_json(artefacts[1]));
  const auto merged = merged_points(std::move(parsed));

  // Bit-identical: every integer and every double, including histograms,
  // quantiles and node profiles.
  EXPECT_EQ(merged, monolithic);
}

TEST(Shards, PlannedShardsMergeBitIdenticallyToo) {
  const std::vector<std::size_t> ns = {18};
  core::BatchedSweepOptions options;
  options.trials = 7;
  options.seed = 13;
  options.threads = 1;

  const auto monolithic = cycle_sweep(ns, largest_id(), options);
  const core::ScenarioSpec header = cycle_header(ns, options);

  std::vector<core::ShardDocument> docs;
  for (const auto& shard : core::plan_shards(ns.size(), options.trials, 3)) {
    core::ShardDocument doc;
    doc.meta = header;
    doc.shard = shard;
    doc.points = cycle_shard(ns, options, shard);
    docs.push_back(core::parse_shard_json(core::shard_to_json(doc)));
  }
  EXPECT_EQ(merged_points(std::move(docs)), monolithic);
}

TEST(BatchedSweep, ProviderParameterisesAlgorithmPerPoint) {
  // cv3's schedule radius depends on n: a multi-point sweep must build the
  // factory per point, not once from the first size.
  core::BatchedSweepOptions options;
  options.trials = 5;
  options.seed = 3;
  options.threads = 1;
  const auto points = cycle_sweep(
      {32, 128}, [](std::size_t n) { return algo::make_cole_vishkin_view(n); }, options);
  ASSERT_EQ(points.size(), 2u);

  // Each point must equal a sweep of just that size with the matching
  // fixed factory and the same global point index (hence the same trial
  // seeds).
  for (std::size_t point = 0; point < 2; ++point) {
    const std::size_t n = point == 0 ? 32 : 128;
    const graph::Graph g = graph::make_cycle(n);
    const core::ViewBackend backend([n](std::size_t) { return algo::make_cole_vishkin_view(n); });
    const core::SweepDriver driver(backend, options);
    core::SweepDriver::Point prepared = driver.prepare(g, point);
    const core::PointAccumulator acc = driver.run_trials(prepared, 0, options.trials);
    EXPECT_EQ(points[point], core::finalize_point(acc, options)) << "n=" << n;
  }
}

TEST(Shards, MergeRejectsMismatchedWorkloadLabels) {
  const std::vector<std::size_t> ns = {14};
  core::BatchedSweepOptions options;
  options.trials = 4;
  options.seed = 1;
  options.threads = 1;

  const auto make_doc = [&](const std::string& algorithm, const core::SweepShard& shard) {
    core::ShardDocument doc;
    doc.meta = cycle_header(ns, options);
    doc.meta.algorithm = algorithm;
    doc.shard = shard;
    doc.points = cycle_shard(ns, options, shard);
    return core::parse_shard_json(core::shard_to_json(doc));
  };

  // The numeric plans agree; only the headers' algorithms reveal that
  // these artefacts came from different workloads.
  std::vector<core::ShardDocument> docs = {make_doc("largest-id", {0, 1, 0, 2}),
                                           make_doc("cv3", {0, 1, 2, 4})};
  EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);

  std::vector<core::ShardDocument> ok = {make_doc("largest-id", {0, 1, 0, 2}),
                                         make_doc("largest-id", {0, 1, 2, 4})};
  EXPECT_EQ(merged_points(std::move(ok)).size(), 1u);
}

TEST(Shards, MergeRejectsIncompleteAndMismatchedPlans) {
  const std::vector<std::size_t> ns = {14};
  core::BatchedSweepOptions options;
  options.trials = 6;
  options.seed = 4;
  options.threads = 1;
  const core::ScenarioSpec header = cycle_header(ns, options);

  const auto run_shard = [&](const core::SweepShard& shard) {
    core::ShardDocument doc;
    doc.meta = header;
    doc.shard = shard;
    doc.points = cycle_shard(ns, options, shard);
    return doc;
  };

  // Missing trials [4, 6).
  {
    std::vector<core::ShardDocument> docs = {run_shard({0, 1, 0, 4})};
    EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);
  }
  // Overlapping trial ranges.
  {
    std::vector<core::ShardDocument> docs = {run_shard({0, 1, 0, 4}), run_shard({0, 1, 2, 6})};
    EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);
  }
  // Plans disagree on the seed.
  {
    std::vector<core::ShardDocument> docs = {run_shard({0, 1, 0, 6}), run_shard({0, 1, 0, 6})};
    docs[1].meta.seed ^= 1;
    EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);
  }
  // A header that is not canonical: resolving it drops the repeated size.
  {
    std::vector<core::ShardDocument> docs = {run_shard({0, 1, 0, 6})};
    docs[0].meta.ns = {14, 14};
    EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);
  }
  // An adaptive schedule: its trial count is the monolithic driver's call.
  {
    std::vector<core::ShardDocument> docs = {run_shard({0, 1, 0, 6})};
    docs[0].meta.schedule.target_half_width = 0.5;
    EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);
  }
  // Not a shard artefact.
  EXPECT_THROW(core::parse_shard_json("{\"bench\":\"core\"}"), std::runtime_error);
}

}  // namespace
