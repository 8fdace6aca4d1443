// Tests of the scenario layer: the graph-family and algorithm registries,
// declarative spec resolution and canonicalisation, the scenario JSON
// round-trip, the adaptive trial schedule (stops early on low variance,
// hits the cap on high variance, always bit-identical to the fixed sweep of
// the stopped count), and workload rejection on shard merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "core/batched_sweep.hpp"
#include "core/scenario.hpp"
#include "core/shard.hpp"
#include "core/sweep_backend.hpp"
#include "graph/family_registry.hpp"
#include "graph/properties.hpp"
#include "kit/oracles.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

// ------------------------------------------------------ family registry ----

TEST(FamilyRegistry, CoversEveryGeneratorAndBuildsConnectedGraphs) {
  const auto& registry = graph::FamilyRegistry::global();
  const std::vector<std::string> names = registry.names();
  // Every generator in generators.hpp, reachable by name.
  for (const char* expected : {"cycle", "path", "complete", "star", "grid", "torus",
                               "kary-tree", "random-tree", "gnp", "random-regular"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing family " << expected;
  }
  EXPECT_EQ(names.size(), 10u);

  for (const std::string& name : names) {
    const graph::FamilySpec spec{name, {}};
    const std::size_t realised = graph::realised_size(registry, spec, 20);
    support::Xoshiro256 rng(7);
    const graph::Graph g = registry.build(spec, 20, rng);
    EXPECT_EQ(g.vertex_count(), realised) << name;
    EXPECT_TRUE(graph::is_connected(g)) << name;
    // Realised sizes are exact fixed points: requesting a realised size
    // realises it unchanged, which is what lets resolved scenarios satisfy
    // the engine's vertex_count() == n contract.
    EXPECT_EQ(graph::realised_size(registry, spec, realised), realised) << name;
  }
}

TEST(FamilyRegistry, RealisedSizesRespectFamilyConstraints) {
  const auto& registry = graph::FamilyRegistry::global();
  // A torus snaps to the nearest square with side >= 3.
  EXPECT_EQ(graph::realised_size(registry, {"torus", {}}, 250), 256u);
  EXPECT_EQ(graph::realised_size(registry, {"torus", {}}, 2), 9u);
  // A complete binary tree snaps up to the next full level.
  EXPECT_EQ(graph::realised_size(registry, {"kary-tree", {}}, 8), 15u);
  EXPECT_EQ(graph::realised_size(registry, {"kary-tree", {{"arity", 3}}}, 5), 13u);
  // random-regular bumps n so n*d is even and d < n.
  EXPECT_EQ(graph::realised_size(registry, {"random-regular", {{"degree", 3}}}, 7), 8u);
  EXPECT_EQ(graph::realised_size(registry, {"random-regular", {{"degree", 4}}}, 2), 5u);
}

TEST(FamilyRegistry, EveryFamilyRunsALargestIdTrialAtSizeOne) {
  // min_size is the smallest size a family's generator accepts, so a sweep
  // asking for one vertex resolves up to it and runs, for every family.
  for (const std::string& name : graph::FamilyRegistry::global().names()) {
    core::ScenarioSpec spec;
    spec.family = {name, {}};
    spec.algorithm = "largest-id";
    spec.ns = {1};
    spec.schedule.max_trials = 1;
    const core::ScenarioResult result = core::run_scenario(spec, {.threads = 1});
    ASSERT_EQ(result.points.size(), 1u) << name;
    EXPECT_GE(result.points[0].point.n, 2u) << name;
    EXPECT_EQ(result.points[0].point.trials, 1u) << name;
  }
}

TEST(FamilyRegistry, RandomisedFamiliesAreDeterministicPerStream) {
  const auto& registry = graph::FamilyRegistry::global();
  for (const std::string name : {"random-tree", "gnp", "random-regular"}) {
    support::Xoshiro256 a(11);
    support::Xoshiro256 b(11);
    const graph::Graph ga = registry.build({name, {}}, 24, a);
    const graph::Graph gb = registry.build({name, {}}, 24, b);
    ASSERT_EQ(ga.vertex_count(), gb.vertex_count()) << name;
    for (graph::Vertex v = 0; v < ga.vertex_count(); ++v) {
      ASSERT_EQ(ga.degree(v), gb.degree(v)) << name << " vertex " << v;
    }
  }
}

TEST(FamilyRegistry, UnknownNamesAndParamsThrowWithKnownLists) {
  const auto& registry = graph::FamilyRegistry::global();
  try {
    registry.at("moebius");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cycle"), std::string::npos)
        << "error should list the known families";
  }
  support::Xoshiro256 rng(1);
  EXPECT_THROW(registry.build({"gnp", {{"p", 0.5}}}, 16, rng), std::invalid_argument);
  EXPECT_THROW(registry.build({"cycle", {{"anything", 1.0}}}, 16, rng), std::invalid_argument);
  EXPECT_THROW(
      registry.build({"gnp", {{"avg-degree", 2.0}, {"avg-degree", 3.0}}}, 16, rng),
      std::invalid_argument);
  // Count-like parameters must be positive integers.
  EXPECT_THROW(graph::realised_size(registry, {"random-regular", {{"degree", 2.5}}}, 16),
               std::invalid_argument);
}

TEST(FamilySpec, ParsesAndRendersCanonicalStrings) {
  const graph::FamilySpec plain = graph::parse_family_spec("torus");
  EXPECT_EQ(plain.family, "torus");
  EXPECT_TRUE(plain.params.empty());

  const graph::FamilySpec with_params = graph::parse_family_spec("gnp:avg-degree=6.5");
  EXPECT_EQ(with_params.family, "gnp");
  ASSERT_EQ(with_params.params.size(), 1u);
  EXPECT_EQ(with_params.params[0].first, "avg-degree");
  EXPECT_DOUBLE_EQ(with_params.params[0].second, 6.5);
  EXPECT_EQ(graph::family_spec_to_string(with_params), "gnp:avg-degree=6.5");

  EXPECT_THROW(graph::parse_family_spec(""), std::invalid_argument);
  EXPECT_THROW(graph::parse_family_spec("gnp:avg-degree"), std::invalid_argument);
  EXPECT_THROW(graph::parse_family_spec("gnp:avg-degree=abc"), std::invalid_argument);
}

// --------------------------------------------------- algorithm registry ----

TEST(AlgorithmRegistry, CoversViewAndMessageAlgorithms) {
  const auto& registry = algo::AlgorithmRegistry::global();
  const auto view_names = registry.names(algo::AlgorithmKind::kView);
  for (const char* expected : {"largest-id", "largest-id-ua", "cv3", "mis", "greedy"}) {
    EXPECT_NE(std::find(view_names.begin(), view_names.end(), expected), view_names.end())
        << "missing view algorithm " << expected;
  }
  const auto message_names = registry.names(algo::AlgorithmKind::kMessage);
  for (const char* expected : {"local3", "largest-id-msg", "cv3-msg", "greedy-msg"}) {
    EXPECT_NE(std::find(message_names.begin(), message_names.end(), expected),
              message_names.end())
        << "missing message algorithm " << expected;
  }
  EXPECT_THROW(registry.at("quantum"), std::invalid_argument);
}

TEST(AlgorithmRegistry, ProbesViewCapabilities) {
  const auto& registry = algo::AlgorithmRegistry::global();
  // largest-id takes the sequential ids-only fast path and can skip radius 0.
  const auto largest = algo::AlgorithmRegistry::probe(registry.at("largest-id"), 64);
  EXPECT_TRUE(largest.ids_only_view);
  EXPECT_EQ(largest.min_radius, 1u);
  // cv3 reads ports (lockstep mode) and waits for its schedule radius.
  const auto cv3 = algo::AlgorithmRegistry::probe(registry.at("cv3"), 64);
  EXPECT_FALSE(cv3.ids_only_view);
  EXPECT_GT(cv3.min_radius, 0u);
  // Capabilities are a view-engine concept.
  EXPECT_THROW(algo::AlgorithmRegistry::probe(registry.at("local3"), 64),
               std::invalid_argument);
}

TEST(AlgorithmRegistry, ValidatorsJudgeOutputs) {
  const auto& registry = algo::AlgorithmRegistry::global();
  const algo::AlgorithmInfo& info = registry.at("largest-id");
  support::Xoshiro256 rng(3);
  const graph::Graph g = graph::FamilyRegistry::global().build({"cycle", {}}, 5, rng);
  const graph::IdAssignment ids = graph::IdAssignment::identity(5);
  std::vector<std::int64_t> outputs = {0, 0, 0, 0, 1};  // vertex 4 holds id 5
  EXPECT_TRUE(info.validate(g, ids, outputs));
  outputs[0] = 1;
  EXPECT_FALSE(info.validate(g, ids, outputs));
}

// -------------------------------------------------- resolution + canon ----

TEST(Scenario, ResolveCanonicalisesParamsAndSizes) {
  core::ScenarioSpec spec;
  spec.family = {"random-regular", {}};
  spec.algorithm = "largest-id";
  spec.ns = {7, 8, 9};  // 7 and 8 both realise as 8 (n*d must be even)
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  ASSERT_EQ(resolved.spec.family.params.size(), 1u);
  EXPECT_EQ(resolved.spec.family.params[0].first, "degree");
  EXPECT_DOUBLE_EQ(resolved.spec.family.params[0].second, 3.0);
  EXPECT_EQ(resolved.spec.ns, (std::vector<std::size_t>{8, 10}));

  // The factories respect the engine contract for every point.
  for (const std::size_t n : resolved.spec.ns) {
    EXPECT_EQ(resolved.graphs(n).vertex_count(), n);
  }
}

TEST(Scenario, ResolveRejectsBadWorkloadsBeforeAnyWork) {
  core::ScenarioSpec spec;
  spec.family = {"nosuch", {}};
  EXPECT_THROW(core::resolve_scenario(spec), std::invalid_argument);

  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id";
  spec.schedule.target_half_width = 0.5;
  spec.schedule.min_trials = 1;  // no variance estimate from one trial
  EXPECT_THROW(core::resolve_scenario(spec), std::invalid_argument);

  // The cap must leave room for a variance estimate too: one trial's sd of
  // 0 would report instant convergence from a zero-width interval.
  spec.schedule.min_trials = 16;
  spec.schedule.max_trials = 1;
  EXPECT_THROW(core::resolve_scenario(spec), std::invalid_argument);

  // A negative target half-width is not "no target": it is rejected, and
  // the message names the field.
  spec.schedule = {};
  spec.schedule.target_half_width = -1.0;
  try {
    core::resolve_scenario(spec);
    ADD_FAILURE() << "expected invalid_argument for target_half_width = -1";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("target half-width must be >= 0"),
              std::string::npos)
        << error.what();
  }
}

TEST(Scenario, SizesBeyondTheVertexRangeThrowBeforeAnyGraphWork) {
  // Sizes used to wrap silently in the families' size arithmetic (a torus
  // at 2^64-1 realised n=9) or die in std::vector. Both the request and
  // the realised size are checked against the 32-bit Vertex range.
  const std::size_t limit = graph::kMaxVertices;
  ASSERT_EQ(limit, 4294967295u);
  const auto& families = graph::FamilyRegistry::global();
  for (const char* family : {"torus", "grid", "random-regular", "cycle"}) {
    for (const std::size_t n : {std::numeric_limits<std::size_t>::max(), limit + 1}) {
      core::ScenarioSpec spec;
      spec.family = {family, {}};
      spec.algorithm = "greedy";
      spec.ns = {n};
      try {
        core::resolve_scenario(spec);
        ADD_FAILURE() << family << " n=" << n << ": expected invalid_argument";
      } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(std::to_string(n)), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(limit)), std::string::npos) << what;
      }
      support::Xoshiro256 rng(1);
      EXPECT_THROW(families.build({family, {}}, n, rng), std::invalid_argument)
          << family << " n=" << n;
      EXPECT_THROW(graph::realised_size(families, {family, {}}, n), std::invalid_argument)
          << family << " n=" << n;
    }
  }
  // A request inside the range whose realised size is not: the nearest
  // square to 2^32-1 is 65536^2 = 2^32.
  EXPECT_THROW(graph::realised_size(families, {"torus", {}}, limit), std::invalid_argument);
}

TEST(Scenario, ResolveRoutesAlgorithmsToTheirEngine) {
  // Message algorithms used to be rejected here; they now resolve to the
  // message-engine path, with the canonical spec naming the engine (and
  // pinning the semantics field, which the message engine has no use for).
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id-msg";
  spec.ns = {16};
  const core::ResolvedScenario message = core::resolve_scenario(spec);
  EXPECT_EQ(message.make_backend()->name(), "message");
  EXPECT_EQ(message.make_backend()->parallel_granularity(),
            core::SweepBackend::Granularity::kTrials);
  EXPECT_EQ(message.spec.engine, "message");
  EXPECT_EQ(message.spec.semantics, local::ViewSemantics::kFloodingKnowledge);

  spec.algorithm = "largest-id";
  const core::ResolvedScenario view = core::resolve_scenario(spec);
  EXPECT_EQ(view.make_backend()->name(), "view");
  EXPECT_EQ(view.make_backend()->parallel_granularity(),
            core::SweepBackend::Granularity::kVertices);
  EXPECT_EQ(view.spec.engine, "view");
}

TEST(Scenario, ResolveRejectsEngineMismatchesPrecisely) {
  // The combinations that remain unsupported fail at validation time with
  // an error naming both sides, never deep inside a sweep.
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.ns = {16};

  spec.algorithm = "largest-id-msg";
  spec.engine = "view";
  try {
    core::resolve_scenario(spec);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("largest-id-msg"), std::string::npos) << what;
    EXPECT_NE(what.find("message"), std::string::npos) << what;
  }

  spec.algorithm = "largest-id";
  spec.engine = "message";
  EXPECT_THROW(core::resolve_scenario(spec), std::invalid_argument);

  spec.engine = "carrier-pigeon";
  EXPECT_THROW(core::resolve_scenario(spec), std::invalid_argument);
}

TEST(Scenario, JsonRoundTripsCanonically) {
  core::ScenarioSpec spec;
  spec.family = {"gnp", {{"avg-degree", 6.0}}};
  spec.algorithm = "greedy";
  spec.ns = {32, 64};
  spec.semantics = local::ViewSemantics::kFloodingKnowledge;
  spec.seed = 1234567890123ULL;
  spec.schedule.max_trials = 48;
  spec.schedule.min_trials = 8;
  spec.schedule.batch = 12;
  spec.schedule.target_half_width = 0.25;
  spec.node_profile = true;
  const core::ScenarioSpec canonical = core::resolve_scenario(spec).spec;

  const std::string text = core::scenario_to_json(canonical);
  const core::ScenarioSpec parsed = core::scenario_from_json(support::parse_json(text));
  EXPECT_EQ(parsed, canonical);
  // Serialisation is canonical: re-emitting the parsed spec reproduces the
  // exact byte sequence (what a shard header round-trips through).
  EXPECT_EQ(core::scenario_to_json(parsed), text);
}

// ---------------------------------------------------- adaptive schedule ----

TEST(Scenario, AdaptiveStopsEarlyOnLowVarianceScenario) {
  // cv3 outputs at the same schedule radius in every trial, so the
  // per-trial average is constant, the sample sd is 0, and the first
  // convergence check passes: min_trials is the stopping count.
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "cv3";
  spec.ns = {64};
  spec.seed = 5;
  spec.schedule.max_trials = 40;
  spec.schedule.min_trials = 4;
  spec.schedule.batch = 8;
  spec.schedule.target_half_width = 0.5;

  core::ScenarioExecution execution;
  execution.threads = 1;
  const core::ScenarioResult result = core::run_scenario(spec, execution);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(result.points[0].converged);
  EXPECT_EQ(result.points[0].point.trials, 4u);
  EXPECT_LE(result.points[0].half_width, 0.5);
}

TEST(Scenario, AdaptiveHitsTheCapOnHighVarianceScenario) {
  // largest-id's per-trial average varies with the permutation, and the
  // target is unreachably tight: the schedule must spend the whole cap and
  // report non-convergence.
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id";
  spec.ns = {64};
  spec.seed = 5;
  spec.schedule.max_trials = 12;
  spec.schedule.min_trials = 4;
  spec.schedule.batch = 3;
  spec.schedule.target_half_width = 1e-9;

  core::ScenarioExecution execution;
  execution.threads = 1;
  const core::ScenarioResult result = core::run_scenario(spec, execution);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_FALSE(result.points[0].converged);
  EXPECT_EQ(result.points[0].point.trials, 12u);
  EXPECT_GT(result.points[0].half_width, 1e-9);
}

TEST(Scenario, AdaptiveRunIsBitIdenticalToFixedRunOfStoppedCount) {
  // Adaptivity decides how many trials run, never what any trial computes:
  // the incremental accumulators must reproduce the monolithic fixed sweep
  // of the same total bit for bit, for both stopping modes.
  const auto fixed_points = [](const core::ScenarioSpec& spec, std::size_t trials) {
    core::ScenarioSpec fixed = spec;
    fixed.schedule = core::TrialSchedule{};
    fixed.schedule.max_trials = trials;
    core::ScenarioExecution execution;
    execution.threads = 1;
    return core::run_scenario(fixed, execution).points;
  };

  for (const double target : {0.08, 1e-9}) {
    core::ScenarioSpec spec;
    spec.family = {"cycle", {}};
    spec.algorithm = "largest-id";
    spec.ns = {48};
    spec.seed = 21;
    spec.schedule.max_trials = 20;
    spec.schedule.min_trials = 4;
    spec.schedule.batch = 5;
    spec.schedule.target_half_width = target;

    core::ScenarioExecution execution;
    execution.threads = 1;
    const core::ScenarioResult adaptive = core::run_scenario(spec, execution);
    ASSERT_EQ(adaptive.points.size(), 1u);
    const auto fixed = fixed_points(spec, adaptive.points[0].point.trials);
    ASSERT_EQ(fixed.size(), 1u);
    EXPECT_EQ(adaptive.points[0].point, fixed[0].point) << "target " << target;
  }
}

// -------------------------------------------------- workload rejection ----

TEST(Scenario, MergeRejectsArtefactsFromDifferentScenarios) {
  // Two sweeps whose numeric plans agree but whose family parameters
  // differ: only the scenario header reveals the mismatch.
  const auto shard_doc = [](double degree, const core::SweepShard& shard) {
    core::ScenarioSpec spec;
    spec.family = {"random-regular", {{"degree", degree}}};
    spec.algorithm = "largest-id";
    spec.ns = {12};
    spec.seed = 9;
    spec.schedule.max_trials = 4;
    const core::ResolvedScenario resolved = core::resolve_scenario(spec);
    core::ShardDocument doc;
    doc.meta = resolved.spec;
    doc.shard = shard;
    doc.points = core::run_scenario_shard(resolved, core::ScenarioExecution{1}, shard);
    return core::parse_shard_json(core::shard_to_json(doc));
  };

  std::vector<core::ShardDocument> mixed = {shard_doc(3.0, {0, 1, 0, 2}),
                                            shard_doc(4.0, {0, 1, 2, 4})};
  EXPECT_THROW(core::merge_shards(std::move(mixed)), std::logic_error);

  std::vector<core::ShardDocument> matched = {shard_doc(3.0, {0, 1, 0, 2}),
                                              shard_doc(3.0, {0, 1, 2, 4})};
  EXPECT_EQ(core::merge_shards(std::move(matched)).points.size(), 1u);
}

}  // namespace
