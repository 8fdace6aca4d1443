// Backend conformance suite for the engine-agnostic sweep layer.
//
// Every registered backend (ViewBackend, MessageBackend - reached through
// ResolvedScenario::make_backend, the same seam every tool uses) runs
// identical scenario specs through core::SweepDriver and must reproduce
// the pre-redesign golden corpus in tests/golden/ byte for byte - serial,
// pooled, and as appended sub-ranges through one persistent prepared
// point. On top of the corpus: capability probes, bit-identity of the
// pooled message sweep against the serial path, persistence of per-point
// state across adaptive-style rounds, and the shard-artefact version paths
// through the new driver (v4 round trips, v2 and v3 are rejected, and the
// precise engine-mismatch merge error).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/shard.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "support/thread_pool.hpp"

#ifndef AVGLOCAL_GOLDEN_DIR
#error "AVGLOCAL_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace avglocal;

using TrialRanges = std::vector<std::pair<std::size_t, std::size_t>>;

/// The golden corpus cases: two per backend, same specs as
/// tests/test_golden_artefacts.cpp.
struct ConformanceCase {
  const char* file;
  const char* algorithm;
  const char* family;
  std::size_t n;
};

const ConformanceCase kCases[] = {
    {"view-largest-id-cycle.json", "largest-id", "cycle", 12},
    {"view-greedy-gnp.json", "greedy", "gnp", 12},
    {"message-largest-id-cycle.json", "largest-id-msg", "cycle", 12},
    {"message-local3-cycle.json", "local3", "cycle", 12},
};

core::ScenarioSpec case_spec(const ConformanceCase& c) {
  core::ScenarioSpec spec;
  spec.family = graph::parse_family_spec(c.family);
  spec.algorithm = c.algorithm;
  spec.ns = {c.n};
  spec.seed = 2026;
  spec.schedule.max_trials = 4;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return {};
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::string golden_bytes(const ConformanceCase& c) {
  return read_file(std::string(AVGLOCAL_GOLDEN_DIR) + "/" + c.file);
}

/// Renders the case's full-plan artefact through the driver: one prepared
/// point per plan point, trials run as the given sub-ranges and appended -
/// so a {0..4} range is one shot and {0..2, 2..4} exercises the persistent
/// state across rounds.
std::string render_driver_artefact(const ConformanceCase& c, support::ThreadPool* pool,
                                   const TrialRanges& ranges) {
  const core::ResolvedScenario resolved = core::resolve_scenario(case_spec(c));
  const core::BatchedSweepOptions options = resolved.sweep_options();
  const std::unique_ptr<core::SweepBackend> backend = resolved.make_backend();
  const core::SweepDriver driver(*backend, options, pool);
  EXPECT_EQ(backend->name(), resolved.spec.engine);

  core::ShardDocument doc;
  doc.meta = resolved.spec;
  doc.shard = {0, resolved.spec.ns.size(), 0, options.trials};
  for (std::size_t point = 0; point < resolved.spec.ns.size(); ++point) {
    const graph::Graph g = resolved.graphs(resolved.spec.ns[point]);
    core::SweepDriver::Point prepared = driver.prepare(g, point);
    core::PointAccumulator acc =
        driver.run_trials(prepared, ranges.front().first, ranges.front().second);
    for (std::size_t i = 1; i < ranges.size(); ++i) {
      acc.append(driver.run_trials(prepared, ranges[i].first, ranges[i].second));
    }
    doc.points.push_back(std::move(acc));
  }
  return core::shard_to_json(doc);
}

// ------------------------------------------------- golden conformance ----

TEST(SweepBackendConformance, SerialDriverReproducesGoldenCorpus) {
  for (const ConformanceCase& c : kCases) {
    const std::string committed = golden_bytes(c);
    ASSERT_FALSE(committed.empty()) << c.file;
    EXPECT_EQ(render_driver_artefact(c, nullptr, {{0, 4}}), committed) << c.file;
  }
}

TEST(SweepBackendConformance, PooledDriverReproducesGoldenCorpus) {
  support::ThreadPool pool(3);
  for (const ConformanceCase& c : kCases) {
    const std::string committed = golden_bytes(c);
    ASSERT_FALSE(committed.empty()) << c.file;
    EXPECT_EQ(render_driver_artefact(c, &pool, {{0, 4}}), committed) << c.file;
  }
}

TEST(SweepBackendConformance, AppendedSubRangesReproduceGoldenCorpus) {
  // Two rounds through ONE prepared point (the message backend keeps its
  // engine alive in between) must leave no trace in the artefact bytes -
  // serial and pooled.
  support::ThreadPool pool(2);
  for (const ConformanceCase& c : kCases) {
    const std::string committed = golden_bytes(c);
    ASSERT_FALSE(committed.empty()) << c.file;
    EXPECT_EQ(render_driver_artefact(c, nullptr, {{0, 2}, {2, 4}}), committed) << c.file;
    EXPECT_EQ(render_driver_artefact(c, &pool, {{0, 3}, {3, 4}}), committed) << c.file;
  }
}

// ------------------------------------------------------- capabilities ----

TEST(SweepBackend, CapabilityProbes) {
  core::ScenarioSpec view_spec = case_spec(kCases[0]);
  const auto view = core::resolve_scenario(view_spec).make_backend();
  EXPECT_EQ(view->name(), "view");
  EXPECT_TRUE(view->supports_batching());
  EXPECT_EQ(view->parallel_granularity(), core::SweepBackend::Granularity::kVertices);

  core::ScenarioSpec message_spec = case_spec(kCases[2]);
  const auto message = core::resolve_scenario(message_spec).make_backend();
  EXPECT_EQ(message->name(), "message");
  EXPECT_TRUE(message->supports_batching());
  EXPECT_EQ(message->parallel_granularity(), core::SweepBackend::Granularity::kTrials);
}

// ------------------------------------------- parallel message sweeps ----

core::PointAccumulator run_message_point(support::ThreadPool* pool, std::size_t trials,
                                         std::size_t batch_size = 0) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id-msg";
  spec.ns = {48};
  spec.seed = 404;
  spec.schedule.max_trials = trials;
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  core::BatchedSweepOptions options = resolved.sweep_options();
  options.batch_size = batch_size;
  const std::unique_ptr<core::SweepBackend> backend = resolved.make_backend();
  const core::SweepDriver driver(*backend, options, pool);
  const graph::Graph g = resolved.graphs(48);
  core::SweepDriver::Point prepared = driver.prepare(g, 0);
  return driver.run_trials(prepared, 0, trials);
}

TEST(SweepDriver, ParallelMessageSweepIsBitIdenticalToSerial) {
  // One arena-backed engine per pool worker lane over disjoint contiguous
  // trial ranges; the appended exact-integer partials must reproduce the
  // serial accumulator bit for bit, for every worker count and batch
  // width - including pools wider than the trial count.
  const core::PointAccumulator serial = run_message_point(nullptr, 11);
  for (const std::size_t workers : {2u, 3u, 5u, 16u}) {
    support::ThreadPool pool(workers);
    EXPECT_EQ(run_message_point(&pool, 11), serial) << "workers=" << workers;
    EXPECT_EQ(run_message_point(&pool, 11, /*batch_size=*/2), serial)
        << "workers=" << workers << " batch=2";
  }
}

TEST(SweepDriver, PersistentPointMatchesFreshPointAcrossRounds) {
  // Adaptive rounds reuse the prepared point (and its engines). Splitting
  // the range over one point - serial and pooled - must equal the one-shot
  // run of a fresh point.
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "local3";
  spec.ns = {30};
  spec.seed = 77;
  spec.schedule.max_trials = 9;
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  const core::BatchedSweepOptions options = resolved.sweep_options();
  const std::unique_ptr<core::SweepBackend> backend = resolved.make_backend();
  const graph::Graph g = resolved.graphs(30);

  const core::SweepDriver serial(*backend, options, nullptr);
  core::SweepDriver::Point fresh = serial.prepare(g, 0);
  const core::PointAccumulator reference = serial.run_trials(fresh, 0, 9);

  support::ThreadPool pool(3);
  for (support::ThreadPool* p : {static_cast<support::ThreadPool*>(nullptr), &pool}) {
    core::SweepDriver driver(*backend, options, p);
    core::SweepDriver::Point persistent = driver.prepare(g, 0);
    core::PointAccumulator acc = driver.run_trials(persistent, 0, 4);
    acc.append(driver.run_trials(persistent, 4, 6));
    acc.append(driver.run_trials(persistent, 6, 9));
    EXPECT_EQ(acc, reference) << (p == nullptr ? "serial" : "pooled");
  }
}

// --------------------------------- shard artefact versions (v2, v3, v4) ----

/// A frozen version-2 artefact (the pre-edge-measure format). It carries no
/// edge partials, so merging it would report zero edge measures; the
/// reader rejects it and names the version it expects.
const char* kV2Artefact =
    R"({"avglocal_shard":2,"seed":9,"trials":2,"semantics":"induced","ns":[4],)"
    R"("quantile_probs":[0.5],"node_profile":false,"algorithm":"largest-id",)"
    R"("graph":"cycle","scenario":"",)"
    R"("shard":{"point_begin":0,"point_end":1,"trial_begin":0,"trial_end":2},)"
    R"("points":[{"point_index":0,"n":4,"trial_begin":0,"trial_sum":[5,6],)"
    R"("trial_max":[2,2],"histogram":[1,4,3],"node_sum":[3,2,3,3]}]})";

/// A frozen version-3 artefact: the committed view-largest-id-cycle.json
/// before the header became the scenario object. It mirrors the plan in
/// nine top-level keys beside an escaped scenario string.
const char* kV3Artefact =
    R"({"avglocal_shard":3,"seed":2026,"trials":4,"semantics":"induced","ns":[12],)"
    R"("quantile_probs":[0.5,0.9,0.99],"node_profile":false,"algorithm":"largest-id",)"
    R"("graph":"cycle","scenario":"{\"family\":\"cycle\",\"family_params\":{},)"
    R"(\"algorithm\":\"largest-id\",\"engine\":\"view\",\"ns\":[12],)"
    R"(\"semantics\":\"induced\",\"seed\":2026,\"schedule\":{\"max_trials\":4,)"
    R"(\"min_trials\":16,\"batch\":16,\"target_half_width\":0,\"z\":1.96},)"
    R"(\"quantile_probs\":[0.5,0.9,0.99],\"node_profile\":false}","engine":"view",)"
    R"("shard":{"point_begin":0,"point_end":1,"trial_begin":0,"trial_end":4},)"
    R"("points":[{"point_index":0,"n":12,"edges":12,"trial_begin":0,)"
    R"("trial_sum":[22,25,23,24],"trial_max":[6,6,6,6],"histogram":[0,31,8,2,0,1,6],)"
    R"("node_sum":[9,14,4,6,4,5,14,14,5,7,7,5],"trial_edge_sum":[32,38,34,36],)"
    R"("edge_histogram":[0,14,16,4,0,2,12]}]})";

TEST(ShardCompatibility, Version2ArtefactIsRejected) {
  for (const char* artefact : {kV2Artefact, kV3Artefact}) {
    try {
      core::parse_shard_json(artefact);
      ADD_FAILURE() << "a pre-v4 artefact must not parse: " << artefact;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("expected version 4"), std::string::npos)
          << error.what();
    }
  }
}

TEST(ShardCompatibility, Version4ViewArtefactsFromTheDriverRoundTripAndMerge) {
  // Two trial-range shards produced by the new driver, serialised, parsed
  // back and merged: bit-identical to merging the committed full-plan
  // corpus artefact of the same scenario.
  const ConformanceCase& c = kCases[0];
  const core::ResolvedScenario resolved = core::resolve_scenario(case_spec(c));
  const core::BatchedSweepOptions options = resolved.sweep_options();
  const std::unique_ptr<core::SweepBackend> backend = resolved.make_backend();
  const core::SweepDriver driver(*backend, options, nullptr);

  std::vector<core::ShardDocument> docs;
  for (const auto& [begin, end] : TrialRanges{{0, 2}, {2, 4}}) {
    core::ShardDocument doc;
    doc.meta = resolved.spec;
    doc.shard = {0, resolved.spec.ns.size(), begin, end};
    const graph::Graph g = resolved.graphs(resolved.spec.ns[0]);
    core::SweepDriver::Point prepared = driver.prepare(g, 0);
    doc.points.push_back(driver.run_trials(prepared, begin, end));
    docs.push_back(core::parse_shard_json(core::shard_to_json(doc)));
  }
  const auto merged = core::merge_shards(std::move(docs));

  const std::string committed = golden_bytes(c);
  ASSERT_FALSE(committed.empty()) << c.file;
  std::vector<core::ShardDocument> golden;
  golden.push_back(core::parse_shard_json(committed));
  EXPECT_EQ(merged, core::merge_shards(std::move(golden)));
}

TEST(ShardCompatibility, MergeNamesTheEnginesOnBackendMismatch) {
  // Shards of largest-id (view) and largest-id-msg (message) on the same
  // plan, each under its own real header: both engines' radii are plain
  // integers, and the merge must refuse with an error that names both
  // engines, not a generic header mismatch.
  const auto make_doc = [](const char* algorithm, const core::SweepShard& shard) {
    core::ScenarioSpec spec;
    spec.family = {"cycle", {}};
    spec.algorithm = algorithm;
    spec.ns = {12};
    spec.seed = 2;
    spec.schedule.max_trials = 4;
    const core::ResolvedScenario resolved = core::resolve_scenario(spec);
    core::ShardDocument doc;
    doc.meta = resolved.spec;
    doc.shard = shard;
    doc.points = core::run_scenario_shard(resolved, core::ScenarioExecution{1}, shard);
    return core::parse_shard_json(core::shard_to_json(doc));
  };
  std::vector<core::ShardDocument> mixed;
  mixed.push_back(make_doc("largest-id", {0, 1, 0, 2}));
  mixed.push_back(make_doc("largest-id-msg", {0, 1, 2, 4}));
  try {
    core::merge_shards(std::move(mixed));
    FAIL() << "cross-engine merge must throw";
  } catch (const std::logic_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("different engines"), std::string::npos) << what;
    EXPECT_NE(what.find("'view' vs 'message'"), std::string::npos) << what;
  }
}

}  // namespace
