// Golden-artefact regression corpus: small canonical sweep artefacts are
// committed under tests/golden/, and this suite re-runs the exact same
// scenarios and requires the freshly serialised artefacts to be
// byte-identical to the committed files. Shard format v4 - key order,
// number formatting, the scenario header, edge partials - cannot drift
// silently; any intentional format change must regenerate the corpus (set
// AVGLOCAL_REGEN_GOLDEN=1 and re-run this binary) and show up in review as
// a diff of the committed artefacts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/shard.hpp"

#ifndef AVGLOCAL_GOLDEN_DIR
#error "AVGLOCAL_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace avglocal;

struct GoldenCase {
  const char* file;
  const char* algorithm;
  const char* family;
  std::size_t n;
};

const GoldenCase kCases[] = {
    {"view-largest-id-cycle.json", "largest-id", "cycle", 12},
    {"view-greedy-gnp.json", "greedy", "gnp", 12},
    {"message-largest-id-cycle.json", "largest-id-msg", "cycle", 12},
    {"message-local3-cycle.json", "local3", "cycle", 12},
    {"view-cv3-cycle.json", "cv3", "cycle", 12},
    {"view-mis-cycle.json", "mis", "cycle", 24},
    {"view-greedy-torus.json", "greedy", "torus", 16},
    {"message-greedy-gnp.json", "greedy-msg", "gnp", 12},
    {"message-cv3-cycle.json", "cv3-msg", "cycle", 12},
    // Large enough that most nodes output long before the last one, so the
    // message engine's halted nodes stand for many rounds.
    {"message-local3-cycle-512.json", "local3", "cycle", 512},
    {"message-greedy-regular4-256.json", "greedy-msg", "random-regular:degree=4", 256},
};

/// One deterministic full-plan shard artefact per case; every knob pinned
/// so the bytes are a pure function of the library.
std::string render_case(const GoldenCase& c) {
  core::ScenarioSpec spec;
  spec.family = graph::parse_family_spec(c.family);
  spec.algorithm = c.algorithm;
  spec.ns = {c.n};
  spec.seed = 2026;
  spec.schedule.max_trials = 4;
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);

  core::ShardDocument doc;
  doc.meta = resolved.spec;
  doc.shard = {0, resolved.spec.ns.size(), 0, resolved.spec.schedule.max_trials};
  doc.points = core::run_scenario_shard(resolved, core::ScenarioExecution{1}, doc.shard);
  return core::shard_to_json(doc);
}

std::string golden_path(const GoldenCase& c) {
  return std::string(AVGLOCAL_GOLDEN_DIR) + "/" + c.file;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return {};
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(GoldenArtefacts, CommittedArtefactsAreByteIdenticalToFreshRuns) {
  const bool regen = std::getenv("AVGLOCAL_REGEN_GOLDEN") != nullptr;
  for (const GoldenCase& c : kCases) {
    const std::string fresh = render_case(c);
    const std::string path = golden_path(c);
    if (regen) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out) << "cannot write " << path;
      out << fresh;
      continue;
    }
    const std::string committed = read_file(path);
    ASSERT_FALSE(committed.empty())
        << path << " missing; regenerate with AVGLOCAL_REGEN_GOLDEN=1";
    EXPECT_EQ(fresh, committed) << c.file
                                << ": artefact bytes drifted; if the format change is "
                                   "intentional, regenerate the corpus";
  }
}

TEST(GoldenArtefacts, CommittedArtefactsStillParseAndMerge) {
  if (std::getenv("AVGLOCAL_REGEN_GOLDEN") != nullptr) GTEST_SKIP();
  for (const GoldenCase& c : kCases) {
    const std::string committed = read_file(golden_path(c));
    ASSERT_FALSE(committed.empty()) << c.file;
    core::ShardDocument doc = core::parse_shard_json(committed);
    EXPECT_EQ(doc.meta.algorithm, c.algorithm) << c.file;
    // Round trip: parse + re-serialise reproduces the committed bytes.
    EXPECT_EQ(core::shard_to_json(doc), committed) << c.file;
    // A full-plan artefact merges on its own into finalized points.
    std::vector<core::ShardDocument> docs;
    docs.push_back(std::move(doc));
    const core::ScenarioResult merged = core::merge_shards(std::move(docs));
    ASSERT_EQ(merged.points.size(), 1u) << c.file;
    EXPECT_EQ(merged.points[0].point.trials, 4u) << c.file;
    EXPECT_GT(merged.points[0].point.radius.samples, 0u) << c.file;
  }
}

}  // namespace
