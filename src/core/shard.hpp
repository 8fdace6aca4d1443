// Sharded execution of batched sweeps across processes and hosts.
//
// A SweepShard names a sub-rectangle (point range x trial range) of a sweep
// plan. Every trial's random stream derives from
// derive_seed(derive_seed(seed, point), trial) - independent of which
// shard, batch or worker runs it - and shard outputs are the exact integer
// partials of core/batched_sweep.hpp, serialised as JSON under a header
// that is the canonical scenario of the sweep. Merging the shard artefacts
// of a plan therefore reproduces the monolithic run_scenario bit for bit;
// a test pins this.
//
// Workflow: plan_shards on the coordinator, run_scenario_shard +
// shard_to_json on each worker process (see the `sweep --shard I/K`
// subcommand of examples/avglocal_cli.cpp), parse_shard_json +
// merge_shards wherever the artefacts land (`merge` subcommand).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/batched_sweep.hpp"
#include "core/scenario.hpp"

namespace avglocal::core {

/// One sub-rectangle of a sweep plan: points [point_begin, point_end) of
/// the plan's size list x global trials [trial_begin, trial_end).
struct SweepShard {
  std::size_t point_begin = 0;
  std::size_t point_end = 0;
  std::size_t trial_begin = 0;
  std::size_t trial_end = 0;

  bool empty() const noexcept { return point_begin >= point_end || trial_begin >= trial_end; }

  friend bool operator==(const SweepShard&, const SweepShard&) = default;
};

/// Splits `trials` into `shard_count` contiguous near-equal trial ranges,
/// each covering every point. At most `trials` shards are non-empty; empty
/// shards are omitted, so the result may be shorter than `shard_count`.
std::vector<SweepShard> plan_shards(std::size_t points, std::size_t trials,
                                    std::size_t shard_count);

/// One parsed (or to-be-serialised) shard artefact. `meta` is the header:
/// the canonical (resolved) scenario of the sweep, which names the
/// workload, the engine and the numeric plan in one self-describing block.
struct ShardDocument {
  ScenarioSpec meta;
  SweepShard shard;
  std::vector<PointAccumulator> points;

  friend bool operator==(const ShardDocument&, const ShardDocument&) = default;
};

/// Former names of the header type and of the call that produced it. The
/// benchmark harness (perfbench/fabric.cpp) still spells them, and it changes
/// only together with its own workloads; both names go with its next revision.
using SweepPlanMeta = ScenarioSpec;
inline SweepPlanMeta scenario_plan_meta(const ResolvedScenario& resolved) { return resolved.spec; }

/// Serialises a shard artefact; integers are emitted losslessly.
std::string shard_to_json(const ShardDocument& doc);

/// Parses a shard artefact; throws std::runtime_error on malformed input
/// and on documents that are not avglocal shard artefacts of this version.
ShardDocument parse_shard_json(std::string_view text);

/// Runs one shard of a resolved scenario, one ScenarioSession per point:
/// accumulators for points [shard.point_begin, point_end), trials
/// [trial_begin, trial_end). The execution knobs never change results.
std::vector<PointAccumulator> run_scenario_shard(const ResolvedScenario& resolved,
                                                 const ScenarioExecution& execution,
                                                 const SweepShard& shard);

/// Merges shard artefacts into the report of their scenario. Requires all
/// headers to be equal (engines are compared first, for a precise error),
/// every artefact's points to be exactly its rectangle's points - each one
/// passing ResolvedScenario::matches_partial, as the fabric coordinator
/// requires of its units - and, for every point of the plan, the trial
/// ranges to exactly partition [0, max_trials) (any artefact order). Points
/// report through ResolvedScenario::finish_point, so the result is
/// bit-identical to run_scenario over the same fixed schedule.
ScenarioResult merge_shards(std::vector<ShardDocument> docs);

}  // namespace avglocal::core
