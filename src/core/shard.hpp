// Sharded execution of batched sweeps across processes and hosts.
//
// A SweepShard names a sub-rectangle (point range x trial range) of a sweep
// plan. Every trial's random stream derives from
// derive_seed(derive_seed(seed, point), trial) - independent of which
// shard, batch or worker runs it - and shard outputs are the exact integer
// partials of core/batched_sweep.hpp, serialised as JSON. Merging the shard
// artefacts of a plan therefore reproduces the monolithic SweepDriver::run
// bit for bit; a test pins this.
//
// Workflow: plan_shards on the coordinator, run_scenario_shard
// (core/scenario.hpp) + shard_to_json on each worker process (see the
// `sweep --shard I/K` subcommand of examples/avglocal_cli.cpp),
// parse_shard_json + merge_shards wherever the artefacts land (`merge`
// subcommand).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/batched_sweep.hpp"

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

/// The plan header every shard artefact carries so a merge can verify all
/// artefacts describe the same sweep. `options_for` rebuilds the finalize
/// parameters a merge needs.
struct SweepPlanMeta {
  std::uint64_t seed = 42;
  std::size_t trials = 0;
  std::vector<std::size_t> ns;
  local::ViewSemantics semantics = local::ViewSemantics::kInducedBall;
  std::vector<double> quantile_probs;
  bool node_profile = false;
  /// Free-form workload identity (e.g. "largest-id" / "cycle"). The
  /// numeric plan alone cannot reveal that two artefacts were produced by
  /// different algorithms or graph families - radii are just integers - so
  /// merges also require these labels to match. Callers that never mix
  /// workloads may leave them empty.
  std::string algorithm;
  std::string graph;
  /// Canonical scenario block (core::scenario_to_json of the resolved
  /// spec). Self-describing workload identity: merges compare it like
  /// every other meta field, so artefacts from different scenarios -
  /// including ones that agree on the numeric plan and the labels above
  /// but differ in family parameters - reject by construction. Empty for
  /// callers below the scenario layer.
  std::string scenario;
  /// Which engine produced the radii: "view" (ViewBackend) or "message"
  /// (MessageBackend). Compared on merge like every other
  /// field - the two engines' radii are both just integers, so without
  /// this label artefacts from different formulations could interleave.
  std::string engine = "view";

  static SweepPlanMeta from_options(const std::vector<std::size_t>& ns,
                                    const BatchedSweepOptions& options);
  BatchedSweepOptions options_for() const;

  friend bool operator==(const SweepPlanMeta&, const SweepPlanMeta&) = default;
};

/// One parsed (or to-be-serialised) shard artefact.
struct ShardDocument {
  SweepPlanMeta meta;
  SweepShard shard;
  std::vector<PointAccumulator> points;

  friend bool operator==(const ShardDocument&, const ShardDocument&) = default;
};

/// Serialises a shard artefact; integers are emitted losslessly.
std::string shard_to_json(const ShardDocument& doc);

/// Parses a shard artefact; throws std::runtime_error on malformed input
/// and on documents that are not avglocal shard artefacts.
ShardDocument parse_shard_json(std::string_view text);

/// Merges shard artefacts into the final sweep points. Requires all metas
/// to be identical and, for every point of the plan, the shards' trial
/// ranges to exactly partition [0, meta.trials) (any artefact order).
/// The output is bit-identical to SweepDriver::run over the same plan.
std::vector<BatchedSweepPoint> merge_shards(std::vector<ShardDocument> docs);

}  // namespace avglocal::core
