// The declarative workload layer: one ScenarioSpec names everything a sweep
// needs - graph family (registry key + parameters), view algorithm
// (registry key), semantics, sizes, seed, measure options and a trial
// schedule - and every tool (avglocal_cli run/sweep/drive, experiments,
// benches) consumes the same resolved plumbing instead of re-wiring its own
// factory dispatch.
//
// Resolution is strict and happens before any sweep work: unknown families,
// algorithms or parameters throw std::invalid_argument listing the known
// keys, and requested sizes are snapped to the sizes the family can realise
// exactly (a torus needs a square), so the engine-level contract
// `vertex_count() == n` holds by construction.
//
// The trial schedule is either fixed (run exactly max_trials) or adaptive:
// batches run through the exact-integer accumulators of
// core/batched_sweep.hpp until the half-width of the normal-approximation
// confidence interval around avg_mean closes below a target (or the cap
// hits). Because every trial's stream derives from (seed, point, trial),
// an adaptive run that stops after T trials is bit-identical to a fixed
// T-trial sweep - adaptivity changes how many trials run, never what any
// trial computes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batched_sweep.hpp"
#include "core/sweep_driver.hpp"
#include "graph/family_registry.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace avglocal::core {

/// How many random id-assignments a sweep point runs.
struct TrialSchedule {
  /// Hard cap; with target_half_width == 0 this is the exact trial count.
  std::size_t max_trials = 100;
  /// Adaptive mode: trials run before the first convergence check (>= 2,
  /// one sample has no variance estimate).
  std::size_t min_trials = 16;
  /// Adaptive mode: trials added per round after the first check.
  std::size_t batch = 16;
  /// Target half-width of the confidence interval around avg_mean
  /// (z * sd / sqrt(trials)); 0 disables adaptation.
  double target_half_width = 0.0;
  /// Normal quantile of the interval (1.96 ~ 95%).
  double z = 1.96;

  bool adaptive() const noexcept { return target_half_width > 0.0; }

  /// Half-width of the avg-mean confidence interval after `trials` trials.
  /// The single definition behind convergence decisions, reported points
  /// and reconstructed merge/drive reports - reports recombined from shard
  /// artefacts must be byte-identical to the monolithic run's, so every
  /// consumer must evaluate the exact same expression.
  double half_width(double sd, std::size_t trials) const noexcept;

  friend bool operator==(const TrialSchedule&, const TrialSchedule&) = default;
};

/// A declarative sweep workload. String keys resolve against
/// graph::FamilyRegistry and algo::AlgorithmRegistry; both view and
/// message algorithms are sweepable (the registry kind selects the
/// engine).
struct ScenarioSpec {
  graph::FamilySpec family{"cycle", {}};
  std::string algorithm = "largest-id";
  std::vector<std::size_t> ns = {256};
  local::ViewSemantics semantics = local::ViewSemantics::kInducedBall;
  std::uint64_t seed = 42;
  TrialSchedule schedule;
  std::vector<double> quantile_probs = {0.5, 0.9, 0.99};
  bool node_profile = false;
  /// Executing engine: "view" or "message". Normally left empty and filled
  /// in by resolve_scenario from the algorithm's registry kind; a non-empty
  /// value is validated against that kind (a precise mismatch error beats a
  /// radii mix-up). Canonical specs always carry it, so artefact scenario
  /// blocks are self-describing about the formulation that produced them.
  std::string engine;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// One sweep point of a scenario run, plus how the schedule ended there.
struct ScenarioPoint {
  BatchedSweepPoint point;
  /// Half-width of the avg_mean confidence interval at the final count.
  double half_width = 0.0;
  /// Adaptive runs: target reached before the cap. Fixed runs: true.
  bool converged = true;

  friend bool operator==(const ScenarioPoint&, const ScenarioPoint&) = default;
};

/// A validated, runnable scenario. `spec` is the canonical form: family
/// parameters resolved to the full declaration-order list (defaults
/// included), sizes snapped to realised sizes (deduplicated, order kept)
/// and the engine filled in, so two specs that describe the same workload
/// resolve to equal - and identically serialised - canonical specs.
struct ResolvedScenario {
  ScenarioSpec spec;
  GraphFactory graphs;

  /// Builds the SweepBackend for the registry entry spec.algorithm names:
  /// a ViewBackend under spec.semantics for view algorithms, a
  /// MessageBackend granting the entry's knowledge for message algorithms
  /// (core/sweep_backend.hpp). ScenarioSession is its one caller in the
  /// scenario layer; benches and the conformance tests call it directly to
  /// wrap or replay the backend.
  std::unique_ptr<SweepBackend> make_backend() const;

  /// Sweep options for a fixed run of `trials` trials (defaults to the
  /// schedule cap; shards and adaptive rounds override the count).
  BatchedSweepOptions sweep_options() const;
  BatchedSweepOptions sweep_options(std::size_t trials) const;

  /// The reported point of complete partials (trials [0, T)):
  /// finalize_point with sweep_options(T) plus the half-width at T. Every
  /// path reports through it, so their bytes cannot drift apart.
  ScenarioPoint finish_point(const PointAccumulator& acc, bool converged) const;

  /// True iff `acc` is exactly trials [trial_begin, trial_end) of sweep
  /// point `point` (index, size, first trial, count). Checked on partials
  /// that cross a trust boundary: fabric artefacts, offered cache partials.
  bool matches_partial(const PointAccumulator& acc, std::size_t point, std::size_t trial_begin,
                       std::size_t trial_end) const noexcept;
};

/// Validates every registry key and parameter and builds the factories.
/// Throws std::invalid_argument before any graph or engine work happens.
ResolvedScenario resolve_scenario(const ScenarioSpec& spec);

/// Canonical JSON block of a spec (single line, fixed key order); resolve
/// first for a canonical spec.
std::string scenario_to_json(const ScenarioSpec& spec);

/// Emits the same block as one object value of a larger document: the
/// `scenario` object of sweep reports, shard artefact headers, daemon
/// requests and the fabric hello.
void write_scenario_json(support::JsonWriter& json, const ScenarioSpec& spec);

ScenarioSpec scenario_from_json(const support::JsonValue& value);

/// The workload-identity block: the canonical scenario block minus the
/// trial schedule (same keys, same order, `schedule` omitted). Everything
/// in it changes what any trial computes; nothing in it changes with how
/// many trials are requested. Two requests that differ only in their
/// schedule therefore share an identity - which is exactly what lets the
/// result cache (core/result_cache.hpp) extend a cached exact-integer
/// partial with fresh trials instead of recomputing. Resolve first:
/// identity is only canonical on resolved specs.
std::string scenario_identity_json(const ScenarioSpec& spec);

/// Content-addressable cache key of a scenario: the FNV-1a 64-bit digest
/// of scenario_identity_json in fixed-width lowercase hex. The daemon, the
/// result cache and clients all name cached workloads by this key.
std::string scenario_cache_key(const ScenarioSpec& spec);

struct ScenarioResult {
  ScenarioSpec spec;  ///< canonical spec the run used
  std::vector<ScenarioPoint> points;

  friend bool operator==(const ScenarioResult&, const ScenarioResult&) = default;
};

/// The sweep report document (format v3). Produced identically by the
/// monolithic `sweep`, by `merge`, by `drive` and by the daemon's cache
/// hits, so any two paths that ran the same workload can be compared byte
/// for byte (CI does, with cmp).
std::string sweep_report_json(const ScenarioSpec& spec,
                              const std::vector<ScenarioPoint>& points);

/// Execution knobs that never change results (pinned by the batched-sweep
/// tests): worker pool sizing and engine batch width. Deliberately outside
/// ScenarioSpec - two runs of one scenario on different machines are the
/// same workload.
struct ScenarioExecution {
  /// Worker threads when `pool` is null; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// BatchedSweepOptions::batch_size (memory bound; 0 = whole trial range).
  std::size_t batch_size = 0;
  /// Optional externally owned pool, reused across runs.
  support::ThreadPool* pool = nullptr;
};

/// The one owner of a resolved scenario's engines: backend, pool, driver,
/// and per point a graph and prepared SweepDriver::Point, built on the
/// point's first run_trials call and kept until the session ends. Every
/// scenario-level path runs through sessions: result-cache entries and
/// fabric workers keep one; run_scenario and run_scenario_shard
/// (core/shard.hpp) open one per point, so memory peaks at one point's.
/// Not thread-safe.
class ScenarioSession {
 public:
  explicit ScenarioSession(ResolvedScenario resolved, const ScenarioExecution& execution = {});
  ScenarioSession(const ScenarioSession&) = delete;  // prepared points pin members
  ScenarioSession& operator=(const ScenarioSession&) = delete;

  const ResolvedScenario& resolved() const noexcept { return resolved_; }

  /// Exact partials of global trials [trial_begin, trial_end) of `point`.
  PointAccumulator run_trials(std::size_t point, std::size_t trial_begin, std::size_t trial_end);

 private:
  struct PreparedPoint {
    explicit PreparedPoint(graph::Graph built) : graph(std::move(built)) {}
    graph::Graph graph;
    SweepDriver::Point point;  ///< pins `graph`
  };

  ResolvedScenario resolved_;
  std::unique_ptr<SweepBackend> backend_;
  SweepPool pool_;
  SweepDriver driver_;
  std::vector<std::unique_ptr<PreparedPoint>> points_;  ///< by point index; null until run
};

/// Runs the scenario monolithically, applying the trial schedule per point.
ScenarioResult run_scenario(const ScenarioSpec& spec, const ScenarioExecution& execution = {});

}  // namespace avglocal::core
