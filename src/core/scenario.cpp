#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algo/registry.hpp"
#include "support/assert.hpp"
#include "support/json_writer.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace avglocal::core {

namespace {

/// Seed-space tag separating graph construction from id-assignment streams
/// (ASCII "graph_"); shared with the pre-registry CLI so artefacts stay
/// comparable across versions.
constexpr std::uint64_t kGraphSeedTag = 0x67726170685fULL;

local::ViewSemantics semantics_from_name(const std::string& name) {
  const auto semantics = local::view_semantics_from_name(name);
  if (!semantics) throw std::runtime_error("scenario: unknown view semantics '" + name + "'");
  return *semantics;
}

void validate_schedule(const TrialSchedule& schedule) {
  AVGLOCAL_EXPECTS_MSG(schedule.max_trials >= 1, "schedule needs at least one trial");
  // A negative (or NaN) target would silently run a fixed schedule and
  // record the bogus target in the report.
  AVGLOCAL_EXPECTS_MSG(schedule.target_half_width >= 0.0,
                       "target half-width must be >= 0 (0 runs a fixed schedule), got " +
                           std::to_string(schedule.target_half_width));
  if (schedule.adaptive()) {
    // The variance floor must bind the cap too: with max_trials == 1 the
    // first (and only) round would see a single sample, whose sd of 0
    // reports instant "convergence" from a zero-width interval.
    AVGLOCAL_EXPECTS_MSG(schedule.max_trials >= 2,
                         "adaptive schedules need a cap of >= 2 trials");
    AVGLOCAL_EXPECTS_MSG(schedule.min_trials >= 2,
                         "adaptive schedules need >= 2 trials for a variance estimate");
    AVGLOCAL_EXPECTS_MSG(schedule.batch >= 1, "adaptive schedules need a positive batch");
    AVGLOCAL_EXPECTS_MSG(schedule.z > 0.0, "confidence quantile z must be positive");
  }
}

/// Sample sd of the per-trial average radius, exactly as finalize_point
/// computes avg_sd (same Welford accumulation in global trial order), so
/// convergence decisions and the reported point agree to the last bit.
double partial_avg_sd(const PointAccumulator& acc) {
  support::RunningStats stats;
  for (std::size_t t = 0; t < acc.trial_count(); ++t) {
    stats.add(static_cast<double>(acc.trial_sum[t]) / static_cast<double>(acc.n));
  }
  return stats.stddev();
}

/// The scenario's plan plus execution knobs, which never change results.
BatchedSweepOptions session_options(const ResolvedScenario& resolved,
                                    const ScenarioExecution& execution) {
  BatchedSweepOptions options = resolved.sweep_options();
  options.threads = execution.threads;
  options.batch_size = execution.batch_size;
  options.pool = execution.pool;
  return options;
}

}  // namespace

double TrialSchedule::half_width(double sd, std::size_t trials) const noexcept {
  return z * sd / std::sqrt(static_cast<double>(trials));
}

std::unique_ptr<SweepBackend> ResolvedScenario::make_backend() const {
  const algo::AlgorithmInfo& algorithm = algo::AlgorithmRegistry::global().at(spec.algorithm);
  if (algorithm.kind == algo::AlgorithmKind::kMessage) {
    return std::make_unique<MessageBackend>(algorithm.messages, algorithm.knowledge);
  }
  return std::make_unique<ViewBackend>(algorithm.view, spec.semantics);
}

BatchedSweepOptions ResolvedScenario::sweep_options() const {
  return sweep_options(spec.schedule.max_trials);
}

BatchedSweepOptions ResolvedScenario::sweep_options(std::size_t trials) const {
  BatchedSweepOptions options;
  options.trials = trials;
  options.seed = spec.seed;
  options.semantics = spec.semantics;
  options.quantile_probs = spec.quantile_probs;
  options.node_profile = spec.node_profile;
  return options;
}

ScenarioPoint ResolvedScenario::finish_point(const PointAccumulator& acc, bool converged) const {
  ScenarioPoint point;
  point.point = finalize_point(acc, sweep_options(acc.trial_count()));
  point.half_width = spec.schedule.half_width(point.point.avg_sd, acc.trial_count());
  point.converged = converged;
  return point;
}

bool ResolvedScenario::matches_partial(const PointAccumulator& acc, std::size_t point,
                                       std::size_t trial_begin,
                                       std::size_t trial_end) const noexcept {
  return point < spec.ns.size() && acc.point_index == point && acc.n == spec.ns[point] &&
         acc.trial_begin == trial_begin && acc.trial_end() == trial_end;
}

ResolvedScenario resolve_scenario(const ScenarioSpec& spec) {
  const graph::FamilyRegistry& families = graph::FamilyRegistry::global();
  const graph::GraphFamily& family = families.at(spec.family.family);
  const std::vector<double> params =
      graph::FamilyRegistry::resolve_params(family, spec.family.params);

  const algo::AlgorithmRegistry& algorithms = algo::AlgorithmRegistry::global();
  const algo::AlgorithmInfo& algorithm = algorithms.at(spec.algorithm);
  const bool is_message = algorithm.kind == algo::AlgorithmKind::kMessage;
  const std::string engine_name = is_message ? "message" : "view";
  if (!spec.engine.empty() && spec.engine != "view" && spec.engine != "message") {
    throw std::invalid_argument("scenario: unknown engine '" + spec.engine +
                                "' (known: view message)");
  }
  if (!spec.engine.empty() && spec.engine != engine_name) {
    throw std::invalid_argument("scenario: engine '" + spec.engine + "' does not run algorithm '" +
                                spec.algorithm + "', which is a " + engine_name +
                                " algorithm; drop the engine field or use '" + engine_name + "'");
  }

  AVGLOCAL_EXPECTS_MSG(!spec.ns.empty(), "scenario needs at least one size");
  validate_schedule(spec.schedule);

  ResolvedScenario resolved;
  resolved.spec = spec;
  resolved.spec.engine = engine_name;
  // The message engine has no view-semantics knob; its rounds deliver
  // flooding knowledge. Canonicalising the field keeps two descriptions of
  // the same message workload byte-identical in artefacts.
  if (is_message) resolved.spec.semantics = local::ViewSemantics::kFloodingKnowledge;

  // Canonical parameter list: every declared parameter, declaration order,
  // defaults filled in.
  resolved.spec.family.params.clear();
  for (std::size_t i = 0; i < family.params.size(); ++i) {
    resolved.spec.family.params.emplace_back(family.params[i].name, params[i]);
  }

  // Snap requested sizes to realisable ones; drop duplicates (two requests
  // can snap to the same square), keeping first-occurrence order.
  resolved.spec.ns.clear();
  for (const std::size_t requested : spec.ns) {
    const std::size_t realised =
        graph::FamilyRegistry::checked_realised_size(family, params, requested);
    if (std::find(resolved.spec.ns.begin(), resolved.spec.ns.end(), realised) ==
        resolved.spec.ns.end()) {
      resolved.spec.ns.push_back(realised);
    }
  }

  // Randomised families derive their stream from (seed, n) only, so every
  // shard and every adaptive round of a plan builds identical graphs.
  const graph::FamilySpec family_spec = resolved.spec.family;
  const std::uint64_t seed = spec.seed;
  resolved.graphs = [family_spec, seed](std::size_t n) {
    support::Xoshiro256 rng(support::derive_seed(seed ^ kGraphSeedTag, n));
    return graph::FamilyRegistry::global().build(family_spec, n, rng);
  };

  return resolved;
}

namespace {

/// One body behind the canonical scenario block and the workload-identity
/// block: same keys, same order, the identity variant simply omits the
/// `schedule` object. The canonical block's byte stream is pinned by the
/// golden-artefact corpus, so the refactor must not move a single byte of
/// the with-schedule output.
void write_scenario_block(support::JsonWriter& json, const ScenarioSpec& spec,
                          bool with_schedule) {
  json.begin_object();
  json.key("family").value(spec.family.family);
  json.key("family_params").begin_object();
  for (const auto& [name, value] : spec.family.params) json.key(name).value(value);
  json.end_object();
  json.key("algorithm").value(spec.algorithm);
  json.key("engine").value(spec.engine);
  json.key("ns").begin_array();
  for (const std::size_t n : spec.ns) json.value(static_cast<std::uint64_t>(n));
  json.end_array();
  json.key("semantics").value(local::to_string(spec.semantics));
  json.key("seed").value(spec.seed);
  if (with_schedule) {
    json.key("schedule").begin_object();
    json.key("max_trials").value(static_cast<std::uint64_t>(spec.schedule.max_trials));
    json.key("min_trials").value(static_cast<std::uint64_t>(spec.schedule.min_trials));
    json.key("batch").value(static_cast<std::uint64_t>(spec.schedule.batch));
    json.key("target_half_width").value(spec.schedule.target_half_width);
    json.key("z").value(spec.schedule.z);
    json.end_object();
  }
  json.key("quantile_probs").begin_array();
  for (const double q : spec.quantile_probs) json.value(q);
  json.end_array();
  json.key("node_profile").value(spec.node_profile);
  json.end_object();
}

}  // namespace

std::string scenario_to_json(const ScenarioSpec& spec) {
  support::JsonWriter json;
  write_scenario_json(json, spec);
  return json.str();
}

void write_scenario_json(support::JsonWriter& json, const ScenarioSpec& spec) {
  write_scenario_block(json, spec, /*with_schedule=*/true);
}

std::string scenario_identity_json(const ScenarioSpec& spec) {
  support::JsonWriter json;
  write_scenario_block(json, spec, /*with_schedule=*/false);
  return json.str();
}

std::string scenario_cache_key(const ScenarioSpec& spec) {
  const std::string identity = scenario_identity_json(spec);
  // FNV-1a, 64-bit: tiny, dependency-free and stable across platforms -
  // the key is a cache address, not a cryptographic commitment (entries
  // verify nothing against it; the identity JSON is what is compared).
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : identity) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
  return std::string(hex, 16);
}

std::string sweep_report_json(const ScenarioSpec& spec,
                              const std::vector<ScenarioPoint>& points) {
  support::JsonWriter json;
  json.begin_object();
  json.key("avglocal_sweep").value(std::uint64_t{3});
  json.key("scenario");
  write_scenario_json(json, spec);
  json.key("points").begin_array();
  for (const auto& sp : points) {
    const auto& p = sp.point;
    json.begin_object();
    json.key("n").value(static_cast<std::uint64_t>(p.n));
    json.key("trials").value(static_cast<std::uint64_t>(p.trials));
    json.key("converged").value(sp.converged);
    json.key("half_width").value(sp.half_width);
    json.key("avg_mean").value(p.avg_mean);
    json.key("avg_sd").value(p.avg_sd);
    json.key("avg_worst").value(p.avg_worst);
    json.key("max_mean").value(p.max_mean);
    json.key("max_worst").value(static_cast<std::uint64_t>(p.max_worst));
    json.key("radius_mean").value(p.radius.mean);
    json.key("radius_max").value(static_cast<std::uint64_t>(p.radius.max));
    json.key("quantile_probs").begin_array();
    for (double q : p.radius.probs) json.value(q);
    json.end_array();
    json.key("quantiles").begin_array();
    for (std::size_t r : p.radius.quantiles) json.value(static_cast<std::uint64_t>(r));
    json.end_array();
    json.key("node_mean_min").value(p.node_mean_min);
    json.key("node_mean_max").value(p.node_mean_max);
    if (!p.node_mean.empty()) {
      json.key("node_mean").begin_array();
      for (double m : p.node_mean) json.value(m);
      json.end_array();
    }
    json.key("edges").value(static_cast<std::uint64_t>(p.edges));
    json.key("edge_avg_mean").value(p.edge_avg_mean);
    json.key("edge_avg_sd").value(p.edge_avg_sd);
    json.key("edge_time_mean").value(p.edge_time.mean);
    json.key("edge_time_max").value(static_cast<std::uint64_t>(p.edge_time.max));
    json.key("edge_quantiles").begin_array();
    for (std::size_t r : p.edge_time.quantiles) json.value(static_cast<std::uint64_t>(r));
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

ScenarioSpec scenario_from_json(const support::JsonValue& value) {
  ScenarioSpec spec;
  spec.family.family = value.at("family").as_string();
  spec.family.params.clear();
  for (const auto& [name, param] : value.at("family_params").members()) {
    spec.family.params.emplace_back(name, param.as_double());
  }
  spec.algorithm = value.at("algorithm").as_string();
  // The engine key is optional (the registry knows each algorithm's
  // engine); leave it empty and let resolve_scenario fill it in.
  const support::JsonValue* engine = value.find("engine");
  spec.engine = engine == nullptr ? "" : engine->as_string();
  spec.ns.clear();
  const support::JsonValue& ns = value.at("ns");
  for (std::size_t i = 0; i < ns.size(); ++i) spec.ns.push_back(ns[i].as_u64());
  spec.semantics = semantics_from_name(value.at("semantics").as_string());
  spec.seed = value.at("seed").as_u64();
  const support::JsonValue& schedule = value.at("schedule");
  spec.schedule.max_trials = schedule.at("max_trials").as_u64();
  spec.schedule.min_trials = schedule.at("min_trials").as_u64();
  spec.schedule.batch = schedule.at("batch").as_u64();
  spec.schedule.target_half_width = schedule.at("target_half_width").as_double();
  spec.schedule.z = schedule.at("z").as_double();
  spec.quantile_probs.clear();
  const support::JsonValue& probs = value.at("quantile_probs");
  for (std::size_t i = 0; i < probs.size(); ++i) spec.quantile_probs.push_back(probs[i].as_double());
  spec.node_profile = value.at("node_profile").as_bool();
  return spec;
}

ScenarioSession::ScenarioSession(ResolvedScenario resolved, const ScenarioExecution& execution)
    : resolved_(std::move(resolved)),
      backend_(resolved_.make_backend()),
      pool_(session_options(resolved_, execution)),
      driver_(*backend_, session_options(resolved_, execution), pool_.get()),
      points_(resolved_.spec.ns.size()) {}

PointAccumulator ScenarioSession::run_trials(std::size_t point, std::size_t trial_begin,
                                             std::size_t trial_end) {
  AVGLOCAL_EXPECTS(point < points_.size());
  std::unique_ptr<PreparedPoint>& prepared = points_[point];
  if (prepared == nullptr) {
    const std::size_t n = resolved_.spec.ns[point];
    auto built = std::make_unique<PreparedPoint>(resolved_.graphs(n));
    AVGLOCAL_REQUIRE_MSG(built->graph.vertex_count() == n, "graph factory size mismatch");
    built->point = driver_.prepare(built->graph, point);
    prepared = std::move(built);
  }
  return driver_.run_trials(prepared->point, trial_begin, trial_end);
}

ScenarioResult run_scenario(const ScenarioSpec& spec, const ScenarioExecution& execution) {
  const ResolvedScenario resolved = resolve_scenario(spec);
  const TrialSchedule& schedule = resolved.spec.schedule;

  ScenarioResult result;
  result.spec = resolved.spec;
  result.points.reserve(resolved.spec.ns.size());
  for (std::size_t index = 0; index < resolved.spec.ns.size(); ++index) {
    // A session per point: every adaptive round reuses its prepared point,
    // and a finished point's graph and engines are freed before the next
    // point's are built, so peak memory is the largest point's, not the sum.
    ScenarioSession session(resolved, execution);
    const std::size_t first =
        schedule.adaptive() ? std::min(schedule.min_trials, schedule.max_trials)
                            : schedule.max_trials;
    PointAccumulator acc = session.run_trials(index, 0, first);

    bool converged = !schedule.adaptive();
    while (schedule.adaptive()) {
      const std::size_t trials = acc.trial_count();
      if (schedule.half_width(partial_avg_sd(acc), trials) <= schedule.target_half_width) {
        converged = true;
        break;
      }
      if (trials >= schedule.max_trials) break;
      const std::size_t next = std::min(trials + schedule.batch, schedule.max_trials);
      acc.append(session.run_trials(index, trials, next));
    }
    result.points.push_back(resolved.finish_point(acc, converged));
  }
  return result;
}

}  // namespace avglocal::core
