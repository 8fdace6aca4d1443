// Scenario construction shared by the workloads. Every spec is generated
// from the benchmark seed; the program under test only ever sees the specs.
#pragma once

#include <cstdint>
#include <string>

#include "core/scenario.hpp"
#include "graph/family_registry.hpp"

namespace perfbench {

inline avglocal::core::ScenarioSpec make_spec(const std::string& family,
                                              const std::string& algorithm, std::size_t n,
                                              std::size_t trials, std::uint64_t seed,
                                              bool node_profile = false) {
  avglocal::core::ScenarioSpec spec;
  spec.family = avglocal::graph::parse_family_spec(family);
  spec.algorithm = algorithm;
  spec.ns = {n};
  spec.seed = seed;
  spec.schedule.max_trials = trials;
  spec.node_profile = node_profile;
  return spec;
}

/// The report bytes run_scenario produces for `spec`: the reference every
/// other path must reproduce. Always computed outside timed regions.
inline std::string reference_report(const avglocal::core::ScenarioSpec& spec,
                                    std::size_t threads) {
  avglocal::core::ScenarioExecution execution;
  execution.threads = threads;
  const avglocal::core::ScenarioResult result = avglocal::core::run_scenario(spec, execution);
  return avglocal::core::sweep_report_json(result.spec, result.points);
}

}  // namespace perfbench
