// The experiment suite: every "table/figure" of the reproduction (E1..E14),
// runnable at full scale (`avglocal_cli experiments`) or at smoke-test
// scale.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "support/table.hpp"

namespace avglocal::core {

/// Output of one experiment: a title, one or more rendered tables, and
/// free-form notes (expected shapes, caveats).
struct ExperimentResult {
  std::string id;
  std::string title;
  std::vector<std::pair<std::string, support::Table>> tables;
  std::vector<std::string> notes;
};

/// Scale knob: 1.0 = the defaults `avglocal_cli experiments` prints; smoke tests
/// run ~0.1 to finish fast. Affects sizes and trial counts, never semantics.
struct ExperimentScale {
  double factor = 1.0;

  /// Scales a size, keeping at least `min_value`.
  std::size_t at_least(std::size_t value, std::size_t min_value) const;
};

ExperimentResult experiment_recurrence_table(const ExperimentScale& scale);      // E1
ExperimentResult experiment_largest_id_gap(const ExperimentScale& scale);        // E2
ExperimentResult experiment_colouring_logstar(const ExperimentScale& scale);     // E3
ExperimentResult experiment_neighbourhood_chi(const ExperimentScale& scale);     // E4
ExperimentResult experiment_adversaries(const ExperimentScale& scale);           // E5
ExperimentResult experiment_exact_small_n(const ExperimentScale& scale);         // E6
ExperimentResult experiment_dynamic_update(const ExperimentScale& scale);        // E7
ExperimentResult experiment_parallel_makespan(const ExperimentScale& scale);     // E8
ExperimentResult experiment_engine_agreement(const ExperimentScale& scale);      // E9
ExperimentResult experiment_general_graphs(const ExperimentScale& scale);        // E10
ExperimentResult experiment_expected_complexity(const ExperimentScale& scale);   // E11
ExperimentResult experiment_greedy_colouring(const ExperimentScale& scale);      // E12
ExperimentResult experiment_topology_matrix(const ExperimentScale& scale);       // E13
ExperimentResult experiment_message_vs_view(const ExperimentScale& scale);       // E14

/// All experiments in E-order, E1..E14.
std::vector<std::function<ExperimentResult(const ExperimentScale&)>> all_experiments();

/// Renders an ExperimentResult to markdown.
std::string render(const ExperimentResult& result);

}  // namespace avglocal::core
