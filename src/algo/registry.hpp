// String-keyed registry of every bundled LOCAL algorithm.
//
// Replaces the factory dispatch that was duplicated (and drifting) across
// avglocal_cli, the experiment suite and the bench binaries: each entry
// names an algorithm, documents its topology contract, builds its factory
// for the size-n member of a family (schedule-driven algorithms like
// Cole-Vishkin parameterise on n), knows how to validate outputs, and
// surfaces the view-engine capability hooks (ids_only_view, min_radius) so
// tools can report which execution mode a sweep will take without running
// one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "local/engine.hpp"
#include "local/view_engine.hpp"

namespace avglocal::algo {

enum class AlgorithmKind {
  kView,     ///< ball formulation; sweeps run through run_views_batched
  kMessage,  ///< synchronous message passing; sweeps run through MessageBatchRunner
};

/// Output validator: true iff the outputs solve the algorithm's problem on
/// (g, ids). Null when no checker applies.
using OutputValidator = std::function<bool(const graph::Graph& g, const graph::IdAssignment& ids,
                                           const std::vector<std::int64_t>& outputs)>;

struct AlgorithmInfo {
  std::string name;
  std::string description;
  AlgorithmKind kind = AlgorithmKind::kView;
  /// Topology contract, free-form ("oriented cycles", "any connected
  /// graph"). Documentation, not enforcement: the registry makes every
  /// combination reachable and lets validators catch wrong pairings.
  std::string constraint;
  /// kind == kView: factory for the size-n member.
  std::function<local::ViewAlgorithmFactory(std::size_t n)> view;
  /// kind == kMessage: factory plus the knowledge the engine must grant.
  std::function<local::AlgorithmFactory(std::size_t n)> messages;
  local::Knowledge knowledge = local::Knowledge::kUnknownN;
  OutputValidator validate;
};

/// Capability hooks of a view algorithm at size n, probed from one
/// instance: which batched-engine mode it takes and the radius skip bound.
struct ViewCapabilities {
  bool ids_only_view = false;
  std::size_t min_radius = 0;
};

class AlgorithmRegistry {
 public:
  static const AlgorithmRegistry& global();

  const AlgorithmInfo* find(std::string_view name) const noexcept;

  /// Like find, but throws std::invalid_argument naming the known
  /// algorithms.
  const AlgorithmInfo& at(std::string_view name) const;

  /// Registry keys of one kind, in registration order.
  std::vector<std::string> names(AlgorithmKind kind) const;

  /// Probes one instance of a view algorithm (throws on message entries).
  static ViewCapabilities probe(const AlgorithmInfo& info, std::size_t n);

  void register_algorithm(AlgorithmInfo info);

 private:
  std::vector<AlgorithmInfo> algorithms_;
};

}  // namespace avglocal::algo
