// The fabric's driver seam: RemoteBackend sits where a ScenarioSession
// sits for local execution, but fills its accumulators from fabric workers
// instead of a thread pool. It owns one FabricCoordinator, runs the
// coordinator's accept loop to completion, recombines the accepted unit
// results through merge_unit_results (unit-id order per point - canonical
// trial order by construction) and reports each point through
// ResolvedScenario::finish_point, the definition run_scenario uses too, so
// the report it emits is byte-identical to the monolithic sweep's for any
// worker count, steal order or straggler kill.
//
// Cache integration: pass a ResultCache to run() and the merged exact-
// integer partials are offered to the resident cache under the sweep's
// identity - a later `sweep` request for the same workload (same or fewer
// trials; extensions compute only the tail) is served warm, exactly as if
// the trials had been computed locally.
#pragma once

#include <string>

#include "core/fabric.hpp"
#include "core/result_cache.hpp"
#include "core/scenario.hpp"

namespace avglocal::core {

/// One fabric-driven sweep: the finalized result plus how it was produced.
struct RemoteSweepOutcome {
  ScenarioResult result;  ///< canonical spec + finalized points
  std::string report;     ///< sweep report JSON, byte-identical to run_scenario's
  FabricStats stats;
  /// False when the run was stopped (SIGTERM drain) before every unit was
  /// accepted - result/report are empty then.
  bool complete = false;
};

class RemoteBackend {
 public:
  /// Resolves the spec (throws std::invalid_argument like run_scenario;
  /// adaptive schedules are rejected - the fabric pre-plans trial ranges).
  RemoteBackend(const ScenarioSpec& spec, const FabricOptions& options);

  /// Binds the coordinator's listener; endpoint() is resolved after this.
  void start();

  const support::Endpoint& endpoint() const noexcept { return coordinator_.endpoint(); }
  FabricCoordinator& coordinator() noexcept { return coordinator_; }

  /// Async-signal-safe stop request, forwarded to the coordinator.
  void request_stop() noexcept { coordinator_.request_stop(); }

  /// Runs the coordinator until the sweep completes (or a stop drains it),
  /// merges and finalizes. With a non-null `cache`, complete runs also
  /// land their merged partials in the resident cache.
  RemoteSweepOutcome run(ResultCache* cache = nullptr);

 private:
  ResolvedScenario resolved_;
  FabricCoordinator coordinator_;
};

}  // namespace avglocal::core
