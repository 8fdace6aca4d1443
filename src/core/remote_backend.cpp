#include "core/remote_backend.hpp"

#include <utility>
#include <vector>

namespace avglocal::core {

RemoteBackend::RemoteBackend(const ScenarioSpec& spec, const FabricOptions& options)
    : resolved_(resolve_scenario(spec)), coordinator_(resolved_, options) {}

void RemoteBackend::start() { coordinator_.start(); }

RemoteSweepOutcome RemoteBackend::run(ResultCache* cache) {
  coordinator_.run();

  RemoteSweepOutcome outcome;
  outcome.stats = coordinator_.stats();
  outcome.complete = coordinator_.complete();
  if (!outcome.complete) return outcome;  // drained before the last unit

  std::vector<PointAccumulator> merged = merge_unit_results(
      coordinator_.work_units(), coordinator_.take_unit_results(), resolved_.spec.ns.size());

  outcome.result.spec = resolved_.spec;
  outcome.result.points.reserve(merged.size());
  for (const PointAccumulator& acc : merged) {
    outcome.result.points.push_back(resolved_.finish_point(acc, /*converged=*/true));
  }
  outcome.report = sweep_report_json(outcome.result.spec, outcome.result.points);

  if (cache != nullptr) {
    // Remote-computed partials are as good as local ones: land them in
    // the resident cache so follow-up requests for this workload are warm.
    cache->offer_partials(resolved_.spec, std::move(merged));
  }
  return outcome;
}

}  // namespace avglocal::core
