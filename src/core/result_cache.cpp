#include "core/result_cache.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace avglocal::core {

/// Everything resident for one workload identity.
struct ResultCache::Entry {
  Entry(const ResolvedScenario& resolved, const ScenarioExecution& execution)
      : session(resolved, execution) {}

  /// Engines kept across requests. Its scenario is the creating request's;
  /// only identity fields of it matter, so any schedule is served right.
  ScenarioSession session;
  /// Exact-integer partials covering trials [0, E) per point. E only ever
  /// grows (via PointAccumulator::append), so everything served from here
  /// is a prefix of the one canonical trial stream.
  std::vector<PointAccumulator> partials;
  /// Finalized report bytes keyed by the full canonical scenario JSON
  /// (identity plus schedule - the schedule appears in the report, so two
  /// schedules over one identity memoise separately).
  std::map<std::string, std::string> reports;
};

ResultCache::ResultCache(const ResultCacheOptions& options)
    : options_(options), pool_(std::make_unique<support::ThreadPool>(options.threads)) {}

ResultCache::~ResultCache() = default;

ResultCache::Entry& ResultCache::entry_for(const std::string& key,
                                           const ResolvedScenario& resolved) {
  const auto found = entries_.find(key);
  if (found != entries_.end()) return *found->second;
  const ScenarioExecution execution{options_.threads, options_.batch_size, pool_.get()};
  auto entry = std::make_unique<Entry>(resolved, execution);
  Entry& ref = *entry;
  entries_.emplace(key, std::move(entry));
  return ref;
}

ResultCacheOutcome ResultCache::sweep(const ScenarioSpec& spec) {
  // The request's resolved scenario - the entry may have been created by a
  // request with a different schedule, so the report and the half-width
  // must come from this one.
  const ResolvedScenario resolved = resolve_scenario(spec);
  if (resolved.spec.schedule.adaptive()) {
    throw std::invalid_argument(
        "result cache: adaptive schedules are not cacheable (their trial count "
        "depends on schedule-specific convergence checks); run them through "
        "run_scenario or request a fixed trial count");
  }

  ResultCacheOutcome outcome;
  outcome.key = scenario_cache_key(resolved.spec);

  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.requests;
  const bool created = entries_.find(outcome.key) == entries_.end();
  Entry& entry = entry_for(outcome.key, resolved);
  try {
    serve_locked(entry, resolved, outcome);
  } catch (...) {
    // A failed request leaves no residue: an entry it created holds no
    // partials anyone could be served from, only resident engines.
    if (created) entries_.erase(outcome.key);
    stats_.entries = entries_.size();
    throw;
  }
  stats_.entries = entries_.size();
  return outcome;
}

void ResultCache::serve_locked(Entry& entry, const ResolvedScenario& request,
                               ResultCacheOutcome& outcome) {
  const std::size_t requested = request.spec.schedule.max_trials;
  const std::string memo_key = scenario_to_json(request.spec);
  const auto memo = entry.reports.find(memo_key);
  if (memo != entry.reports.end()) {
    ++stats_.full_hits;
    outcome.report = memo->second;
    outcome.warm = true;
    return;
  }

  const std::size_t cached_before =
      entry.partials.empty() ? 0 : entry.partials.front().trial_count();

  std::vector<ScenarioPoint> points;
  points.reserve(request.spec.ns.size());
  std::uint64_t computed = 0;
  for (std::size_t index = 0; index < request.spec.ns.size(); ++index) {
    if (index >= entry.partials.size()) {
      // Nothing cached for this point yet: run the full range and keep it.
      entry.partials.push_back(entry.session.run_trials(index, 0, requested));
      computed += requested;
    } else if (entry.partials[index].trial_count() < requested) {
      // The heart of the cache: compute only the missing tail and extend
      // the exact-integer partial. append() verifies the ranges abut, so
      // the result is bit-identical to a monolithic `requested`-trial run.
      const std::size_t have = entry.partials[index].trial_count();
      entry.partials[index].append(entry.session.run_trials(index, have, requested));
      computed += requested - have;
    }

    // Fixed schedules always run to their count, hence converged.
    if (entry.partials[index].trial_count() == requested) {
      points.push_back(request.finish_point(entry.partials[index], /*converged=*/true));
    } else {
      // Cached range is longer than the request. The aggregated fields
      // (histograms, node sums) cannot be truncated, so recompute [0,
      // requested) on the resident prepared point - the cached partial
      // stays untouched for future longer requests.
      const PointAccumulator fresh = entry.session.run_trials(index, 0, requested);
      points.push_back(request.finish_point(fresh, /*converged=*/true));
      computed += requested;
    }
  }

  if (computed == 0) {
    ++stats_.full_hits;
  } else if (cached_before == 0 || cached_before >= requested) {
    ++stats_.misses;
  } else {
    ++stats_.extensions;
  }
  stats_.trials_computed += computed;

  outcome.report = sweep_report_json(request.spec, points);
  outcome.trials_computed = computed;
  outcome.warm = computed == 0;
  entry.reports.emplace(memo_key, outcome.report);
}

bool ResultCache::offer_partials(const ScenarioSpec& spec,
                                 std::vector<PointAccumulator> partials) {
  const ResolvedScenario resolved = resolve_scenario(spec);
  if (resolved.spec.schedule.adaptive()) return false;

  // Checked before anything is trusted: one accumulator per point, all
  // covering the same non-empty range from trial 0 - the exact invariant
  // entry.partials maintains for locally computed trials.
  if (partials.size() != resolved.spec.ns.size()) return false;
  const std::size_t covered = partials.front().trial_count();
  if (covered == 0) return false;
  for (std::size_t index = 0; index < partials.size(); ++index) {
    if (!resolved.matches_partial(partials[index], index, 0, covered)) return false;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entry_for(scenario_cache_key(resolved.spec), resolved);
  stats_.entries = entries_.size();
  const std::size_t cached =
      entry.partials.empty() ? 0 : entry.partials.front().trial_count();
  if (covered <= cached) return false;  // nothing the cache doesn't have
  entry.partials = std::move(partials);
  return true;
}

ResultCacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultCache::entry_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace avglocal::core
