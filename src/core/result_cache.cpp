#include "core/result_cache.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace avglocal::core {

/// Everything resident for one workload identity.
struct ResultCache::Entry {
  Entry(const ResolvedScenario& resolved, const ScenarioExecution& execution)
      : session(resolved, execution) {}

  /// Held while the entry is served or offered partials; guards every
  /// member below. Compute and finalize run under it, never under the
  /// cache's mutex, so other identities are served meanwhile.
  std::mutex mutex;
  /// Engines kept across requests. Its scenario is the creating request's;
  /// only identity fields of it matter, so any schedule is served right.
  ScenarioSession session;
  /// Exact-integer partials covering trials [0, E) per point: empty, or one
  /// per point. E only ever grows (via PointAccumulator::append), so
  /// everything served from here is a prefix of the one canonical trial
  /// stream.
  std::vector<PointAccumulator> partials;
  /// Finalized report bytes keyed by the full canonical scenario JSON
  /// (identity plus schedule - the schedule appears in the report, so two
  /// schedules over one identity memoise separately).
  std::map<std::string, std::string> reports;
};

ResultCache::ResultCache(const ResultCacheOptions& options)
    : options_(options), pool_(std::make_unique<support::ThreadPool>(options.threads)) {}

ResultCache::~ResultCache() = default;

std::shared_ptr<ResultCache::Entry> ResultCache::entry_for(const std::string& key,
                                                           const ResolvedScenario& resolved,
                                                           bool& created) {
  const auto found = entries_.find(key);
  created = found == entries_.end();
  if (!created) return found->second;
  const ScenarioExecution execution{options_.threads, options_.batch_size, pool_.get()};
  auto entry = std::make_shared<Entry>(resolved, execution);
  entries_.emplace(key, entry);
  stats_.entries = entries_.size();
  return entry;
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

  bool created = false;
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
    entry = entry_for(outcome.key, resolved, created);
  }

  Served served = Served::kHit;
  {
    const std::lock_guard<std::mutex> entry_lock(entry->mutex);
    try {
      served = serve_locked(*entry, resolved, outcome);
    } catch (...) {
      // A failed request leaves no residue: it commits no partials, and an
      // entry it created goes unless a request that reached it first has
      // filled it. A same-identity request still waiting holds its own
      // reference, so dropping the map's is safe.
      if (created && entry->partials.empty()) {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto found = entries_.find(outcome.key);
        if (found != entries_.end() && found->second == entry) entries_.erase(found);
        stats_.entries = entries_.size();
      }
      throw;
    }
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  switch (served) {
    case Served::kHit: ++stats_.full_hits; break;
    case Served::kExtension: ++stats_.extensions; break;
    case Served::kMiss: ++stats_.misses; break;
  }
  stats_.trials_computed += outcome.trials_computed;
  return outcome;
}

ResultCache::Served ResultCache::serve_locked(Entry& entry, const ResolvedScenario& request,
                                              ResultCacheOutcome& outcome) {
  const std::size_t requested = request.spec.schedule.max_trials;
  const std::string memo_key = scenario_to_json(request.spec);
  const auto memo = entry.reports.find(memo_key);
  if (memo != entry.reports.end()) {
    outcome.report = memo->second;
    outcome.warm = true;
    return Served::kHit;
  }

  const std::size_t point_count = request.spec.ns.size();
  const std::size_t cached = entry.partials.empty() ? 0 : entry.partials.front().trial_count();

  // Compute everything first and commit after, so a request that throws
  // midway leaves the entry's partials as they were.
  std::vector<PointAccumulator> fresh(point_count);
  std::uint64_t computed = 0;
  if (cached != requested) {
    // Fewer cached trials: the heart of the cache - compute only the
    // missing tail; append() verifies the ranges abut, so the result is
    // bit-identical to a monolithic `requested`-trial run. More cached
    // trials: the aggregated fields (histograms, node sums) cannot be
    // truncated, so [0, requested) is recomputed on the resident prepared
    // point and the cached partial stays for future longer requests.
    const std::size_t begin = cached < requested ? cached : 0;
    for (std::size_t index = 0; index < point_count; ++index) {
      fresh[index] = entry.session.run_trials(index, begin, requested);
    }
    computed = (requested - begin) * point_count;
  }

  if (cached == 0) {
    entry.partials = std::move(fresh);
  } else if (cached < requested) {
    for (std::size_t index = 0; index < point_count; ++index) {
      entry.partials[index].append(std::move(fresh[index]));
    }
  }
  const std::vector<PointAccumulator>& finished = cached > requested ? fresh : entry.partials;
  std::vector<ScenarioPoint> points;
  points.reserve(point_count);
  for (const PointAccumulator& acc : finished) {
    // Fixed schedules always run to their count, hence converged.
    points.push_back(request.finish_point(acc, /*converged=*/true));
  }

  outcome.report = sweep_report_json(request.spec, points);
  outcome.trials_computed = computed;
  outcome.warm = computed == 0;
  entry.reports.emplace(memo_key, outcome.report);
  if (computed == 0) return Served::kHit;
  return cached == 0 || cached >= requested ? Served::kMiss : Served::kExtension;
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

  bool created = false;
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entry = entry_for(scenario_cache_key(resolved.spec), resolved, created);
  }
  const std::lock_guard<std::mutex> entry_lock(entry->mutex);
  const std::size_t cached =
      entry->partials.empty() ? 0 : entry->partials.front().trial_count();
  if (covered <= cached) return false;  // nothing the cache doesn't have
  entry->partials = std::move(partials);
  return true;
}

ResultCacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace avglocal::core
