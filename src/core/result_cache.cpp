#include "core/result_cache.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/sweep_driver.hpp"
#include "graph/graph.hpp"
#include "support/assert.hpp"

namespace avglocal::core {

/// Everything resident for one workload identity. The members own each
/// other bottom-up and are declared in dependency order (graphs before
/// points: a prepared SweepDriver::Point pins its graph's address, and
/// `graphs` is never touched again after the points are prepared, so the
/// vector's element addresses stay put for the entry's lifetime).
struct ResultCache::Entry {
  ResolvedScenario resolved;  ///< from the request that created the entry
  std::unique_ptr<SweepBackend> backend;
  std::unique_ptr<SweepDriver> driver;
  std::vector<graph::Graph> graphs;
  std::vector<SweepDriver::Point> points;  ///< prepared state, one per size
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

ResultCache::Entry& ResultCache::entry_for(const std::string& key, ResolvedScenario&& resolved) {
  const auto found = entries_.find(key);
  if (found != entries_.end()) return *found->second;

  auto entry = std::make_unique<Entry>();
  entry->resolved = std::move(resolved);
  entry->backend = entry->resolved.make_backend();

  BatchedSweepOptions base = entry->resolved.sweep_options();
  base.threads = options_.threads;
  base.batch_size = options_.batch_size;
  base.pool = pool_.get();
  entry->driver = std::make_unique<SweepDriver>(*entry->backend, base, pool_.get());

  const std::vector<std::size_t>& ns = entry->resolved.spec.ns;
  entry->graphs.reserve(ns.size());
  for (const std::size_t n : ns) {
    entry->graphs.push_back(entry->resolved.graphs(n));
    AVGLOCAL_REQUIRE_MSG(entry->graphs.back().vertex_count() == n,
                         "graph factory size mismatch");
  }
  // All graphs built; from here their addresses are stable to pin.
  entry->points.reserve(ns.size());
  for (std::size_t index = 0; index < ns.size(); ++index) {
    entry->points.push_back(entry->driver->prepare(entry->graphs[index], index));
  }

  Entry& ref = *entry;
  entries_.emplace(key, std::move(entry));
  return ref;
}

ResultCacheOutcome ResultCache::sweep(const ScenarioSpec& spec) {
  ResolvedScenario resolved = resolve_scenario(spec);
  if (resolved.spec.schedule.adaptive()) {
    throw std::invalid_argument(
        "result cache: adaptive schedules are not cacheable (their trial count "
        "depends on schedule-specific convergence checks); run them through "
        "run_scenario or request a fixed trial count");
  }
  // The request's canonical spec - the entry may have been created by a
  // request with a different schedule, so the report and the half-width
  // must come from this one.
  const ScenarioSpec request_spec = resolved.spec;

  ResultCacheOutcome outcome;
  outcome.key = scenario_cache_key(request_spec);

  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.requests;
  const bool created = entries_.find(outcome.key) == entries_.end();
  Entry& entry = entry_for(outcome.key, std::move(resolved));
  try {
    serve_locked(entry, request_spec, outcome);
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

void ResultCache::serve_locked(Entry& entry, const ScenarioSpec& request_spec,
                               ResultCacheOutcome& outcome) {
  const TrialSchedule& schedule = request_spec.schedule;
  const std::size_t requested = schedule.max_trials;
  const std::string memo_key = scenario_to_json(request_spec);
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
  points.reserve(request_spec.ns.size());
  std::uint64_t computed = 0;
  for (std::size_t index = 0; index < request_spec.ns.size(); ++index) {
    if (index >= entry.partials.size()) {
      // Nothing cached for this point yet: run the full range and keep it.
      entry.partials.push_back(entry.driver->run_trials(entry.points[index], 0, requested));
      computed += requested;
    } else if (entry.partials[index].trial_count() < requested) {
      // The heart of the cache: compute only the missing tail and extend
      // the exact-integer partial. append() verifies the ranges abut, so
      // the result is bit-identical to a monolithic `requested`-trial run.
      const std::size_t have = entry.partials[index].trial_count();
      entry.partials[index].append(
          entry.driver->run_trials(entry.points[index], have, requested));
      computed += requested - have;
    }

    ScenarioPoint point;
    point.converged = true;  // fixed schedules always run to their count
    if (entry.partials[index].trial_count() == requested) {
      point.point =
          finalize_point(entry.partials[index], entry.resolved.sweep_options(requested));
    } else {
      // Cached range is longer than the request. The aggregated fields
      // (histograms, node sums) cannot be truncated, so recompute [0,
      // requested) on the resident prepared point - the cached partial
      // stays untouched for future longer requests.
      const PointAccumulator fresh =
          entry.driver->run_trials(entry.points[index], 0, requested);
      computed += requested;
      point.point = finalize_point(fresh, entry.resolved.sweep_options(requested));
    }
    point.half_width = schedule.half_width(point.point.avg_sd, requested);
    points.push_back(std::move(point));
  }

  if (computed == 0) {
    ++stats_.full_hits;
  } else if (cached_before == 0 || cached_before >= requested) {
    ++stats_.misses;
  } else {
    ++stats_.extensions;
  }
  stats_.trials_computed += computed;

  outcome.report = sweep_report_json(request_spec, points);
  outcome.trials_computed = computed;
  outcome.warm = computed == 0;
  entry.reports.emplace(memo_key, outcome.report);
}

bool ResultCache::offer_partials(const ScenarioSpec& spec,
                                 std::vector<PointAccumulator> partials) {
  ResolvedScenario resolved = resolve_scenario(spec);
  if (resolved.spec.schedule.adaptive()) return false;
  const std::string key = scenario_cache_key(resolved.spec);
  const std::vector<std::size_t> ns = resolved.spec.ns;

  // Shape check before anything is trusted: one accumulator per point,
  // each starting at trial 0, all covering the same range - the exact
  // invariant entry.partials maintains for locally computed trials.
  if (partials.size() != ns.size() || partials.empty()) return false;
  const std::size_t covered = partials.front().trial_count();
  if (covered == 0) return false;
  for (std::size_t index = 0; index < partials.size(); ++index) {
    if (partials[index].point_index != index || partials[index].n != ns[index] ||
        partials[index].trial_begin != 0 || partials[index].trial_count() != covered) {
      return false;
    }
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entry_for(key, std::move(resolved));
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
