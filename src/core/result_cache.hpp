// The content-addressed result cache behind sweep-as-a-service: resident
// engines plus memoised exact-integer partials, so repeated and extended
// sweep requests pay only for trials nobody has run yet.
//
// Identity and the extension trick. A workload's cache key is
// scenario_cache_key(resolved spec) - the canonical scenario block minus
// the trial schedule. Everything inside the key changes what a trial
// computes; the schedule only changes how many trials are requested. Each
// cache entry therefore holds, per sweep point, one PointAccumulator
// covering trials [0, E): exact integers, so a request for T > E trials
// runs only [E, T) through the entry's resident SweepDriver::Point and
// appends - and the PointAccumulator::append contract (core/
// batched_sweep.hpp) makes the result bit-identical to a monolithic
// T-trial sweep. Floats appear only at finalize_point, in global trial
// order, exactly like every other execution topology.
//
// What stays resident. An entry is one ScenarioSession (core/scenario.hpp):
// each point's graph and engines are built the first time the point runs
// and kept across requests, so later misses skip graph construction and
// engine setup. Points are reported through the request's finish_point.
// Finalized report documents are additionally memoised per full schedule
// (the schedule appears in the report bytes), making an exact repeat a
// pure string copy: zero sweep trials, zero finalize work.
//
// Fixed schedules only. Adaptive schedules decide their own trial count
// from convergence checks at schedule-dependent boundaries; two adaptive
// requests with different min_trials/batch can legitimately stop at
// different T, so "extend the cached partial" has no canonical meaning.
// sweep() rejects them with std::invalid_argument; run them through
// run_scenario.
//
// Thread safety: sweep()/offer_partials()/stats() are safe
// to call from any thread, and requests run concurrently. The cache's
// mutex guards only the entry map and the stats; each entry has its own,
// held while that entry is served, so requests for one identity queue
// behind each other while other identities compute beside them on the
// shared worker pool (which takes concurrent jobs).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/scenario.hpp"
#include "support/thread_pool.hpp"

namespace avglocal::core {

/// Execution knobs for the cache's owned worker pool. Like
/// ScenarioExecution these never change results, only speed.
struct ResultCacheOptions {
  /// Worker threads for the shared sweep pool; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// BatchedSweepOptions::batch_size for cache-run sweeps (memory bound).
  std::size_t batch_size = 0;
};

/// Monotone counters over the cache's lifetime (reported by the daemon's
/// `stats` op and asserted by tests).
struct ResultCacheStats {
  std::uint64_t requests = 0;        ///< sweep() calls that resolved
  std::uint64_t full_hits = 0;       ///< served with zero sweep trials
  std::uint64_t extensions = 0;      ///< cached partial + fresh tail
  std::uint64_t misses = 0;          ///< all requested trials computed
  std::uint64_t trials_computed = 0; ///< sweep trials run, summed over points
  std::uint64_t entries = 0;         ///< resident workload entries
};

/// One served request: the report document plus how it was produced.
struct ResultCacheOutcome {
  std::string report;  ///< sweep report JSON, byte-identical to run_scenario's
  std::string key;     ///< scenario_cache_key of the resolved workload
  /// Sweep trials actually computed for this request, summed over points
  /// (0 for a warm hit; (T - E) * points for an extension).
  std::uint64_t trials_computed = 0;
  bool warm = false;   ///< true iff trials_computed == 0
};

class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options = {});
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;
  ~ResultCache();

  /// Serves one sweep request: resolves the spec, locates (or creates) the
  /// workload entry, computes exactly the trials the cache is missing and
  /// returns the finalized report - byte-identical to what run_scenario +
  /// sweep_report_json produce for the same spec. Throws
  /// std::invalid_argument for unresolvable specs and adaptive schedules.
  ResultCacheOutcome sweep(const ScenarioSpec& spec);

  /// Offers externally computed exact-integer partials (one accumulator
  /// per sweep point, each covering trials [0, E) of the spec's canonical
  /// trial stream - e.g. a fabric run's merged unit results) to the
  /// workload's resident entry. Kept iff they cover more trials than
  /// what's cached; returns whether they were. A later sweep() for the
  /// same identity is then served from them exactly like locally computed
  /// partials. Partials failing matches_partial for trials [0, E) are
  /// rejected (returns false) rather than trusted.
  bool offer_partials(const ScenarioSpec& spec, std::vector<PointAccumulator> partials);

  ResultCacheStats stats() const;

 private:
  struct Entry;

  enum class Served { kHit, kExtension, kMiss };

  /// The entry for `key`, created if absent (`created` says whether).
  /// Called with mutex_ held.
  std::shared_ptr<Entry> entry_for(const std::string& key, const ResolvedScenario& resolved,
                                   bool& created);
  /// sweep()'s work once the entry exists: memo lookup, the missing
  /// trials, finalize. Called with the entry's mutex held, not mutex_.
  Served serve_locked(Entry& entry, const ResolvedScenario& request, ResultCacheOutcome& outcome);

  ResultCacheOptions options_;
  std::unique_ptr<support::ThreadPool> pool_;
  // Ordered map: lint forbids unordered iteration, and entry counts are
  // tiny (one per distinct workload) - lookup cost is irrelevant next to
  // a single trial. Shared: a request keeps its entry alive even if a
  // failing request erases it from the map meanwhile.
  mutable std::mutex mutex_;  // guards entries_ and stats_
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  ResultCacheStats stats_;
};

}  // namespace avglocal::core
