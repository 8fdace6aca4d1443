// Workload `fabric-msg`: message-engine sweeps through the distributed
// fabric, a RemoteBackend coordinator on loopback TCP with three in-process
// single-threaded run_fabric_worker threads.
//
// Why it exists: the message engine, unit dispatch, shard-artefact round
// trips and the unit-order merge do the work; the view engine, the result
// cache and the daemon do none. It guards the "one distributed front door"
// and "one server skeleton" items. Scenarios:
//   * local3 on a cycle, n = 2^15, 24 trials in units of 2: every artefact
//     carries n node sums, so encode and parse do real work;
//   * largest-id-msg on a cycle, n = 256, 36 trials in units of 3: the
//     algorithm callback dominates (it allocates every round);
//   * greedy-msg on random-regular:degree=4, n = 8192, 48 trials in units
//     of 4.
// Trial counts are high enough that the cost of a pass barely depends on
// the seed (largest-id-msg's per-trial cost varies with the ids), and the
// unit counts divide evenly among the three workers.
// largest-id-msg runs on a cycle only: on other families it is a known
// resolve-time hole, and the benchmark measures the program, not its
// failure paths.
//
// Straggler re-dispatch is disabled (a 10-minute deadline), so every run
// grants exactly one unit per plan entry and fabric.units_granted repeats.
//
// Untraced: setup_s is RemoteBackend construction (resolve) and bind until
// all three workers have said hello; sweep_s runs from there (no unit
// starts earlier) to the final report bytes. Both are summed over the three scenarios of a pass, median
// over passes; peak_rss_mb is the process high-water mark over the first
// pass.
// Every report must equal run_scenario's bytes.
//
// Traced: the same pass drives FabricCoordinator, merge_unit_results,
// finalize_point and sweep_report_json itself (the calls RemoteBackend::run
// makes), with grant times from FabricWorkerOptions::on_grant. Afterwards
// the same unit ranges are replayed through SweepDriver::run_trials on one
// thread with the forwarding backend, and each replayed unit goes through
// shard_to_json / parse_shard_json; the replayed partials must equal what
// the workers delivered. perfbench_allocs runs the replay alone to count
// allocations.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/fabric.hpp"
#include "core/remote_backend.hpp"
#include "core/sweep_driver.hpp"
#include "scenarios.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace avglocal;

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kMinPasses = 5;
constexpr std::size_t kMaxPasses = 400;
constexpr std::uint64_t kReplay = 1u << 20;  // span id of the unit replay

struct FabricScenario {
  core::ScenarioSpec spec;
  std::size_t unit_trials = 0;
};

std::vector<FabricScenario> fabric_scenarios(const Options& options) {
  const bool toy = options.toy;
  return {
      {make_spec("cycle", "local3", toy ? 512 : 32768, toy ? 4 : 24,
                 scenario_seed(options.seed, 11)),
       2},
      {make_spec("cycle", "largest-id-msg", toy ? 64 : 256, toy ? 4 : 36,
                 scenario_seed(options.seed, 12)),
       toy ? 2u : 3u},
      {make_spec("random-regular:degree=4", "greedy-msg", toy ? 256 : 8192, toy ? 4 : 48,
                 scenario_seed(options.seed, 13)),
       toy ? 2u : 4u},
  };
}

core::FabricOptions fabric_options(std::size_t unit_trials) {
  core::FabricOptions options;
  options.endpoint = support::parse_endpoint("tcp:127.0.0.1:0");
  options.unit_trials = unit_trials;
  options.straggler_ms = 600000;
  options.max_workers = 2 * kWorkers;
  return options;
}

/// Three run_fabric_worker threads against one coordinator. Worker errors
/// are kept, never thrown across the thread boundary.
///
/// Start gate: a worker's first grant waits in FabricWorkerOptions::on_grant
/// until every worker has said hello. Without it, on small sweeps the first
/// worker can finish every unit before the last one connects, and the late
/// worker fails against a coordinator that has already shut down.
class WorkerGroup {
 public:
  struct Grant {
    std::size_t unit = 0;
    Clock::time_point at;
  };

  WorkerGroup(const support::Endpoint& endpoint, bool record_grants)
      : grants_(kWorkers), errors_(kWorkers), finished_(kWorkers) {
    for (std::size_t w = 0; w < kWorkers; ++w) {
      threads_.emplace_back([this, endpoint, record_grants, w] {
        try {
          core::FabricWorkerOptions options;
          options.endpoint = endpoint;
          options.name = "bench-worker-" + std::to_string(w);
          options.threads = 1;
          options.connect_timeout_ms = 10000;
          options.on_grant = [this, record_grants, w](const core::WorkUnit& unit) {
            while (!released_.load(std::memory_order_acquire)) {
              std::this_thread::sleep_for(std::chrono::microseconds(20));
            }
            if (record_grants) grants_[w].push_back({unit.id, Clock::now()});
          };
          core::run_fabric_worker(options);
        } catch (const std::exception& error) {
          errors_[w] = error.what();
        }
        finished_[w] = Clock::now();
        done_.fetch_add(1, std::memory_order_release);
      });
    }
  }
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;
  ~WorkerGroup() {
    released_.store(true, std::memory_order_release);
    join();
  }

  /// Blocks until every worker has said hello, then opens the start gate.
  /// False when the workers all gave up first (the gate opens anyway).
  bool start_after_hellos(const core::FabricCoordinator& coordinator) {
    bool all = true;
    while (coordinator.stats().workers_seen < kWorkers) {
      if (done_.load(std::memory_order_acquire) == kWorkers) {
        all = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    released_.store(true, std::memory_order_release);
    return all;
  }

  void join() {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }
  // Read only after join().
  const std::vector<std::vector<Grant>>& grants() const { return grants_; }
  const std::vector<std::string>& errors() const { return errors_; }
  Clock::time_point first_finished() const {
    return *std::min_element(finished_.begin(), finished_.end());
  }

 private:
  std::vector<std::vector<Grant>> grants_;
  std::vector<std::string> errors_;
  std::vector<Clock::time_point> finished_;
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> released_{false};
  std::vector<std::thread> threads_;  // last: the threads use the members above
};

void check_workers(Result& result, const WorkerGroup& workers, const std::string& algorithm) {
  for (const std::string& error : workers.errors()) {
    result.check(error.empty(), "fabric-msg: " + algorithm + " worker failed: " + error);
  }
}

Result fabric_untraced(const Options& options) {
  Result result;
  const std::vector<FabricScenario> scenarios = fabric_scenarios(options);
  std::vector<std::string> reference;
  for (const FabricScenario& s : scenarios) {
    reference.push_back(reference_report(s.spec, sweep_threads()));
  }

  std::vector<double> setups, sweeps, totals;
  double first_pass_peak = 0.0;
  std::size_t sweeps_done = 0;
  double wall = 0.0;
  reset_peak_rss();
  const Clock::time_point budget = Clock::now();
  while (keep_going(setups.size(), kMinPasses, kMaxPasses, budget, options)) {
    double setup = 0.0;
    double sweep = 0.0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const std::string& algorithm = scenarios[i].spec.algorithm;
      const Clock::time_point start = Clock::now();
      core::RemoteBackend remote(scenarios[i].spec, fabric_options(scenarios[i].unit_trials));
      remote.start();
      core::RemoteSweepOutcome outcome;
      std::string coordinator_error;
      WorkerGroup workers(remote.endpoint(), false);
      std::thread coordinator([&] {
        try {
          outcome = remote.run();
        } catch (const std::exception& error) {
          coordinator_error = error.what();
        }
      });
      const bool hellos = workers.start_after_hellos(remote.coordinator());
      const Clock::time_point ready = Clock::now();
      if (!hellos) remote.request_stop();
      coordinator.join();
      const Clock::time_point done = Clock::now();
      workers.join();

      setup += seconds_between(start, ready);
      sweep += seconds_between(ready, done);
      ++sweeps_done;
      check_workers(result, workers, algorithm);
      result.check(coordinator_error.empty() && outcome.complete,
                   "fabric-msg: " + algorithm + " sweep incomplete: " + coordinator_error);
      result.check(outcome.report == reference[i],
                   "fabric-msg: " + algorithm + " report differs from run_scenario");
      result.check(outcome.stats.redispatches == 0 && outcome.stats.duplicates_discarded == 0,
                   "fabric-msg: " + algorithm + " re-dispatched a unit on a healthy run");
    }
    setups.push_back(setup);
    sweeps.push_back(sweep);
    totals.push_back(setup + sweep);
    if (totals.size() == 1) first_pass_peak = peak_rss_mb();
    wall += setup + sweep;
  }

  result.add("setup_s", median(setups), "s");
  result.add("sweep_s", median(sweeps), "s");
  result.add("requests_per_s", static_cast<double>(sweeps_done) / wall, "1/s");
  result.add("peak_rss_mb", first_pass_peak, "MB");
  result.add("e2e_s", median(totals), "s");
  return result;
}

/// Per-pass fabric counters and timings of the traced run.
struct PassFabric {
  std::vector<double> grant_intervals_ms;
  double tail_s = 0.0;
  std::uint64_t granted = 0;
  std::uint64_t redispatches = 0;
  std::uint64_t accepted = 0;
  std::uint64_t duplicates = 0;
};

/// One traced fabric sweep. Returns the accepted unit results (for the
/// replay's comparison) through `units`.
std::string traced_sweep(Tracer& tracer, Result& result, const FabricScenario& scenario,
                         std::uint64_t id, PassFabric& fabric,
                         std::vector<std::optional<core::PointAccumulator>>& units) {
  core::ResolvedScenario resolved;
  {
    const ScopedSpan span(tracer, "scenario.resolve", id);
    resolved = core::resolve_scenario(scenario.spec);
  }
  core::FabricCoordinator coordinator(resolved, fabric_options(scenario.unit_trials));
  coordinator.start();
  std::string coordinator_error;
  WorkerGroup workers(coordinator.endpoint(), true);
  {
    const ScopedSpan span(tracer, "fabric.coordinate", id);
    std::thread thread([&] {
      try {
        coordinator.run();
      } catch (const std::exception& error) {
        coordinator_error = error.what();
      }
    });
    if (!workers.start_after_hellos(coordinator)) coordinator.request_stop();
    thread.join();
  }
  const std::string& algorithm = scenario.spec.algorithm;
  result.check(coordinator_error.empty() && coordinator.complete(),
               "fabric-msg (traced): " + algorithm + " sweep incomplete: " + coordinator_error);

  units = coordinator.take_unit_results();
  std::vector<std::optional<core::PointAccumulator>> to_merge = units;  // kept for the replay
  std::vector<core::PointAccumulator> merged;
  {
    const ScopedSpan span(tracer, "fabric.merge", id);
    merged = core::merge_unit_results(coordinator.work_units(), std::move(to_merge),
                                      resolved.spec.ns.size());
  }
  std::vector<core::ScenarioPoint> points;
  {
    const ScopedSpan span(tracer, "finalize", id);
    for (const core::PointAccumulator& acc : merged) {
      core::ScenarioPoint point;
      point.point = core::finalize_point(acc, resolved.sweep_options(acc.trial_count()));
      point.half_width = resolved.spec.schedule.half_width(point.point.avg_sd, acc.trial_count());
      points.push_back(std::move(point));
    }
  }
  std::string report;
  {
    const ScopedSpan span(tracer, "report.serialize", id);
    report = core::sweep_report_json(resolved.spec, points);
  }
  const Clock::time_point reported = Clock::now();
  workers.join();
  check_workers(result, workers, algorithm);

  fabric.tail_s += seconds_between(workers.first_finished(), reported);
  for (const auto& grants : workers.grants()) {
    for (std::size_t g = 1; g < grants.size(); ++g) {
      fabric.grant_intervals_ms.push_back(1e3 * seconds_between(grants[g - 1].at, grants[g].at));
    }
  }
  const core::FabricStats stats = coordinator.stats();
  fabric.granted += stats.units_granted;
  fabric.redispatches += stats.redispatches;
  fabric.accepted += stats.results_accepted;
  fabric.duplicates += stats.duplicates_discarded;
  return report;
}

/// The replay: each scenario's units through one single-threaded driver
/// with the forwarding backend, then through the shard codec.
void replay_units(Tracer& tracer, Result& result, const FabricScenario& scenario,
                  const std::vector<std::optional<core::PointAccumulator>>& delivered,
                  std::vector<double>& encode_ms, std::vector<double>& parse_ms,
                  std::vector<double>& shard_bytes) {
  const ScopedSpan replay(tracer, "fabric.replay", kReplay);
  const core::ResolvedScenario resolved = core::resolve_scenario(scenario.spec);
  const core::GraphFactory graphs = [&](std::size_t n) {
    const ScopedSpan span(tracer, "graph.build", kReplay);
    return resolved.graphs(n);
  };
  TracingBackend backend(resolved.make_backend(), tracer, scenario.spec.algorithm);
  const core::SweepDriver driver(backend, resolved.sweep_options(), nullptr);
  const graph::Graph g = graphs(resolved.spec.ns.front());
  core::SweepDriver::Point point;
  {
    const ScopedSpan span(tracer, "driver.prepare", kReplay);
    point = driver.prepare(g, 0);
  }
  const core::SweepPlanMeta meta = core::scenario_plan_meta(resolved);
  const std::vector<core::WorkUnit> units = core::plan_work_units(
      resolved.spec.ns.size(), resolved.spec.schedule.max_trials, scenario.unit_trials);
  for (const core::WorkUnit& unit : units) {
    core::ShardDocument doc;
    doc.meta = meta;
    doc.shard = core::SweepShard{unit.point, unit.point + 1, unit.trial_begin, unit.trial_end};
    {
      const ScopedSpan span(tracer, "driver.run_trials", kReplay);
      backend.set_context(span.index(), kReplay);
      doc.points.push_back(driver.run_trials(point, unit.trial_begin, unit.trial_end));
    }
    if (!delivered.empty()) {
      result.check(unit.id < delivered.size() && delivered[unit.id] == doc.points.front(),
                   "fabric-msg (traced): replayed unit " + std::to_string(unit.id) + " of " +
                       scenario.spec.algorithm + " differs from the worker's");
    }
    Clock::time_point start = Clock::now();
    const std::string text = core::shard_to_json(doc);
    encode_ms.push_back(1e3 * seconds_since(start));
    start = Clock::now();
    const core::ShardDocument parsed = core::parse_shard_json(text);
    parse_ms.push_back(1e3 * seconds_since(start));
    shard_bytes.push_back(static_cast<double>(text.size()));
    result.check(parsed == doc, "fabric-msg (traced): shard artefact does not round-trip");
  }
}

/// Allocation leg: the unit replay alone, counted by the hook.
Result fabric_allocs(const Options& options) {
  Result result;
  Tracer tracer;
  std::vector<double> encode_ms, parse_ms, shard_bytes;
  double trials = 0.0;
  for (const FabricScenario& scenario : fabric_scenarios(options)) {
    replay_units(tracer, result, scenario, {}, encode_ms, parse_ms, shard_bytes);
    trials += static_cast<double>(scenario.spec.schedule.max_trials);
  }
  add_alloc_metrics(result, tracer, "driver.run_trials", trials);
  return result;
}

Result fabric_traced(const Options& options) {
  Result result;
  const std::vector<FabricScenario> scenarios = fabric_scenarios(options);
  std::vector<std::string> reference;
  for (const FabricScenario& s : scenarios) {
    reference.push_back(reference_report(s.spec, sweep_threads()));
  }

  Tracer tracer;
  std::vector<PassFabric> passes;
  std::vector<double> report_bytes;
  std::vector<std::vector<std::optional<core::PointAccumulator>>> delivered(scenarios.size());
  const Clock::time_point budget = Clock::now();
  while (keep_going(passes.size(), 2, kMaxPasses, budget, options)) {
    const std::uint64_t id = passes.size();
    PassFabric fabric;
    double bytes = 0.0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      std::string report;
      {
        const ScopedSpan span(tracer, "pass", id);
        report = traced_sweep(tracer, result, scenarios[i], id, fabric, delivered[i]);
      }
      bytes += static_cast<double>(report.size());
      result.check(report == reference[i], "fabric-msg (traced): " + scenarios[i].spec.algorithm +
                                               " report differs from run_scenario");
    }
    passes.push_back(std::move(fabric));
    report_bytes.push_back(bytes);
  }

  std::vector<double> encode_ms, parse_ms, shard_bytes;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    replay_units(tracer, result, scenarios[i], delivered[i], encode_ms, parse_ms, shard_bytes);
  }

  const auto per_pass = [&](const std::map<std::uint64_t, double>& by_id) {
    std::vector<double> values;
    for (const auto& [id, value] : by_id) {
      if (id != kReplay) values.push_back(value);
    }
    return median(values);
  };
  const auto replayed = [&](const char* name, const char* label = nullptr) {
    const auto by_id = tracer.self_by_id(name, label);
    const auto found = by_id.find(kReplay);
    return found == by_id.end() ? 0.0 : found->second;
  };

  std::vector<double> intervals, tails;
  PassFabric totals;
  for (const PassFabric& pass : passes) {
    intervals.insert(intervals.end(), pass.grant_intervals_ms.begin(),
                     pass.grant_intervals_ms.end());
    tails.push_back(pass.tail_s);
    totals.accepted += pass.accepted;
    totals.duplicates += pass.duplicates;
  }

  LayerMetrics layers;
  layers.resolve_ms = 1e3 * per_pass(tracer.self_by_id("scenario.resolve"));
  layers.graph_build_s = replayed("graph.build");
  layers.prepare_s = replayed("backend.prepare");
  layers.run_batch_s = replayed("backend.run_batch");
  for (const FabricScenario& s : scenarios) {
    layers.run_batch_by_algorithm[s.spec.algorithm] =
        replayed("backend.run_batch", tracer.intern(s.spec.algorithm));
  }
  layers.busy_s = layers.run_batch_s;
  layers.driver_self_s = replayed("driver.run_trials") + replayed("driver.prepare");
  layers.finalize_ms = 1e3 * per_pass(tracer.self_by_id("finalize"));
  layers.serialize_ms = 1e3 * per_pass(tracer.self_by_id("report.serialize"));
  layers.report_bytes = median(report_bytes);
  layers.grant_interval_p50_ms = quantile(intervals, 0.5);
  layers.grant_interval_p90_ms = quantile(intervals, 0.9);
  layers.unit_compute_ms = 1e3 * median(tracer.durations("driver.run_trials"));
  layers.unit_overhead_ms = layers.grant_interval_p50_ms - layers.unit_compute_ms;
  layers.shard_encode_ms = median(encode_ms);
  layers.shard_parse_ms = median(parse_ms);
  layers.shard_bytes = median(shard_bytes);
  layers.merge_ms = 1e3 * per_pass(tracer.self_by_id("fabric.merge"));
  layers.tail_s = median(tails);
  layers.units_granted = passes.front().granted;
  layers.redispatches = passes.front().redispatches;
  const double attempts = static_cast<double>(totals.accepted + totals.duplicates);
  layers.useful_ratio = attempts > 0.0 ? static_cast<double>(totals.accepted) / attempts : 0.0;
  layers.e2e_s = per_pass(tracer.total_by_id("pass"));
  add_layer_metrics(result, layers);
  for (const PassFabric& pass : passes) {
    result.check(pass.granted == passes.front().granted && pass.redispatches == 0,
                 "fabric-msg (traced): unit grants differ between passes");
  }
  tracer.write_json(options.workdir + "/spans-fabric-msg.jsonl");
  return result;
}

}  // namespace

Result run_fabric(const Options& options) {
  switch (options.mode) {
    case Mode::kTrace:
      return fabric_traced(options);
    case Mode::kAllocs:
      return fabric_allocs(options);
    case Mode::kEndToEnd:
      break;
  }
  return fabric_untraced(options);
}

}  // namespace perfbench
