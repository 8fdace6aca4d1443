// Workload `views`: monolithic view-engine sweeps through run_scenario.
//
// Why it exists: the view engine and SweepDriver do almost all the work
// here (run_batch is the bulk of run_trials); the message engine, the
// result cache, sockets and the fabric do none. It is the workload for the
// "one parallel strategy" item: view sweeps run vertex-parallel at
// min(4, nproc) threads, and driver.speedup shows how far that scales.
// Scenarios (16 trials each):
//   * largest-id on a cycle, n = 2^18: the ids-only sequential mode with a
//     working set well beyond L2;
//   * cv3 on a cycle, n = 2^18: the lockstep transpose/gather mode;
//   * greedy on a torus, n = 40 000: a general graph whose balls fit in
//     cache.
// All three resolve cleanly (no ring-only algorithm on a non-ring).
//
// Untraced: setup_s is resolve + graph build + backend creation + driver
// and backend prepare for all three scenarios (median of several set-ups);
// sweep_s is one pass of the three user calls, run_scenario plus
// sweep_report_json (median over passes); every report must equal the one
// the set-up's driver produces with half-width batches. peak_rss_mb is the
// process high-water mark over the first pass.
//
// Traced: the same calls run_scenario makes, one by one, with spans around
// each and the engine wrapped in TracingBackend; every report must equal
// run_scenario's bytes. A one-thread leg of the same problem gives
// driver.serial_sweep_s and driver.speedup; perfbench_allocs runs that leg
// alone to count allocations.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/sweep_driver.hpp"
#include "scenarios.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace avglocal;

constexpr std::size_t kSetupReps = 15;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 200;
constexpr std::uint64_t kSerialLeg = 1u << 20;  // span id of the one-thread leg

std::vector<core::ScenarioSpec> views_scenarios(const Options& options) {
  const std::size_t trials = options.toy ? 4 : 16;
  return {
      make_spec("cycle", "largest-id", options.toy ? 4096 : 262144, trials,
                scenario_seed(options.seed, 1)),
      make_spec("cycle", "cv3", options.toy ? 4096 : 262144, trials,
                scenario_seed(options.seed, 2)),
      make_spec("torus", "greedy", options.toy ? 1024 : 40000, trials,
                scenario_seed(options.seed, 3)),
  };
}

/// One scenario's set-up, kept alive for the reference run. The driver's
/// prepared point pins `graph`, so the struct never moves once built.
struct Prepared {
  explicit Prepared(const core::ScenarioSpec& spec)
      : resolved(core::resolve_scenario(spec)),
        graph(resolved.graphs(resolved.spec.ns.front())),
        backend(resolved.make_backend()) {}

  core::ResolvedScenario resolved;
  graph::Graph graph;
  std::unique_ptr<core::SweepBackend> backend;
  std::unique_ptr<core::SweepDriver> driver;
  core::SweepDriver::Point point;
};

std::unique_ptr<Prepared> set_up(const core::ScenarioSpec& spec, support::ThreadPool& pool) {
  auto prepared = std::make_unique<Prepared>(spec);
  core::BatchedSweepOptions base = prepared->resolved.sweep_options();
  base.pool = &pool;
  // Half-width batches: a different execution topology from run_scenario's
  // single batch, which must still give identical bytes.
  base.batch_size = std::max<std::size_t>(1, base.trials / 2);
  prepared->driver = std::make_unique<core::SweepDriver>(*prepared->backend, base, &pool);
  prepared->point = prepared->driver->prepare(prepared->graph, 0);
  // The engine's own prepare, timed as set-up; the driver builds its lane
  // state lazily on the first run_trials.
  prepared->backend->prepare(prepared->graph, 0);
  return prepared;
}

std::string report_of(Prepared& prepared) {
  const core::ResolvedScenario& resolved = prepared.resolved;
  const std::size_t trials = resolved.spec.schedule.max_trials;
  const core::PointAccumulator acc = prepared.driver->run_trials(prepared.point, 0, trials);
  core::ScenarioPoint point;
  point.point = core::finalize_point(acc, resolved.sweep_options(trials));
  point.half_width = resolved.spec.schedule.half_width(point.point.avg_sd, trials);
  return core::sweep_report_json(resolved.spec, {point});
}

Result views_untraced(const Options& options) {
  Result result;
  const std::vector<core::ScenarioSpec> specs = views_scenarios(options);
  support::ThreadPool pool(sweep_threads());

  std::vector<double> setup_samples;
  std::vector<std::unique_ptr<Prepared>> prepared;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    prepared.clear();
    const Clock::time_point start = Clock::now();
    for (const core::ScenarioSpec& spec : specs) prepared.push_back(set_up(spec, pool));
    setup_samples.push_back(seconds_since(start));
  }
  std::vector<std::string> reference;
  for (const auto& p : prepared) reference.push_back(report_of(*p));
  prepared.clear();

  core::ScenarioExecution execution;
  execution.threads = sweep_threads();
  std::vector<double> passes;
  double first_pass_peak = 0.0;
  std::size_t calls = 0;
  reset_peak_rss();
  const Clock::time_point budget = Clock::now();
  while (keep_going(passes.size(), kMinPasses, kMaxPasses, budget, options)) {
    double pass = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Clock::time_point start = Clock::now();
      const core::ScenarioResult run = core::run_scenario(specs[i], execution);
      const std::string report = core::sweep_report_json(run.spec, run.points);
      pass += seconds_since(start);
      ++calls;
      result.check(report == reference[i],
                   "views: " + specs[i].algorithm + " report differs from the reference");
    }
    passes.push_back(pass);
    if (passes.size() == 1) first_pass_peak = peak_rss_mb();
  }

  double total = 0.0;
  for (const double pass : passes) total += pass;
  result.add("setup_s", median(setup_samples), "s");
  result.add("sweep_s", median(passes), "s");
  result.add("requests_per_s", static_cast<double>(calls) / total, "1/s");
  result.add("peak_rss_mb", first_pass_peak, "MB");
  result.add("e2e_s", median(passes), "s");
  return result;
}

/// One-thread leg of a scenario: no pool, so its run_batch is the whole
/// serial sweep of the trials.
void serial_leg(Tracer& tracer, const core::ScenarioSpec& spec) {
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  const graph::Graph g = resolved.graphs(resolved.spec.ns.front());
  TracingBackend backend(resolved.make_backend(), tracer, spec.algorithm);
  const core::SweepDriver driver(backend, resolved.sweep_options(), nullptr);
  core::SweepDriver::Point point = driver.prepare(g, 0);
  const ScopedSpan span(tracer, "driver.serial_run_trials", kSerialLeg);
  backend.set_context(span.index(), kSerialLeg);
  driver.run_trials(point, 0, resolved.spec.schedule.max_trials);
}

/// Allocation leg: the serial legs alone, counted by the hook.
Result views_allocs(const Options& options) {
  Result result;
  Tracer tracer;
  double trials = 0.0;
  for (const core::ScenarioSpec& spec : views_scenarios(options)) {
    serial_leg(tracer, spec);
    trials += static_cast<double>(spec.schedule.max_trials);
    ++result.attempted;
  }
  add_alloc_metrics(result, tracer, "driver.serial_run_trials", trials);
  return result;
}

/// One traced user call: the steps of run_scenario, each in its own span.
/// Returns the report bytes.
std::string traced_call(Tracer& tracer, const core::ScenarioSpec& spec, std::uint64_t id,
                        support::ThreadPool* pool) {
  core::ResolvedScenario resolved;
  {
    const ScopedSpan span(tracer, "scenario.resolve", id);
    resolved = core::resolve_scenario(spec);
  }
  const core::GraphFactory graphs = [&](std::size_t n) {
    const ScopedSpan span(tracer, "graph.build", id);
    return resolved.graphs(n);
  };
  core::BatchedSweepOptions base = resolved.sweep_options();
  base.pool = pool;
  TracingBackend backend(resolved.make_backend(), tracer, spec.algorithm);
  const core::SweepDriver driver(backend, base, pool);
  const std::size_t trials = resolved.spec.schedule.max_trials;

  const graph::Graph g = graphs(resolved.spec.ns.front());
  core::SweepDriver::Point point;
  {
    const ScopedSpan span(tracer, "driver.prepare", id);
    point = driver.prepare(g, 0);
  }
  core::PointAccumulator acc;
  {
    const ScopedSpan span(tracer, "driver.run_trials", id);
    backend.set_context(span.index(), id);
    acc = driver.run_trials(point, 0, trials);
  }
  core::ScenarioPoint scenario_point;
  {
    const ScopedSpan span(tracer, "finalize", id);
    scenario_point.point = core::finalize_point(acc, resolved.sweep_options(trials));
    scenario_point.half_width =
        resolved.spec.schedule.half_width(scenario_point.point.avg_sd, trials);
  }
  const ScopedSpan span(tracer, "report.serialize", id);
  return core::sweep_report_json(resolved.spec, {scenario_point});
}

Result views_traced(const Options& options) {
  Result result;
  const std::vector<core::ScenarioSpec> specs = views_scenarios(options);
  std::vector<std::string> reference;
  for (const core::ScenarioSpec& spec : specs) {
    reference.push_back(reference_report(spec, sweep_threads()));
  }

  Tracer tracer;
  std::vector<double> report_bytes;
  std::size_t passes = 0;
  const Clock::time_point budget = Clock::now();
  while (keep_going(passes, 2, kMaxPasses, budget, options)) {
    double bytes = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::string report;
      {
        const ScopedSpan span(tracer, "pass", passes);
        // run_scenario sizes one pool per call; so does the traced call.
        support::ThreadPool pool(sweep_threads());
        report = traced_call(tracer, specs[i], passes, &pool);
      }
      bytes += static_cast<double>(report.size());
      result.check(report == reference[i],
                   "views (traced): " + specs[i].algorithm + " report differs from run_scenario");
    }
    report_bytes.push_back(bytes);
    ++passes;
  }

  for (const core::ScenarioSpec& spec : specs) serial_leg(tracer, spec);

  const auto per_pass = [&](const std::map<std::uint64_t, double>& by_id) {
    std::vector<double> values;
    for (const auto& [id, value] : by_id) {
      if (id != kSerialLeg) values.push_back(value);
    }
    return median(values);
  };
  const double run_batch = per_pass(tracer.self_by_id("backend.run_batch"));
  const double busy = per_pass(tracer.total_by_id("backend.run_batch"));
  const double run_trials = per_pass(tracer.total_by_id("driver.run_trials"));
  const double serial = tracer.total_by_id("driver.serial_run_trials")[kSerialLeg];
  const double serial_run_batch = tracer.total_by_id("backend.run_batch")[kSerialLeg];
  const double pass_total = per_pass(tracer.total_by_id("pass"));
  const double pass_unaccounted = per_pass(tracer.self_by_id("pass"));
  LayerMetrics layers;
  layers.resolve_ms = 1e3 * per_pass(tracer.self_by_id("scenario.resolve"));
  layers.graph_build_s = per_pass(tracer.self_by_id("graph.build"));
  layers.prepare_s = per_pass(tracer.self_by_id("backend.prepare"));
  layers.run_batch_s = run_batch;
  for (const core::ScenarioSpec& spec : specs) {
    layers.run_batch_by_algorithm[spec.algorithm] =
        per_pass(tracer.self_by_id("backend.run_batch", tracer.intern(spec.algorithm)));
  }
  layers.busy_s = busy;
  layers.lane_inflation = serial_run_batch > 0.0 ? busy / serial_run_batch : 0.0;
  layers.driver_self_s = per_pass(tracer.self_by_id("driver.run_trials")) +
                         per_pass(tracer.self_by_id("driver.prepare"));
  layers.serial_sweep_s = serial;
  layers.speedup = run_trials > 0.0 ? serial / run_trials : 0.0;
  layers.finalize_ms = 1e3 * per_pass(tracer.self_by_id("finalize"));
  layers.serialize_ms = 1e3 * per_pass(tracer.self_by_id("report.serialize"));
  layers.report_bytes = median(report_bytes);
  layers.accounted_pct = pass_total > 0.0 ? 100.0 * (1.0 - pass_unaccounted / pass_total) : 0.0;
  layers.e2e_s = pass_total;
  add_layer_metrics(result, layers);
  tracer.write_json(options.workdir + "/spans-views.jsonl");
  return result;
}

}  // namespace

Result run_views(const Options& options) {
  switch (options.mode) {
    case Mode::kTrace:
      return views_traced(options);
    case Mode::kAllocs:
      return views_allocs(options);
    case Mode::kEndToEnd:
      break;
  }
  return views_untraced(options);
}

}  // namespace perfbench
