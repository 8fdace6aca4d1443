// perfbench / perfbench_allocs: one workload per process, so peak_rss_mb is
// that workload's own high-water mark.
//
//   perfbench --workload views|fabric-msg|serve-mix --seed N --seconds S
//             [--mode e2e|trace] [--toy] [--workdir DIR]
//   perfbench_allocs --mode allocs --workload ... (same flags)
//
// Prints one JSON line: attempted/failed operation counts, the first
// errors, the host (nproc, active SIMD ISA, build type) and the metrics.
// e2e reports the end-to-end metrics, trace the per-layer ones from spans.
// perfbench_allocs is the same program linked with the allocation hook; it
// only runs each workload's serial legs and reports allocations per trial,
// so the hook's cost never reaches a timed run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "support/json_writer.hpp"
#include "support/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// Algorithms whose run_batch time is broken out (every one the workloads
/// run), so each workload reports the same metric names.
constexpr const char* kAlgorithms[] = {"largest-id", "cv3",           "greedy",
                                       "local3",     "largest-id-msg", "greedy-msg"};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = next();
    } else if (flag == "--seed") {
      options.seed = std::stoull(next());
    } else if (flag == "--seconds") {
      options.seconds = std::stod(next());
    } else if (flag == "--workdir") {
      options.workdir = next();
    } else if (flag == "--mode") {
      const std::string mode = next();
      if (mode == "e2e") {
        options.mode = Mode::kEndToEnd;
      } else if (mode == "trace") {
        options.mode = Mode::kTrace;
      } else if (mode == "allocs") {
        options.mode = Mode::kAllocs;
      } else {
        throw std::invalid_argument("unknown mode " + mode);
      }
    } else if (flag == "--toy") {
      options.toy = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if ((options.mode == Mode::kAllocs) != alloc_hook_installed()) {
    throw std::invalid_argument(alloc_hook_installed()
                                    ? "perfbench_allocs only runs --mode allocs"
                                    : "--mode allocs needs perfbench_allocs (the allocation hook)");
  }
  return options;
}

void print(const Options& options, const Result& result) {
  avglocal::support::JsonWriter json;
  json.begin_object();
  json.key("workload").value(options.workload);
  json.key("attempted").value(result.attempted);
  json.key("failed").value(result.failed);
  json.key("errors").begin_array();
  for (const std::string& error : result.errors) json.value(error);
  json.end_array();
  json.key("env").begin_object();
  json.key("nproc").value(static_cast<std::uint64_t>(hardware_threads()));
  json.key("sweep_threads").value(static_cast<std::uint64_t>(sweep_threads()));
  json.key("simd_isa").value(avglocal::support::simd::active_isa());
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("alloc_hook").value(alloc_hook_installed());
  json.end_object();
  json.key("metrics").begin_object();
  for (const Metric& metric : result.metrics) {
    json.key(metric.name).begin_object();
    json.key("value").value(metric.value);
    json.key("unit").value(metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::cout << json.str() << std::endl;
}

}  // namespace

void add_layer_metrics(Result& result, const LayerMetrics& m) {
  const auto count = [](std::uint64_t value) { return static_cast<double>(value); };
  result.add("scenario.resolve_ms", m.resolve_ms, "ms");
  result.add("graph.build_s", m.graph_build_s, "s");
  result.add("backend.prepare_s", m.prepare_s, "s");
  result.add("backend.run_batch_s", m.run_batch_s, "s");
  for (const char* algorithm : kAlgorithms) {
    const auto found = m.run_batch_by_algorithm.find(algorithm);
    result.add(std::string("backend.run_batch_s.") + algorithm,
               found == m.run_batch_by_algorithm.end() ? 0.0 : found->second, "s");
  }
  result.add("backend.busy_s", m.busy_s, "s");
  result.add("backend.lane_inflation", m.lane_inflation, "ratio");
  result.add("backend.allocs_per_trial", m.backend_allocs_per_trial, "count");
  result.add("driver.self_s", m.driver_self_s, "s");
  result.add("driver.serial_sweep_s", m.serial_sweep_s, "s");
  result.add("driver.speedup", m.speedup, "ratio");
  result.add("driver.allocs_per_trial", m.driver_allocs_per_trial, "count");
  result.add("finalize.ms", m.finalize_ms, "ms");
  result.add("report.serialize_ms", m.serialize_ms, "ms");
  result.add("report.bytes", m.report_bytes, "bytes");
  result.add("warm_p50_ms", m.warm_p50_ms, "ms");
  result.add("warm_p99_ms", m.warm_p99_ms, "ms");
  result.add("extend_p50_ms", m.extend_p50_ms, "ms");
  result.add("extend_p95_ms", m.extend_p95_ms, "ms");
  result.add("cache.warm_ms", m.cache_warm_ms, "ms");
  result.add("cache.extend_ms", m.cache_extend_ms, "ms");
  result.add("cache.wait_ms", m.cache_wait_ms, "ms");
  result.add("cache.hits", count(m.cache_hits), "count");
  result.add("cache.extensions", count(m.cache_extensions), "count");
  result.add("cache.misses", count(m.cache_misses), "count");
  result.add("cache.trials_computed", count(m.cache_trials_computed), "count");
  result.add("cache.entries", count(m.cache_entries), "count");
  result.add("cache.rss_growth_mb", m.cache_rss_growth_mb, "MB");
  result.add("serve.handle_warm_ms", m.handle_warm_ms, "ms");
  result.add("serve.socket_ms", m.socket_ms, "ms");
  result.add("serve.reply_bytes", m.reply_bytes, "bytes");
  result.add("fabric.grant_interval_ms.p50", m.grant_interval_p50_ms, "ms");
  result.add("fabric.grant_interval_ms.p90", m.grant_interval_p90_ms, "ms");
  result.add("fabric.unit_compute_ms", m.unit_compute_ms, "ms");
  result.add("fabric.unit_overhead_ms", m.unit_overhead_ms, "ms");
  result.add("shard.encode_ms", m.shard_encode_ms, "ms");
  result.add("shard.parse_ms", m.shard_parse_ms, "ms");
  result.add("shard.bytes", m.shard_bytes, "bytes");
  result.add("fabric.merge_ms", m.merge_ms, "ms");
  result.add("fabric.tail_s", m.tail_s, "s");
  result.add("fabric.units_granted", count(m.units_granted), "count");
  result.add("fabric.redispatches", count(m.redispatches), "count");
  result.add("fabric.useful_ratio", m.useful_ratio, "ratio");
  result.add("trace.accounted_pct", m.accounted_pct, "%");
  result.add("e2e_s", m.e2e_s, "s");
}

void add_alloc_metrics(Result& result, const Tracer& tracer, const char* driver_span,
                       double trials) {
  result.add("backend.allocs_per_trial",
             static_cast<double>(tracer.self_allocs("backend.run_batch")) / trials, "count");
  result.add("driver.allocs_per_trial",
             static_cast<double>(tracer.self_allocs(driver_span)) / trials, "count");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = perfbench::parse_options(argc, argv);
    perfbench::Result result;
    if (options.workload == "views") {
      result = perfbench::run_views(options);
    } else if (options.workload == "fabric-msg") {
      result = perfbench::run_fabric(options);
    } else if (options.workload == "serve-mix") {
      result = perfbench::run_serve(options);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
      return 2;
    }
    perfbench::print(options, result);
    return result.failed == 0 ? 0 : 3;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
