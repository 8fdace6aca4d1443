// The three workloads and the per-layer record they fill.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

Result run_views(const Options& options);
Result run_fabric(const Options& options);
Result run_serve(const Options& options);

/// Every per-layer metric of the traced run. A workload fills the layers
/// it calls and leaves the rest at 0 (that layer is not on its path).
/// Times are per pass of the three scenarios for `views`; `fabric-msg`
/// takes its engine layers from the one-thread replay of a pass's units;
/// `serve-mix` documents its own denominators.
struct LayerMetrics {
  // scenario, graph, core/sweep_backend, core/sweep_driver, report
  double resolve_ms = 0.0;
  double graph_build_s = 0.0;
  double prepare_s = 0.0;
  double run_batch_s = 0.0;
  std::map<std::string, double> run_batch_by_algorithm;
  double busy_s = 0.0;
  double lane_inflation = 0.0;
  double backend_allocs_per_trial = 0.0;
  double driver_self_s = 0.0;
  double serial_sweep_s = 0.0;
  double speedup = 0.0;
  double driver_allocs_per_trial = 0.0;
  double finalize_ms = 0.0;
  double serialize_ms = 0.0;
  double report_bytes = 0.0;
  // client round trips (serve-mix)
  double warm_p50_ms = 0.0;
  double warm_p99_ms = 0.0;
  double extend_p50_ms = 0.0;
  double extend_p95_ms = 0.0;
  // core/result_cache
  double cache_warm_ms = 0.0;
  double cache_extend_ms = 0.0;
  double cache_wait_ms = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_extensions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_trials_computed = 0;
  std::uint64_t cache_entries = 0;
  double cache_rss_growth_mb = 0.0;
  // core/serve, support/socket
  double handle_warm_ms = 0.0;
  double socket_ms = 0.0;
  double reply_bytes = 0.0;
  // core/fabric, core/shard, core/remote_backend
  double grant_interval_p50_ms = 0.0;
  double grant_interval_p90_ms = 0.0;
  double unit_compute_ms = 0.0;
  double unit_overhead_ms = 0.0;
  double shard_encode_ms = 0.0;
  double shard_parse_ms = 0.0;
  double shard_bytes = 0.0;
  double merge_ms = 0.0;
  double tail_s = 0.0;
  std::uint64_t units_granted = 0;
  std::uint64_t redispatches = 0;
  double useful_ratio = 0.0;
  // benchmark: share of the traced end-to-end time the layer spans cover,
  // and that end-to-end time itself (compared with the untraced run's to
  // give trace.overhead_pct).
  double accounted_pct = 0.0;
  double e2e_s = 0.0;
};

void add_layer_metrics(Result& result, const LayerMetrics& layers);

/// The allocation leg's two metrics: operator new calls per trial inside
/// backend.run_batch spans, and inside `driver_span` spans minus their
/// children. Only meaningful in perfbench_allocs (the hook counts).
class Tracer;
void add_alloc_metrics(Result& result, const Tracer& tracer, const char* driver_span,
                       double trials);

}  // namespace perfbench
