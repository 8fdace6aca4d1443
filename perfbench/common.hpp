// Shared plumbing of the end-to-end benchmark: options, the result record
// every workload fills, clocks, order statistics and process memory.
//
// A workload reports named metrics with units: the end-to-end metrics of
// BENCHMARK.json untraced, the per-layer ones traced. A per-layer metric of a layer the workload never calls is
// reported as 0: the workload bypasses that layer, so nothing was measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

inline double seconds_since(Clock::time_point begin) {
  return seconds_between(begin, Clock::now());
}

/// What one process measures: the end-to-end metrics, the per-layer spans,
/// or (perfbench_allocs only) the allocation counts of the serial legs.
enum class Mode { kEndToEnd, kTrace, kAllocs };

struct Options {
  Mode mode = Mode::kEndToEnd;
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget: repeated passes stop once it is spent (every
  /// workload still runs its minimum number of passes).
  double seconds = 10.0;
  /// Toy sizes for the self-check: every code path, in seconds.
  bool toy = false;
  /// Scratch directory inside the checkout (sockets, span dumps).
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one attempted operation; a failed one also records why.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

/// Whether a measurement loop runs another pass: always until `min_passes`,
/// then while the --seconds budget (counted from `start`) lasts, capped at
/// `max_passes`.
inline bool keep_going(std::size_t passes, std::size_t min_passes, std::size_t max_passes,
                       Clock::time_point start, const Options& options) {
  if (passes < min_passes) return true;
  return passes < max_passes && seconds_since(start) < options.seconds;
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> values);

/// Nearest-rank quantile, p in [0, 1]; 0 for no samples.
double quantile(std::vector<double> values, double p);

/// Resident-set high-water mark (VmHWM) and current size (VmRSS) in MB.
double peak_rss_mb();
double current_rss_mb();

/// Starts a fresh high-water mark: returns freed heap pages to the system
/// (malloc_trim) and resets VmHWM to the current resident size. Called
/// before a workload's first measured pass, so peak_rss_mb is that pass's
/// peak, not what set-up and the reference runs left in allocator arenas.
void reset_peak_rss();

/// min(4, hardware concurrency): the benchmark's sweep parallelism.
std::size_t sweep_threads();
std::size_t hardware_threads();

/// Independent per-scenario seed derived from the benchmark seed.
std::uint64_t scenario_seed(std::uint64_t seed, std::uint64_t stream);

/// Whether this binary was linked with support::alloc_hook's counting
/// operator new (only the traced binary is).
bool alloc_hook_installed();

}  // namespace perfbench
