#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "support/rng.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

namespace {

double status_field_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size())) / 1024.0;
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_field_mb("VmHWM"); }
double current_rss_mb() { return status_field_mb("VmRSS"); }

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t sweep_threads() { return std::min<std::size_t>(4, hardware_threads()); }

std::uint64_t scenario_seed(std::uint64_t seed, std::uint64_t stream) {
  return avglocal::support::derive_seed(seed, stream);
}

}  // namespace perfbench
