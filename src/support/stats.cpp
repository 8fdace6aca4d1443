#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/assert.hpp"

namespace avglocal::support {

void RunningStats::add(double x) noexcept {
  max_ = count_ == 0 ? x : std::max(max_, x);
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::max() const noexcept {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  AVGLOCAL_EXPECTS(!sorted.empty());
  AVGLOCAL_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  RunningStats rs;
  for (double v : sorted) rs.add(v);
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = sorted.front();
  s.p25 = percentile_sorted(sorted, 0.25);
  s.median = percentile_sorted(sorted, 0.50);
  s.p75 = percentile_sorted(sorted, 0.75);
  s.p99 = percentile_sorted(sorted, 0.99);
  s.max = sorted.back();
  return s;
}

}  // namespace avglocal::support
