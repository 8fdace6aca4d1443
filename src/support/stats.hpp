// Streaming and batch statistics for experiment measurement series.
#pragma once

#include <cstddef>
#include <vector>

namespace avglocal::support {

/// Numerically stable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Number of observations added so far.
  std::size_t count() const noexcept { return count_; }

  /// Arithmetic mean (0 when empty).
  double mean() const noexcept { return mean_; }

  /// Unbiased sample variance (0 when fewer than two observations).
  double variance() const noexcept;

  /// Sample standard deviation.
  double stddev() const noexcept;

  /// Largest observation. An empty accumulator has none: it returns quiet
  /// NaN (which propagates loudly through comparisons and arithmetic
  /// instead of leaking an indeterminate stale value).
  double max() const noexcept;
  double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Five-number-style summary of a batch of observations.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Computes a Summary of `values` (copies and sorts internally).
/// Returns an all-zero summary for an empty input.
Summary summarize(const std::vector<double>& values);

/// Linear-interpolation percentile of a *sorted* vector, q in [0, 1].
double percentile_sorted(const std::vector<double>& sorted, double q);

}  // namespace avglocal::support
