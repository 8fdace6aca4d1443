#include "local/metrics.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace avglocal::local {

std::size_t RunResult::max_radius() const noexcept {
  std::size_t best = 0;
  for (std::size_t r : radii) best = std::max(best, r);
  return best;
}

std::uint64_t RunResult::sum_radius() const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t r : radii) sum += r;
  return sum;
}

double RunResult::average_radius() const noexcept {
  if (radii.empty()) return 0.0;
  return static_cast<double>(sum_radius()) / static_cast<double>(radii.size());
}

RadiusHistogram::RadiusHistogram(std::vector<std::uint64_t> counts) : counts_(std::move(counts)) {
  while (!counts_.empty() && counts_.back() == 0) counts_.pop_back();
  for (std::uint64_t c : counts_) samples_ += c;
}

void RadiusHistogram::merge(const RadiusHistogram& other) {
  if (other.counts_.size() > counts_.size()) counts_.resize(other.counts_.size(), 0);
  for (std::size_t r = 0; r < other.counts_.size(); ++r) counts_[r] += other.counts_[r];
  samples_ += other.samples_;
}

double RadiusHistogram::mean() const noexcept {
  if (samples_ == 0) return 0.0;
  std::uint64_t weighted = 0;
  for (std::size_t r = 0; r < counts_.size(); ++r) {
    weighted += static_cast<std::uint64_t>(r) * counts_[r];
  }
  return static_cast<double>(weighted) / static_cast<double>(samples_);
}

std::size_t RadiusHistogram::max_radius() const noexcept {
  return counts_.empty() ? 0 : counts_.size() - 1;
}

std::size_t RadiusHistogram::quantile(double q) const {
  AVGLOCAL_EXPECTS(samples_ > 0);
  AVGLOCAL_EXPECTS(q >= 0.0 && q <= 1.0);
  const double target = q * static_cast<double>(samples_);
  std::uint64_t cumulative = 0;
  for (std::size_t r = 0; r < counts_.size(); ++r) {
    cumulative += counts_[r];
    if (counts_[r] != 0 && static_cast<double>(cumulative) >= target) return r;
  }
  return max_radius();
}

}  // namespace avglocal::local
