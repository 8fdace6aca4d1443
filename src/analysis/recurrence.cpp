#include "analysis/recurrence.hpp"

#include <span>

#include "support/assert.hpp"

namespace avglocal::analysis {

Recurrence::Recurrence(std::size_t max_p) : a_(max_p + 1, 0), best_k_(max_p + 1, 0) {
  AVGLOCAL_EXPECTS(max_p >= 1);
  a_[1] = 1;
  best_k_[1] = 1;
  for (std::size_t p = 2; p <= max_p; ++p) {
    std::uint64_t best = 0;
    std::size_t arg = 1;
    const std::size_t half = (p + 1) / 2;
    for (std::size_t k = 1; k <= half; ++k) {
      const std::uint64_t value = k + a_[k - 1] + a_[p - k];
      if (value > best) {
        best = value;
        arg = k;
      }
    }
    a_[p] = best;
    best_k_[p] = arg;
  }
}

std::uint64_t Recurrence::a(std::size_t p) const {
  AVGLOCAL_EXPECTS(p < a_.size());
  return a_[p];
}

std::size_t Recurrence::best_k(std::size_t p) const {
  AVGLOCAL_EXPECTS(p >= 1 && p < best_k_.size());
  return best_k_[p];
}

namespace {

/// Fills positions [offset, offset+p) with ranks [lo_rank, lo_rank+p),
/// arranged worst-case for a segment walled by larger values on both sides.
void fill_segment(const Recurrence& rec, std::span<std::uint64_t> out, std::size_t offset,
                  std::size_t p, std::uint64_t lo_rank) {
  if (p == 0) return;
  if (p == 1) {
    out[offset] = lo_rank;
    return;
  }
  const std::size_t k = rec.best_k(p);
  // Segment maximum at position k-1 (distance k from the left wall).
  out[offset + k - 1] = lo_rank + p - 1;
  // Left part: k-1 vertices; right part: p-k vertices. Only relative order
  // matters, so hand each part a contiguous rank block below the maximum.
  fill_segment(rec, out, offset, k - 1, lo_rank + (p - k));
  fill_segment(rec, out, offset + k, p - k, lo_rank);
}

}  // namespace

graph::IdAssignment worst_case_cycle_ids(const Recurrence& rec, std::size_t n) {
  AVGLOCAL_EXPECTS(n >= 3);
  AVGLOCAL_EXPECTS(n - 1 <= rec.max_p());
  std::vector<std::uint64_t> ids(n, 0);
  ids[0] = n;
  std::span<std::uint64_t> span(ids);
  fill_segment(rec, span, 1, n - 1, 1);
  return graph::IdAssignment(std::move(ids));
}

std::uint64_t predicted_worst_cycle_sum(const Recurrence& rec, std::size_t n) {
  AVGLOCAL_EXPECTS(n >= 3);
  AVGLOCAL_EXPECTS(n - 1 <= rec.max_p());
  return static_cast<std::uint64_t>(n / 2) + rec.a(n - 1);
}

}  // namespace avglocal::analysis
