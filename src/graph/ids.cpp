#include "graph/ids.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::graph {

namespace {

[[maybe_unused]] bool all_distinct(std::span<const std::uint64_t> ids) {
  std::vector<std::uint64_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

/// {1..n} shuffled in place: the stream of random() and refill_random().
void fill_random_permutation(std::span<std::uint64_t> ids, support::Xoshiro256& rng) {
  std::iota(ids.begin(), ids.end(), std::uint64_t{1});
  support::shuffle(ids, rng);
}

}  // namespace

IdAssignment::IdAssignment(std::vector<std::uint64_t> ids) : ids_(std::move(ids)) {
  AVGLOCAL_EXPECTS_MSG(!ids_.empty(), "empty id assignment");
  AVGLOCAL_EXPECTS_MSG(all_distinct(ids_), "identifiers must be pairwise distinct");
}

IdAssignment::IdAssignment(std::vector<std::uint64_t> ids, Trusted) : ids_(std::move(ids)) {
  AVGLOCAL_ASSERT(!ids_.empty());
  AVGLOCAL_ASSERT(all_distinct(ids_));
}

IdAssignment IdAssignment::identity(std::size_t n) {
  std::vector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::uint64_t{1});
  return IdAssignment(std::move(ids), Trusted{});
}

IdAssignment IdAssignment::random(std::size_t n, support::Xoshiro256& rng) {
  // Fill {1..n} straight into the storage and shuffle in place: one
  // allocation (pinned by test_engine_alloc).
  std::vector<std::uint64_t> ids(n);
  fill_random_permutation(ids, rng);
  return IdAssignment(std::move(ids), Trusted{});
}

void IdAssignment::refill_random(std::size_t n, support::Xoshiro256& rng) {
  AVGLOCAL_EXPECTS_MSG(n > 0, "empty id assignment");
  ids_.resize(n);
  fill_random_permutation(ids_, rng);
  AVGLOCAL_ASSERT(all_distinct(ids_));
}

std::uint32_t IdAssignment::argmax() const noexcept {
  const auto it = std::max_element(ids_.begin(), ids_.end());
  return support::checked_u32(it - ids_.begin());
}

IdAssignment IdAssignment::with_swapped(std::uint32_t u, std::uint32_t v) const {
  AVGLOCAL_EXPECTS(u < ids_.size() && v < ids_.size());
  IdAssignment copy = *this;
  std::swap(copy.ids_[u], copy.ids_[v]);
  return copy;
}

}  // namespace avglocal::graph
