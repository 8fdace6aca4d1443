// Executable Lemma 2: minimal algorithms and the improvement transformation.
//
// Lemma 2 of the paper says: in a *minimal* 4-colouring algorithm, radiuses
// are smooth - between vertices x and y separated by k vertices, nobody
// needs more than max{r(x), r(y)} + k. The proof is constructive: from any
// algorithm A violating the bound, build a strictly better A' in which the
// vertices between x and y stop at the threshold tau = max{r(x), r(y)} + k
// and output by two local rules (avoid the colour of a neighbour that
// stopped strictly earlier; otherwise colour by the parity of the distance
// to the larger-identifier endpoint, palettes {0,1} / {2,3}).
//
// This module makes that proof executable:
//  * RingViewFunction - the "normal form" of a view algorithm on oriented
//    rings: a memoized function from view keys to decisions;
//  * find_smoothness_violation - locates (x, y, k, offenders) on an
//    instance;
//  * Lemma2Improved - the transformed algorithm A', runnable on instances,
//    whose validity and dominance tests verify the proof's claims.
//
// It lives in the test kit: test_lemma2 is its one caller.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "local/view_engine.hpp"

namespace avglocal::analysis {

/// A radius-r view of an oriented ring, flattened to 2r+1 identifiers:
/// [ccw_r, ..., ccw_1, own, cw_1, ..., cw_r]. The centre sits at index r.
using RingViewKey = std::vector<std::uint64_t>;

/// Extracts the radius-r view of vertex v from a cyclic arrangement
/// (requires 2r+1 <= ids.size()).
RingViewKey ring_view_key(const std::vector<std::uint64_t>& ids, std::size_t v, std::size_t r);

/// Outputs and stop radii of one run over a ring instance.
struct InstanceRun {
  std::vector<std::int64_t> outputs;
  std::vector<std::size_t> radii;
};

/// Memoized normal form of a deterministic view algorithm on oriented
/// rings: a pure function from RingViewKey to a decision (nullopt = grow).
/// Queries replay the prefix views to a fresh algorithm instance, so any
/// stateful ViewAlgorithm whose behaviour depends only on the view sequence
/// is supported.
class RingViewFunction {
 public:
  explicit RingViewFunction(local::ViewAlgorithmFactory factory);

  /// Decision of the algorithm on this view.
  std::optional<std::int64_t> decide(const RingViewKey& view) const;

  /// Stop radius and output of vertex v on the instance; radii are capped
  /// by closure (a view spanning the whole ring), past which the query
  /// throws std::runtime_error if the algorithm still grows.
  std::pair<std::int64_t, std::size_t> run_vertex(const std::vector<std::uint64_t>& ids,
                                                  std::size_t v) const;

  InstanceRun run_instance(const std::vector<std::uint64_t>& ids) const;

 private:
  local::ViewAlgorithmFactory factory_;
  mutable std::map<RingViewKey, std::optional<std::int64_t>> memo_;
};

/// A located violation of the Lemma 2 smoothness bound on an instance.
struct SmoothnessViolation {
  std::size_t x = 0;  ///< endpoint position with the larger identifier
  std::size_t y = 0;  ///< the other endpoint position
  std::size_t k = 0;  ///< number of interior vertices on the cw arc x -> y
  std::size_t tau = 0;
  std::vector<std::size_t> offenders;  ///< interior positions with r > tau
};

/// Scans all (x, y, k) on the instance for radius-smoothness violations of
/// A; returns the violation with the smallest tau, if any.
std::optional<SmoothnessViolation> find_smoothness_violation(
    const RingViewFunction& algorithm, const std::vector<std::uint64_t>& ids);

/// The transformed algorithm A' of Lemma 2's proof, built from A, the
/// instance that exhibits the violation, and the violation itself.
class Lemma2Improved {
 public:
  Lemma2Improved(const RingViewFunction& base, std::vector<std::uint64_t> instance,
                 SmoothnessViolation violation);

  /// Runs A' on an arbitrary instance (same semantics as RingViewFunction).
  InstanceRun run_instance(const std::vector<std::uint64_t>& ids) const;

  std::size_t tau() const noexcept { return violation_.tau; }

 private:
  std::optional<std::int64_t> decide(const RingViewKey& view) const;
  std::optional<std::int64_t> override_colour(const RingViewKey& view) const;

  const RingViewFunction* base_;
  std::vector<std::uint64_t> instance_;
  SmoothnessViolation violation_;
  /// The slice: identifiers from x's view start to y's view end, in cw
  /// order, plus the positions of x and y within it.
  std::vector<std::uint64_t> slice_;
  std::size_t x_in_slice_ = 0;
  std::size_t y_in_slice_ = 0;
};

}  // namespace avglocal::analysis
