#include "kit/tabular.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::analysis {

namespace {

/// A synthetic BallView plus the id storage its span points into (the
/// member order keeps the storage alive as long as the view; moving is
/// fine, the heap buffer stays put).
struct SynthView {
  std::vector<std::uint64_t> ids;
  local::BallView view;
};

/// Builds the open (non-covering) BallView matching a flat ring window.
/// Layout mirrors BallGrower on a cycle: root, then layers cw-first.
SynthView synth_open_view(const RingViewKey& window) {
  AVGLOCAL_EXPECTS(window.size() % 2 == 1);
  const std::size_t r = window.size() / 2;
  SynthView synth;
  local::BallView& view = synth.view;
  view.radius = static_cast<int>(r);
  view.covers_graph = false;
  const std::size_t size = window.size();
  synth.ids.resize(size);
  view.dist.resize(size);
  view.ports.assign_rows(size, 2);

  // local index: 0 = root; cw_i -> 2i-1; ccw_i -> 2i.
  const auto cw = [](std::size_t i) { return support::checked_u32(2 * i - 1); };
  const auto ccw = [](std::size_t i) { return support::checked_u32(2 * i); };
  synth.ids[0] = window[r];
  view.dist[0] = 0;
  for (std::size_t i = 1; i <= r; ++i) {
    synth.ids[cw(i)] = window[r + i];
    view.dist[cw(i)] = static_cast<int>(i);
    synth.ids[ccw(i)] = window[r - i];
    view.dist[ccw(i)] = static_cast<int>(i);
  }
  if (r >= 1) {
    view.ports[0][0] = cw(1);
    view.ports[0][1] = ccw(1);
    for (std::size_t i = 1; i <= r; ++i) {
      view.ports[cw(i)][1] = (i == 1) ? 0 : cw(i - 1);
      if (i < r) view.ports[cw(i)][0] = cw(i + 1);
      view.ports[ccw(i)][0] = (i == 1) ? 0 : ccw(i - 1);
      if (i < r) view.ports[ccw(i)][1] = ccw(i + 1);
    }
  }
  view.ids = synth.ids;
  return synth;
}

/// Builds the covering BallView of a whole ring, rooted at position v.
SynthView synth_closed_view(const std::vector<std::uint64_t>& ids, std::size_t v,
                            std::size_t radius) {
  const std::size_t n = ids.size();
  SynthView synth;
  local::BallView& view = synth.view;
  view.radius = static_cast<int>(radius);
  view.covers_graph = true;
  synth.ids.resize(n);
  view.dist.resize(n);
  view.ports.assign_rows(n, 2);
  // local i corresponds to ring position (v + i) mod n; port 0 = clockwise.
  for (std::size_t i = 0; i < n; ++i) {
    synth.ids[i] = ids[(v + i) % n];
    view.dist[i] = static_cast<int>(std::min(i, n - i));
    view.ports[i][0] = support::checked_u32((i + 1) % n);
    view.ports[i][1] = support::checked_u32((i + n - 1) % n);
  }
  view.ids = synth.ids;
  return synth;
}

/// Radius at which the induced ball of a cycle covers it: ceil((n-1)/2).
std::size_t closure_radius(std::size_t n) { return n / 2; }

}  // namespace

RingViewKey ring_view_key(const std::vector<std::uint64_t>& ids, std::size_t v, std::size_t r) {
  const std::size_t n = ids.size();
  AVGLOCAL_EXPECTS(2 * r + 1 <= n);
  RingViewKey key(2 * r + 1);
  for (std::size_t j = 0; j < key.size(); ++j) {
    key[j] = ids[(v + n + j - r) % n];
  }
  return key;
}

RingViewFunction::RingViewFunction(local::ViewAlgorithmFactory factory)
    : factory_(std::move(factory)) {}

std::optional<std::int64_t> RingViewFunction::decide(const RingViewKey& view) const {
  const auto it = memo_.find(view);
  if (it != memo_.end()) return it->second;
  // Replay the prefix views (centre slices) to a fresh instance.
  const std::size_t r = view.size() / 2;
  const auto algorithm = factory_();
  std::optional<std::int64_t> decision;
  for (std::size_t rho = 0; rho <= r; ++rho) {
    const RingViewKey sub(view.begin() + static_cast<std::ptrdiff_t>(r - rho),
                          view.begin() + static_cast<std::ptrdiff_t>(r + rho + 1));
    decision = algorithm->on_view(synth_open_view(sub).view);
    if (decision.has_value() && rho < r) {
      // The algorithm would have stopped on a strict prefix: the full view
      // is unreachable; record the prefix decision for consistency.
      break;
    }
  }
  memo_.emplace(view, decision);
  return decision;
}

std::pair<std::int64_t, std::size_t> RingViewFunction::run_vertex(
    const std::vector<std::uint64_t>& ids, std::size_t v) const {
  const std::size_t n = ids.size();
  const std::size_t cover = closure_radius(n);
  for (std::size_t rho = 0; rho < cover; ++rho) {
    if (const auto out = decide(ring_view_key(ids, v, rho))) return {*out, rho};
  }
  // Covering view: query the algorithm directly (fresh replay; cheap).
  const auto algorithm = factory_();
  for (std::size_t rho = 0; rho < cover; ++rho) {
    if (const auto out = algorithm->on_view(synth_open_view(ring_view_key(ids, v, rho)).view)) {
      return {*out, rho};
    }
  }
  if (const auto out = algorithm->on_view(synth_closed_view(ids, v, cover).view)) {
    return {*out, cover};
  }
  throw std::runtime_error("view algorithm did not stop on the covering view");
}

InstanceRun RingViewFunction::run_instance(const std::vector<std::uint64_t>& ids) const {
  InstanceRun run;
  run.outputs.resize(ids.size());
  run.radii.resize(ids.size());
  for (std::size_t v = 0; v < ids.size(); ++v) {
    const auto [out, radius] = run_vertex(ids, v);
    run.outputs[v] = out;
    run.radii[v] = radius;
  }
  return run;
}

std::optional<SmoothnessViolation> find_smoothness_violation(
    const RingViewFunction& algorithm, const std::vector<std::uint64_t>& ids) {
  const std::size_t n = ids.size();
  const InstanceRun run = algorithm.run_instance(ids);
  std::optional<SmoothnessViolation> best;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t k = 1; k + 2 <= n; ++k) {
      const std::size_t b = (a + k + 1) % n;
      const std::size_t tau = std::max(run.radii[a], run.radii[b]) + k;
      // The override views must be open, and the slice must fit the ring.
      if (2 * tau + 1 > n) continue;
      if (run.radii[a] + k + run.radii[b] + 2 > n) continue;
      std::vector<std::size_t> offenders;
      for (std::size_t j = 1; j <= k; ++j) {
        const std::size_t v = (a + j) % n;
        if (run.radii[v] > tau) offenders.push_back(v);
      }
      if (offenders.empty()) continue;
      if (!best || tau < best->tau) {
        SmoothnessViolation viol;
        const bool a_larger = ids[a] > ids[b];
        viol.x = a_larger ? a : b;
        viol.y = a_larger ? b : a;
        viol.k = k;
        viol.tau = tau;
        viol.offenders = std::move(offenders);
        best = std::move(viol);
      }
    }
  }
  return best;
}

Lemma2Improved::Lemma2Improved(const RingViewFunction& base, std::vector<std::uint64_t> instance,
                               SmoothnessViolation violation)
    : base_(&base), instance_(std::move(instance)), violation_(std::move(violation)) {
  const std::size_t n = instance_.size();
  // Recover the arc orientation: the interior runs clockwise from `a` to
  // `b`, where {a, b} = {x, y} and b = (a + k + 1) mod n.
  const std::size_t x = violation_.x;
  const std::size_t y = violation_.y;
  const std::size_t k = violation_.k;
  const std::size_t a = ((x + k + 1) % n == y) ? x : y;
  const std::size_t b = (a + k + 1) % n;
  AVGLOCAL_REQUIRE_MSG((a + k + 1) % n == b && (a == x || a == y),
                       "inconsistent violation descriptor");
  const auto [out_a, r_a] = base.run_vertex(instance_, a);
  const auto [out_b, r_b] = base.run_vertex(instance_, b);
  (void)out_a;
  (void)out_b;
  // Slice: from the start of a's view to the end of b's view, clockwise.
  const std::size_t start = (a + n - r_a) % n;
  const std::size_t length = r_a + 1 + k + 1 + r_b;
  AVGLOCAL_REQUIRE_MSG(length <= n, "slice wraps around the ring");
  slice_.resize(length);
  for (std::size_t j = 0; j < length; ++j) slice_[j] = instance_[(start + j) % n];
  const std::size_t a_in_slice = r_a;
  const std::size_t b_in_slice = r_a + k + 1;
  x_in_slice_ = (a == x) ? a_in_slice : b_in_slice;
  y_in_slice_ = (a == x) ? b_in_slice : a_in_slice;
}

std::optional<std::int64_t> Lemma2Improved::decide(const RingViewKey& view) const {
  const std::size_t rho = view.size() / 2;
  if (rho == violation_.tau) {
    if (const auto overridden = override_colour(view)) return overridden;
  }
  return base_->decide(view);
}

std::optional<std::int64_t> Lemma2Improved::override_colour(const RingViewKey& view) const {
  const std::size_t tau = violation_.tau;
  // Locate own identifier inside the slice.
  const std::uint64_t own = view[tau];
  const auto it = std::find(slice_.begin(), slice_.end(), own);
  if (it == slice_.end()) return std::nullopt;
  const std::size_t p = static_cast<std::size_t>(it - slice_.begin());
  // Interior of the arc only.
  const std::size_t lo = std::min(x_in_slice_, y_in_slice_);
  const std::size_t hi = std::max(x_in_slice_, y_in_slice_);
  if (p <= lo || p >= hi) return std::nullopt;
  // The whole slice must be visible at the expected alignment.
  for (std::size_t j = 0; j < slice_.size(); ++j) {
    const std::ptrdiff_t idx =
        static_cast<std::ptrdiff_t>(tau) + static_cast<std::ptrdiff_t>(j) -
        static_cast<std::ptrdiff_t>(p);
    if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(view.size())) return std::nullopt;
    if (view[static_cast<std::size_t>(idx)] != slice_[j]) return std::nullopt;
  }

  // Rule evaluation: examine both direct neighbours (view indices tau -+ 1).
  const std::size_t d = (p > x_in_slice_) ? p - x_in_slice_ : x_in_slice_ - p;
  std::vector<std::int64_t> early_colours;
  bool has_running_neighbour = false;
  for (const std::size_t centre : {tau - 1, tau + 1}) {
    std::optional<std::int64_t> early;
    for (std::size_t r2 = 0; r2 < tau; ++r2) {
      const RingViewKey sub(view.begin() + static_cast<std::ptrdiff_t>(centre - r2),
                            view.begin() + static_cast<std::ptrdiff_t>(centre + r2 + 1));
      if (const auto out = base_->decide(sub)) {
        early = out;
        break;
      }
    }
    if (early.has_value()) {
      early_colours.push_back(*early);
    } else {
      has_running_neighbour = true;
    }
  }
  std::vector<std::int64_t> palette;
  if (has_running_neighbour) {
    palette = (d % 2 == 0) ? std::vector<std::int64_t>{0, 1} : std::vector<std::int64_t>{2, 3};
  } else {
    palette = {0, 1, 2, 3};
  }
  for (const std::int64_t c : palette) {
    if (std::find(early_colours.begin(), early_colours.end(), c) == early_colours.end()) {
      return c;
    }
  }
  AVGLOCAL_REQUIRE_MSG(false, "lemma 2 palette exhausted");
  return std::nullopt;  // unreachable
}

InstanceRun Lemma2Improved::run_instance(const std::vector<std::uint64_t>& ids) const {
  const std::size_t n = ids.size();
  const std::size_t cover = closure_radius(n);
  InstanceRun run;
  run.outputs.resize(n);
  run.radii.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    bool done = false;
    for (std::size_t rho = 0; rho < cover && !done; ++rho) {
      if (2 * rho + 1 > n) break;
      if (const auto out = decide(ring_view_key(ids, v, rho))) {
        run.outputs[v] = *out;
        run.radii[v] = rho;
        done = true;
      }
    }
    if (!done) {
      // Covering view: A' coincides with A there.
      const auto [out, radius] = base_->run_vertex(ids, v);
      run.outputs[v] = out;
      run.radii[v] = radius;
    }
  }
  return run;
}

}  // namespace avglocal::analysis
