#include "algo/mis_ring.hpp"

#include <optional>
#include <vector>

#include "algo/colour_reduction.hpp"
#include "local/view.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace avglocal::algo {

namespace {

/// Greedy class-by-class admission given the 3-colour of a vertex and of
/// enough context. in(v) for class 0 is immediate; class 1 needs the
/// neighbours' colours; class 2 needs neighbours' membership, i.e. colours
/// at distance up to 2.
bool mis_member(std::uint64_t c_mm, std::uint64_t c_m, std::uint64_t c0, std::uint64_t c_p,
                std::uint64_t c_pp) {
  const auto in_class01 = [](std::uint64_t left, std::uint64_t self, std::uint64_t right) {
    if (self == 0) return true;
    if (self == 1) return left != 0 && right != 0;
    return false;  // class 2 handled by the caller
  };
  if (c0 == 0) return true;
  if (c0 == 1) return c_m != 0 && c_p != 0;
  // Class 2: join iff neither neighbour joined earlier.
  const bool left_in = in_class01(c_mm, c_m, c0);
  const bool right_in = in_class01(c0, c_p, c_pp);
  return !left_in && !right_in;
}

class MisRingView final : public local::ViewAlgorithm {
 public:
  explicit MisRingView(std::size_t n)
      : t6_(cv_iterations_to_six(support::bit_width_u64(n))),
        target_radius_(cv_schedule_rounds(n) + 2) {}

  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    if (!view.covers_graph && static_cast<std::size_t>(view.radius) < target_radius_) {
      return std::nullopt;
    }
    const bool on_ring = local::extract_ring_view(view, ring_);
    AVGLOCAL_REQUIRE_MSG(on_ring, "ring MIS requires an oriented cycle");
    window_.clear();
    if (ring_.closed) {
      window_.push_back(ring_.own);
      window_.insert(window_.end(), ring_.cw.begin(), ring_.cw.end());
      const auto colours = cv_colour_ring(window_, t6_);
      const std::size_t n = colours.size();
      return mis_member(colours[n - 2], colours[n - 1], colours[0], colours[1], colours[2])
                 ? 1
                 : 0;
    }
    // Open segment: need final colours at offsets -2..+2, hence identifiers
    // at offsets [-5, t6+5].
    const std::size_t ahead = static_cast<std::size_t>(t6_) + 5;
    AVGLOCAL_REQUIRE(ring_.ccw.size() >= 5 && ring_.cw.size() >= ahead);
    window_.insert(window_.end(), ring_.ccw.rend() - 5, ring_.ccw.rend());
    window_.push_back(ring_.own);  // window position 5
    window_.insert(window_.end(), ring_.cw.begin(), ring_.cw.begin() + ahead);
    // Element 0 of the coloured range is window position 3 (offset -2).
    const auto colours = cv_colour_window(window_, t6_);
    return mis_member(colours[0], colours[1], colours[2], colours[3], colours[4]) ? 1 : 0;
  }

  /// ring_ and window_ are per-call scratch: nothing observable to reset.
  bool reset() noexcept override { return true; }

  /// Waits for the fixed schedule radius unless the ball closes first.
  std::size_t min_radius() const noexcept override { return target_radius_; }

 private:
  int t6_;
  std::size_t target_radius_;
  local::RingView ring_;
  std::vector<std::uint64_t> window_;
};

}  // namespace

local::ViewAlgorithmFactory make_mis_ring_view(std::size_t n) {
  return [n] { return std::make_unique<MisRingView>(n); };
}

}  // namespace avglocal::algo
