#include "algo/cole_vishkin.hpp"

#include <array>
#include <optional>
#include <vector>

#include "algo/colour_reduction.hpp"
#include "local/view.hpp"
#include "local/wire.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace avglocal::algo {

namespace {

class ColeVishkinMessages final : public local::Algorithm {
 public:
  void on_start(local::NodeContext& ctx) override {
    AVGLOCAL_REQUIRE_MSG(ctx.n().has_value(),
                         "Cole-Vishkin (known n) requires Knowledge::kKnowsN");
    AVGLOCAL_REQUIRE_MSG(ctx.degree() == 2, "Cole-Vishkin runs on oriented cycles");
    const std::size_t n = *ctx.n();
    t6_ = cv_iterations_to_six(support::bit_width_u64(n));
    total_rounds_ = cv_schedule_rounds(n);
    colour_ = ctx.id();
    broadcast_colour(ctx);
  }

  void on_round(local::NodeContext& ctx, std::span<const local::Message> inbox) override {
    std::uint64_t succ = 0, pred = 0;
    bool have_succ = false, have_pred = false;
    for (const local::Message& msg : inbox) {
      local::Decoder d(msg.payload);
      const std::uint64_t value = d.u64();
      if (msg.from_port == 0) {
        succ = value;
        have_succ = true;
      } else {
        pred = value;
        have_pred = true;
      }
    }
    AVGLOCAL_REQUIRE_MSG(have_succ && have_pred, "Cole-Vishkin expects both neighbours");
    const std::size_t k = ctx.round();
    if (k <= static_cast<std::size_t>(t6_)) {
      colour_ = cv_reduce(colour_, succ);
    } else {
      // Elimination rounds t6+1, t6+2, t6+3 clear classes 5, 4, 3.
      const std::uint64_t cls = 5 - (k - static_cast<std::size_t>(t6_) - 1);
      if (colour_ == cls) {
        for (std::uint64_t c = 0; c < 3; ++c) {
          if (c != pred && c != succ) {
            colour_ = c;
            break;
          }
        }
      }
    }
    if (k == total_rounds_) {
      ctx.output(static_cast<std::int64_t>(colour_));
    } else {
      broadcast_colour(ctx);
    }
  }

  /// on_start recomputes the schedule and colour from the context.
  bool reset() noexcept override {
    colour_ = 0;
    t6_ = 0;
    total_rounds_ = 0;
    return true;
  }

 private:
  void broadcast_colour(local::NodeContext& ctx) {
    const std::array<std::uint64_t, 1> word{colour_};
    ctx.broadcast(word);
  }

  std::uint64_t colour_ = 0;
  int t6_ = 0;
  std::size_t total_rounds_ = 0;
};

class ColeVishkinView final : public local::ViewAlgorithm {
 public:
  explicit ColeVishkinView(std::size_t n)
      : t6_(cv_iterations_to_six(support::bit_width_u64(n))),
        target_radius_(cv_schedule_rounds(n)) {}

  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    if (!view.covers_graph && static_cast<std::size_t>(view.radius) < target_radius_) {
      return std::nullopt;
    }
    const bool on_ring = local::extract_ring_view(view, ring_);
    AVGLOCAL_REQUIRE_MSG(on_ring, "Cole-Vishkin requires an oriented cycle");
    window_.clear();
    if (ring_.closed) {
      // Small ring: replay the schedule on the whole cycle.
      window_.push_back(ring_.own);
      window_.insert(window_.end(), ring_.cw.begin(), ring_.cw.end());
      return static_cast<std::int64_t>(cv_colour_ring(window_, t6_)[0]);
    }
    // Open segment: the final colour of a vertex depends on 3 predecessors
    // and t6+3 successors; our radius-T ball provides both.
    const std::size_t ahead = static_cast<std::size_t>(t6_) + 3;
    AVGLOCAL_REQUIRE(ring_.ccw.size() >= 3 && ring_.cw.size() >= ahead);
    window_.insert(window_.end(), ring_.ccw.rend() - 3, ring_.ccw.rend());
    window_.push_back(ring_.own);
    window_.insert(window_.end(), ring_.cw.begin(), ring_.cw.begin() + ahead);
    return static_cast<std::int64_t>(cv_colour_window(window_, t6_)[0]);  // own position
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

local::AlgorithmFactory make_cole_vishkin_messages() {
  return [] { return std::make_unique<ColeVishkinMessages>(); };
}

local::ViewAlgorithmFactory make_cole_vishkin_view(std::size_t n) {
  return [n] { return std::make_unique<ColeVishkinView>(n); };
}

}  // namespace avglocal::algo
