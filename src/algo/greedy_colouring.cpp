#include "algo/greedy_colouring.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "local/wire.hpp"
#include "support/assert.hpp"

namespace avglocal::algo {

namespace {

/// Smallest colour not used by the given neighbour colours (sorted in
/// place).
std::int64_t smallest_free(std::vector<std::int64_t>& used) {
  std::sort(used.begin(), used.end());
  std::int64_t colour = 0;
  for (const std::int64_t c : used) {
    if (c == colour) ++colour;
    if (c > colour) break;
  }
  return colour;
}

class GreedyColouringMessages final : public local::Algorithm {
 public:
  void on_start(local::NodeContext& ctx) override {
    nbr_id_.assign(ctx.degree(), 0);
    nbr_colour_.assign(ctx.degree(), std::nullopt);
    higher_.reserve(ctx.degree());
    broadcast_state(ctx);
  }

  void on_round(local::NodeContext& ctx, std::span<const local::Message> inbox) override {
    for (const local::Message& msg : inbox) {
      local::Decoder d(msg.payload);
      nbr_id_[msg.from_port] = d.u64();
      if (d.flag()) nbr_colour_[msg.from_port] = d.i64();
      ids_known_ = true;
    }
    if (!ctx.has_output() && ids_known_) {
      higher_.clear();
      bool ready = true;
      for (std::size_t port = 0; port < ctx.degree(); ++port) {
        if (nbr_id_[port] <= ctx.id()) continue;
        if (!nbr_colour_[port]) {
          ready = false;
          break;
        }
        higher_.push_back(*nbr_colour_[port]);
      }
      if (ready) {
        colour_ = smallest_free(higher_);
        ctx.output(*colour_);
      }
    }
    broadcast_state(ctx);
  }

  /// colour_ is set once, together with the output, inside on_round's
  /// `!ctx.has_output()` branch, and nothing else assigns it; so after
  /// output every broadcast_state sends {id, 1, colour_}.
  bool halts_after_output() const noexcept override { return true; }

  /// on_start re-assigns the per-port arrays and higher_ is per-round
  /// scratch; only the scalars persist.
  bool reset() noexcept override {
    colour_.reset();
    ids_known_ = false;
    return true;
  }

 private:
  void broadcast_state(local::NodeContext& ctx) {
    const std::array<std::uint64_t, 3> state{
        ctx.id(), std::uint64_t{colour_.has_value()},
        static_cast<std::uint64_t>(colour_.value_or(0))};
    ctx.broadcast(state);
  }

  std::vector<std::uint64_t> nbr_id_;
  std::vector<std::optional<std::int64_t>> nbr_colour_;
  std::vector<std::int64_t> higher_;  ///< higher-id neighbours' colours
  std::optional<std::int64_t> colour_;
  bool ids_known_ = false;
};

class GreedyColouringView final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    // A vertex's greedy colour is determined once all its ports are
    // resolved and every higher-identifier neighbour is determined, so the
    // root's colour depends exactly on the vertices reachable from it along
    // strictly increasing identifiers. Colour those in DFS post-order; any
    // unresolved port among them leaves the root undetermined.
    colour_.resize(view.size(), kUncoloured);
    const std::optional<std::int64_t> root_colour = colour_root(view);
    for (const Frame& frame : frames_) colour_[frame.vertex] = kUncoloured;
    frames_.clear();
    return root_colour;
  }

  /// The buffers are per-call scratch: nothing observable to reset.
  bool reset() noexcept override { return true; }

  /// At radius 0 a non-covering root has unresolved ports, so its greedy
  /// colour cannot be determined yet.
  std::size_t min_radius() const noexcept override { return 1; }

 private:
  static constexpr std::int64_t kUncoloured = -1;
  static constexpr std::size_t kNoParent = SIZE_MAX;

  struct Frame {
    local::LocalVertex vertex;
    std::size_t next_port;
    std::size_t parent;  ///< index of the caller's frame
  };

  std::optional<std::int64_t> colour_root(const local::BallView& view) {
    // frames_ keeps every visited vertex in discovery order; the DFS stack
    // is the parent chain from `top`. Identifiers strictly increase along
    // it, so a higher neighbour of the top is never on it: the neighbour is
    // either coloured or not yet visited.
    std::size_t top = visit(0, kNoParent);
    while (top != kNoParent) {
      Frame& frame = frames_[top];
      const local::LocalVertex u = frame.vertex;
      const auto ports = view.ports[u];
      if (frame.next_port < ports.size()) {
        const local::LocalVertex target = ports[frame.next_port++];
        if (target == local::kUnknownTarget) return std::nullopt;
        if (view.ids[target] > view.ids[u] && colour_[target] == kUncoloured) {
          top = visit(target, top);
        }
        continue;
      }
      // Every higher neighbour is coloured: take the smallest colour they
      // leave free, which is at most the degree.
      taken_.assign(ports.size() + 1, 0);
      for (const local::LocalVertex target : ports) {
        if (view.ids[target] <= view.ids[u]) continue;
        const auto c = static_cast<std::size_t>(colour_[target]);
        if (c < taken_.size()) taken_[c] = 1;
      }
      colour_[u] = std::find(taken_.begin(), taken_.end(), 0) - taken_.begin();
      top = frame.parent;
    }
    return colour_[0];
  }

  std::size_t visit(local::LocalVertex u, std::size_t parent) {
    frames_.push_back({u, 0, parent});
    return frames_.size() - 1;
  }

  // Sized to the largest ball seen, never to the graph; colour_ holds
  // kUncoloured outside a call.
  std::vector<std::int64_t> colour_;
  std::vector<Frame> frames_;
  std::vector<char> taken_;
};

}  // namespace

local::AlgorithmFactory make_greedy_colouring_messages() {
  return [] { return std::make_unique<GreedyColouringMessages>(); };
}

local::ViewAlgorithmFactory make_greedy_colouring_view() {
  return [] { return std::make_unique<GreedyColouringView>(); };
}

}  // namespace avglocal::algo
