#include "algo/largest_id.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "local/view.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::algo {

namespace {

/// Scans only identifiers appended since the previous call: the engine grows
/// views append-only, so each vertex costs O(final ball size) in total.
class LargestIdView final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    for (; scanned_ < view.size(); ++scanned_) {
      if (view.ids[scanned_] > view.root_id()) return kNo;
    }
    if (view.covers_graph) return kYes;
    return std::nullopt;
  }

  bool reset() noexcept override {
    scanned_ = 0;
    return true;
  }

  /// A 1-vertex non-covering view can never contain a larger identifier.
  std::size_t min_radius() const noexcept override { return 1; }

  /// Only identifiers and coverage are consulted, never edges.
  bool ids_only_view() const noexcept override { return true; }

 private:
  std::size_t scanned_ = 0;
};

class LargestIdUniverseAwareView final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    for (; scanned_ < view.size(); ++scanned_) {
      if (view.ids[scanned_] > view.root_id()) return kNo;
    }
    if (view.covers_graph) return kYes;
    // Open ball spanning at least x vertices: every completion is strictly
    // larger, and a permutation universe {1..n'} then contains an
    // identifier above x.
    if (view.size() >= view.root_id()) return kNo;
    return std::nullopt;
  }

  bool reset() noexcept override {
    scanned_ = 0;
    return true;
  }

  /// Only identifiers, ball size and coverage are consulted, never edges.
  bool ids_only_view() const noexcept override { return true; }

 private:
  std::size_t scanned_ = 0;
};

/// Message-passing variant on a cycle. See header. In round k port p
/// delivers the origin at distance k on that side, so the antipode arrives on
/// both ports in round n/2 (even n), or on one in round (n-1)/2 and on the
/// other in the next (odd n). Before that no origin arrives twice, so only the
/// previous round's arrivals need remembering. Relays never stop: the engine
/// stops once every node has output, by round ceil(n/2).
class LargestIdMessages final : public local::Algorithm {
 public:
  void on_start(local::NodeContext& ctx) override {
    AVGLOCAL_REQUIRE_MSG(ctx.degree() == 2, "message largest-ID runs on cycles");
    const std::array<std::uint64_t, 1> token{ctx.id()};
    ctx.broadcast(token);
  }

  void on_round(local::NodeContext& ctx, std::span<const local::Message> inbox) override {
    Heard heard;
    for (const local::Message& msg : inbox) {
      const std::uint64_t origin = msg.payload[0];
      heard[msg.from_port] = origin;
      best_ = std::max(best_, origin);
      const std::array<std::uint64_t, 1> token{origin};
      ctx.send(1 - msg.from_port, token);
    }
    if (!ctx.has_output()) {
      if (best_ > ctx.id()) {
        ctx.output(kNo);
      } else if (closes(heard)) {
        ctx.output(kYes);
      }
    }
    previous_ = heard;
  }

  bool reset() noexcept override {
    best_ = 0;
    previous_ = {};
    return true;
  }

 private:
  /// The origin delivered on each port in one round, if any. Every 64-bit
  /// value is an identifier, so absence needs its own flag.
  using Heard = std::array<std::optional<std::uint64_t>, 2>;

  /// Whether one origin has now arrived on both ports: in this round, or on
  /// one port in the previous round and on the other in this one.
  bool closes(const Heard& heard) const noexcept {
    for (std::size_t p = 0; p < 2; ++p) {
      if (heard[p] && (heard[p] == heard[1 - p] || heard[p] == previous_[1 - p])) return true;
    }
    return false;
  }

  std::uint64_t best_ = 0;
  Heard previous_;
};

}  // namespace

local::ViewAlgorithmFactory make_largest_id_view() {
  return [] { return std::make_unique<LargestIdView>(); };
}

local::ViewAlgorithmFactory make_largest_id_universe_aware_view() {
  return [] { return std::make_unique<LargestIdUniverseAwareView>(); };
}

local::AlgorithmFactory make_largest_id_messages() {
  return [] { return std::make_unique<LargestIdMessages>(); };
}

std::vector<std::size_t> largest_id_radii_on_cycle(const graph::IdAssignment& ids) {
  const std::size_t n = ids.size();
  AVGLOCAL_EXPECTS_MSG(n >= 3, "cycle needs at least 3 vertices");
  const std::size_t cover_radius = n / 2;  // == ceil((n-1)/2)

  // Distance to the nearest strictly larger identifier in each direction via
  // a monotonic stack over the doubled sequence (O(n)).
  std::vector<std::size_t> nearest(n, n);  // n = "none"
  const auto sweep = [&](bool rightwards) {
    std::vector<std::size_t> stack;  // positions with decreasing ids
    for (std::size_t step = 0; step < 2 * n; ++step) {
      const std::size_t pos = rightwards ? (2 * n - 1 - step) % n : step % n;
      // Pop smaller-or-equal ids: they found their nearest greater at pos.
      while (!stack.empty() && ids.id_of(support::checked_u32(stack.back())) <
                                   ids.id_of(support::checked_u32(pos))) {
        const std::size_t w = stack.back();
        stack.pop_back();
        const std::size_t dist = rightwards ? (w + n - pos) % n : (pos + n - w) % n;
        if (dist != 0) nearest[w] = std::min(nearest[w], dist);
      }
      stack.push_back(pos);
    }
  };
  sweep(false);  // nearest greater scanning forward (distance measured cw)
  sweep(true);   // and backwards
  std::vector<std::size_t> radii(n);
  for (std::size_t v = 0; v < n; ++v) radii[v] = std::min(nearest[v], cover_radius);
  return radii;
}

}  // namespace avglocal::algo
