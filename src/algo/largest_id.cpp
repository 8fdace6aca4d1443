#include "algo/largest_id.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <vector>

#include "graph/properties.hpp"
#include "local/view.hpp"
#include "local/wire.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"
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

/// Origin identifier -> the hop counts of its token as heard on port 0 and
/// port 1 (0 = not heard yet; a token arrives with hops >= 1). Open
/// addressing with linear probing at load <= 1/2, owned by one node's
/// instance and reused across trials: capacity grows only until the table
/// has held the largest trial's origins, and reset() is O(1) - it bumps a
/// generation stamp, so every slot stamped earlier reads as empty. Any
/// 64-bit identifier is a key; there is no sentinel.
class OriginTable {
 public:
  using Hops = std::array<std::uint32_t, 2>;

  /// The entry of `origin`, inserted unheard on both ports if absent.
  Hops& at(std::uint64_t origin) {
    if (slots_.empty()) grow();
    Slot* slot = &probe(origin);
    if (slot->stamp != generation_) {
      if (2 * (size_ + 1) > slots_.size()) {
        grow();
        slot = &probe(origin);
      }
      *slot = Slot{origin, generation_, {0, 0}};
      ++size_;
    }
    return slot->hops;
  }

  /// Distinct origins inserted since the last reset().
  std::size_t size() const noexcept { return size_; }

  void reset() noexcept {
    size_ = 0;
    if (++generation_ == 0) {
      // The stamp wrapped: a slot stamped 2^32 resets ago would read as
      // live, so empty every slot explicitly.
      for (Slot& slot : slots_) slot.stamp = 0;
      generation_ = 1;
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t stamp = 0;  ///< live iff == generation_
    Hops hops{};
  };

  /// The slot holding `origin`, else the empty slot ending its probe run.
  Slot& probe(std::uint64_t origin) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of origin * 2^64/phi spread
    // consecutive identifiers (the common 1..n permutation) evenly.
    std::size_t i = (origin * 0x9e3779b97f4a7c15ULL) >> shift_;
    while (slots_[i].stamp == generation_ && slots_[i].key != origin) i = (i + 1) & mask;
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.stamp == generation_) probe(slot.key) = slot;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64;  ///< 64 - log2(capacity)
  std::uint32_t generation_ = 1;
  std::size_t size_ = 0;
};

/// Message-passing variant: floods (origin, hops) tokens. See header.
/// Allocation-free after warm-up: the relay payloads and the origin table
/// keep their capacity across rounds and trials.
class LargestIdMessages final : public local::Algorithm {
 public:
  void on_start(local::NodeContext& ctx) override {
    AVGLOCAL_REQUIRE_MSG(ctx.degree() == 2, "message largest-ID runs on cycles");
    const std::array<std::uint64_t, 3> token{1, ctx.id(), 1};  // one token: (self, hops=1)
    ctx.broadcast(token);
  }

  void on_round(local::NodeContext& ctx, std::span<const local::Message> inbox) override {
    // forward_[q] collects the tokens to relay out of port q this round,
    // behind a count word patched once the inbox is drained.
    for (local::Payload& out : forward_) out.assign(1, 0);
    for (const local::Message& msg : inbox) {
      local::Decoder d(msg.payload);
      const std::uint64_t count = d.u64();
      local::Payload& out = forward_[1 - msg.from_port];
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t origin = d.u64();
        const std::uint64_t hops = d.u64();
        if (ingest(ctx, origin, hops, msg.from_port)) {
          out.push_back(origin);
          out.push_back(hops + 1);
        }
      }
    }
    for (std::size_t q = 0; q < 2; ++q) {
      local::Payload& out = forward_[q];
      if (out.size() == 1) continue;
      out[0] = (out.size() - 1) / 2;
      ctx.send(q, out);
    }
    decide(ctx);
  }

  bool reset() noexcept override {
    best_ = 0;
    n_.reset();
    seen_.reset();
    return true;
  }

 private:
  /// Records a token heard on port `side`; true when it must be relayed.
  bool ingest(const local::NodeContext& ctx, std::uint64_t origin, std::uint64_t hops,
              std::size_t side) {
    best_ = std::max(best_, origin);
    if (origin == ctx.id()) {
      // Our own token went all the way around: hops == n.
      n_ = hops;
      return false;
    }
    OriginTable::Hops& sides = seen_.at(origin);
    sides[side] = support::checked_u32(hops);
    if (sides[0] == 0 || sides[1] == 0) return true;
    n_ = std::size_t{sides[0]} + sides[1];
    return false;
  }

  void decide(local::NodeContext& ctx) {
    if (ctx.has_output()) return;
    if (best_ > ctx.id()) {
      ctx.output(kNo);
    } else if (n_ && seen_.size() + 1 == *n_) {
      ctx.output(kYes);
    }
  }

  std::uint64_t best_ = 0;
  std::optional<std::size_t> n_;
  OriginTable seen_;
  std::array<local::Payload, 2> forward_;
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

std::uint64_t largest_id_radius_sum_on_cycle(const graph::IdAssignment& ids) {
  std::uint64_t sum = 0;
  for (std::size_t r : largest_id_radii_on_cycle(ids)) sum += r;
  return sum;
}

}  // namespace avglocal::algo
