#include "algo/local_colouring.hpp"

#include <array>
#include <optional>
#include <span>
#include <stdexcept>

#include "algo/colour_reduction.hpp"
#include "local/message.hpp"
#include "support/assert.hpp"

namespace avglocal::algo {

namespace {

/// State snapshot of a vertex, as carried in every message.
struct NodeState {
  std::uint64_t id = 0;
  std::uint64_t colour = 0;
  bool frozen = false;
  bool candidate = false;
  bool sixfinal = false;
};

/// The wire form of a NodeState: five words, sent from the stack.
constexpr std::size_t kStateWords = 5;
using StateWords = std::array<std::uint64_t, kStateWords>;

StateWords encode(const NodeState& s) {
  return {s.id, s.colour, std::uint64_t{s.frozen}, std::uint64_t{s.candidate},
          std::uint64_t{s.sixfinal}};
}

/// Reads a StateWords payload in place: one length check, no decoder.
NodeState decode(std::span<const std::uint64_t> payload) {
  if (payload.size() < kStateWords) throw std::out_of_range("wire: truncated payload");
  return NodeState{payload[0], payload[1], payload[2] != 0, payload[3] != 0, payload[4] != 0};
}

/// Smallest colour in [0, limit) different from both exclusions.
std::uint64_t smallest_free_below(std::uint64_t limit, std::uint64_t a, std::uint64_t b) {
  for (std::uint64_t c = 0; c < limit; ++c) {
    if (c != a && c != b) return c;
  }
  AVGLOCAL_REQUIRE_MSG(false, "no free colour under two exclusions");
  return 0;  // unreachable
}

class LocalThreeColouring final : public local::Algorithm {
 public:
  void on_start(local::NodeContext& ctx) override {
    AVGLOCAL_REQUIRE_MSG(ctx.degree() == 2, "ring colouring requires degree 2");
    colour_ = ctx.id();
    frozen_ = colour_ < 6;
    snapshot_self_();
    ctx.broadcast(encode(current_state(ctx)));
  }

  void on_round(local::NodeContext& ctx, std::span<const local::Message> inbox) override {
    // One message per port, so two messages on a degree-2 node are one
    // from each neighbour.
    AVGLOCAL_REQUIRE_MSG(inbox.size() == 2, "ring colouring expects both neighbours");
    std::array<NodeState, 2> received;
    for (const local::Message& msg : inbox) received[msg.from_port] = decode(msg.payload);
    const NodeState& succ = received[0];
    const NodeState& pred = received[1];

    const std::size_t phase = ctx.round() % 3;
    if (phase == 1) {
      // `received` are the end-of-phase-0 states: a snapshot coherent with
      // self_snapshot_. Latch six-finality and compute repair candidacy.
      snap_nbr_[0] = succ;
      snap_nbr_[1] = pred;
      const bool conflict = (succ.frozen && succ.colour == self_snapshot_.colour) ||
                            (pred.frozen && pred.colour == self_snapshot_.colour);
      if (!sixfinal_ && self_snapshot_.frozen && succ.frozen && pred.frozen && !conflict) {
        sixfinal_ = true;
      }
      candidate_ = self_snapshot_.frozen && !self_snapshot_.sixfinal && conflict;
    } else if (phase == 2 && snap_nbr_[0] && snap_nbr_[1]) {
      // `received` carry the candidacies the neighbours computed on the same
      // snapshot; apply at most one move.
      apply_moves(ctx, succ, pred);
    }

    // Synchronous bit reduction for active vertices, then the freeze rule.
    if (!frozen_) {
      colour_ = cv_reduce(colour_, succ.colour);
      if (colour_ < 6) frozen_ = true;
    }

    if (!ctx.has_output() && sixfinal_ && colour_ < 3) {
      ctx.output(static_cast<std::int64_t>(colour_));
    }
    if (phase == 0) snapshot_self_();
    ctx.broadcast(encode(current_state(ctx)));
  }

  /// After output, the broadcast {id, colour_, frozen_, candidate_,
  /// sixfinal_} is constant:
  ///  - output needs sixfinal_ and colour_ < 3; sixfinal_ is only ever set
  ///    (phase 1), and it needs self_snapshot_.frozen, and frozen_ is only
  ///    ever set, so frozen_ is true too;
  ///  - candidate_ is false: the phase-1 round that sets sixfinal_ needs
  ///    !conflict, so it assigns candidate_ false, and every later phase 1
  ///    reads a self_snapshot_ taken after it, with sixfinal true, and
  ///    assigns false again;
  ///  - colour_ stays: cv_reduce runs only while !frozen_, the repair move
  ///    only while candidate_, and elimination only while colour_ >= 3.
  bool halts_after_output() const noexcept override { return true; }

  bool reset() noexcept override {
    colour_ = 0;
    frozen_ = false;
    candidate_ = false;
    sixfinal_ = false;
    self_snapshot_ = NodeState{};
    snap_nbr_ = {};
    return true;
  }

 private:
  void apply_moves(local::NodeContext& ctx, const NodeState& succ, const NodeState& pred) {
    const NodeState& snap_succ = *snap_nbr_[0];
    const NodeState& snap_pred = *snap_nbr_[1];
    if (candidate_) {
      // Repair: move only when strictly prior to every adjacent candidate.
      const bool beats_succ = !succ.candidate || ctx.id() > succ.id;
      const bool beats_pred = !pred.candidate || ctx.id() > pred.id;
      if (beats_succ && beats_pred) {
        colour_ = smallest_free_below(6, snap_succ.colour, snap_pred.colour);
        candidate_ = false;
      }
      return;
    }
    // Eliminate: strict local maximum among settled vertices moves below 3.
    if (sixfinal_ && colour_ >= 3 && snap_succ.sixfinal && snap_pred.sixfinal &&
        colour_ > snap_succ.colour && colour_ > snap_pred.colour) {
      colour_ = smallest_free_below(3, snap_succ.colour, snap_pred.colour);
    }
  }

  NodeState current_state(const local::NodeContext& ctx) const {
    return NodeState{ctx.id(), colour_, frozen_, candidate_, sixfinal_};
  }

  void snapshot_self_() {
    self_snapshot_ = NodeState{0, colour_, frozen_, candidate_, sixfinal_};
  }

  std::uint64_t colour_ = 0;
  bool frozen_ = false;
  bool candidate_ = false;
  bool sixfinal_ = false;
  NodeState self_snapshot_;
  std::array<std::optional<NodeState>, 2> snap_nbr_;
};

}  // namespace

local::AlgorithmFactory make_local_three_colouring() {
  return [] { return std::make_unique<LocalThreeColouring>(); };
}

}  // namespace avglocal::algo
