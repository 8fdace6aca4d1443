#include "local/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "local/message_arena.hpp"
#include "support/annotations.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

// Flat-memory engine: the per-round in-flight state lives in two
// MessageArenas (one being written, one being delivered) indexed by the
// graph's CSR arc offsets, and every delivery resolves the sender-side slot
// through a precomputed O(1) mirror-arc table. All buffers - arenas, inbox,
// contexts, node lists - are allocated during construction/warm-up and
// reused, so the steady-state round loop performs no heap allocations.
//
// Everything the constructor builds is identifier-independent (topology
// tables, arenas, contexts up to the id field), so one engine serves a
// whole batch of id-assignments: bind() re-points the contexts at the next
// assignment, clears the arenas and resets (or, for algorithms that do not
// support reset(), reconstructs) the per-node instances.
//
// Halting (Algorithm::halts_after_output): a node that outputs in round R
// leaves the active list and is not called again. Its round-R sends are
// delivered in round R+1 from the ping-pong arena as usual; at the start
// of round R+2, before that arena is cleared, they are copied once into
// the standing store, a third arena that keeps them for the rest of the
// run. Receivers drain the union of the delivering arena and the standing
// store; an arc is in at most one of them, since its sender is either
// active or halted. Until some send stands, a round runs the plain
// single-arena scan, and an algorithm that does not halt runs the plain
// loop over every vertex.
class Engine {
 public:
  Engine(const graph::Graph& g, const AlgorithmFactory& factory, const EngineOptions& options)
      : g_(&g), factory_(factory), options_(options) {
    const std::size_t n = g.vertex_count();
    contexts_.resize(n);
    algorithms_.reserve(n);
    std::size_t max_degree = 0;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (options.knowledge == Knowledge::kKnowsN) contexts_[v].n_ = support::checked_u32(n);
      contexts_[v].degree_ = support::checked_u32(g.degree(v));
      contexts_[v].outgoing_ = &outgoing_;
      max_degree = std::max(max_degree, g.degree(v));
      algorithms_.push_back(factory_());
      AVGLOCAL_REQUIRE_MSG(algorithms_.back() != nullptr, "algorithm factory returned null");
    }
    // mirror_arc_[arc(v, q)] = arc(u, mirror_port(v, q)): the receiver-side
    // arc of a send from v on port q, resolved once via the graph's O(1)
    // table. Sends bind straight to this slot, so each round's delivery at
    // a vertex is a wide bitmask scan over its own contiguous arc window -
    // no indirection per arc on the read side. 32 bits per entry (the
    // builder rejects graphs over 2^32 arcs).
    mirror_arc_.resize(g.arc_count());
    for (graph::Vertex v = 0; v < n; ++v) {
      for (std::size_t q = 0; q < g.degree(v); ++q) {
        const graph::Vertex u = g.neighbour(v, q);
        mirror_arc_[g.arc_index(v, q)] =
            support::checked_u32(g.arc_index(u, g.mirror_port(v, q)));
      }
      contexts_[v].mirror_arcs_ = mirror_arc_.data() + g.arc_index(v, 0);
    }
    arena_a_.attach(g.arc_count());
    arena_b_.attach(g.arc_count());
    outgoing_ = &arena_a_;
    delivering_ = &arena_b_;
    inbox_.resize(max_degree);
    halting_ = n > 0 && algorithms_.front()->halts_after_output();
    if (halting_) {
      standing_.attach(g.arc_count());
      active_.resize(n);
      halted_.resize(n);
    }
  }

  // Contexts hold a pointer to this object's outgoing_ member; copying or
  // moving would leave them sending through the original engine.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const graph::Graph& graph() const noexcept { return *g_; }

  /// Points the engine at the next assignment: fresh ids and node state,
  /// empty arenas, algorithms back in their initial state. Must be called
  /// before every run(), including the first.
  void bind(const graph::IdAssignment& ids) {
    AVGLOCAL_EXPECTS(ids.size() == g_->vertex_count());
    const std::size_t n = g_->vertex_count();
    for (graph::Vertex v = 0; v < n; ++v) {
      contexts_[v].id_ = ids.id_of(v);
      contexts_[v].round_ = 0;
      contexts_[v].output_round_ = NodeContext::kNoOutput;
      if (!algorithms_[v]->reset()) {
        algorithms_[v] = factory_();
        AVGLOCAL_REQUIRE_MSG(algorithms_[v] != nullptr, "algorithm factory returned null");
      }
    }
    // A fresh run must deliver nothing in round 0 and start its sends in an
    // empty arena; begin_round keeps both arenas' capacity.
    arena_a_.begin_round();
    arena_b_.begin_round();
    standing_.begin_round();
    outgoing_ = &arena_a_;
    delivering_ = &arena_b_;
    active_count_ = 0;
    halted_count_ = 0;
    stood_ = 0;
    stand_ready_ = 0;
    total_messages_ = 0;
    total_words_ = 0;
    node_steps_ = 0;
  }

  /// The node state after the last run_rounds(): id, output and output
  /// round.
  const NodeContext& context(graph::Vertex v) const noexcept { return contexts_[v]; }

  /// Steps the nodes of the bound assignment until all have output and
  /// returns the last round. Allocation-free once the arenas, the standing
  /// store and the inbox have reached their high-water marks.
  std::size_t run_rounds() {
    const std::size_t n = g_->vertex_count();
    std::size_t outputs_done = 0;

    // Round 0: on_start sends land in *outgoing_.
    for (graph::Vertex v = 0; v < n; ++v) {
      contexts_[v].round_ = 0;
      algorithms_[v]->on_start(contexts_[v]);
      if (contexts_[v].has_output()) {
        ++outputs_done;
        if (halting_) halted_[halted_count_++] = v;
      } else if (halting_) {
        active_[active_count_++] = v;
      }
    }
    node_steps_ += n;
    record_round(0, outputs_done);

    std::size_t round = 0;
    while (outputs_done < n) {
      ++round;
      if (round > options_.max_rounds || round >= NodeContext::kNoOutput) {
        throw std::runtime_error("message engine: round cap exceeded");
      }
      // Flip the double buffer: last round's sends become this round's
      // deliveries, and the cleared arena collects this round's sends.
      std::swap(outgoing_, delivering_);
      if (halting_) stand_halted_sends();
      outgoing_->begin_round();

      const auto round32 = support::checked_u32(round);
      std::size_t outputs = 0;
      if (!halting_) {
        outputs = step<false, false>(round32);
      } else if (standing_.message_count() == 0) {
        outputs = step<true, false>(round32);
      } else {
        outputs = step<true, true>(round32);
      }
      outputs_done += outputs;
      record_round(round, outputs);
    }
    return round;
  }

  RunResult run() {
    const std::size_t n = g_->vertex_count();
    RunResult result;
    result.rounds = run_rounds();
    result.outputs.resize(n);
    result.radii.resize(n);
    for (graph::Vertex v = 0; v < n; ++v) {
      result.outputs[v] = contexts_[v].output_value();
      result.radii[v] = contexts_[v].output_round();
    }
    result.messages = total_messages_;
    result.words = total_words_;
    result.node_steps = node_steps_;
    return result;
  }

 private:
  // One round over the nodes still stepped: every vertex (kHalting false),
  // or the active list, compacted in place so it stays in vertex order.
  // kStanding drains the union of the delivering arena and the standing
  // store. Returns the outputs committed this round.
  template <bool kHalting, bool kStanding>
  AVGLOCAL_HOT std::size_t step(std::uint32_t round) {
    const std::size_t count = kHalting ? active_count_ : g_->vertex_count();
    std::size_t kept = 0;
    std::size_t outputs = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const graph::Vertex v = kHalting ? active_[i] : support::checked_u32(i);
      NodeContext& ctx = contexts_[v];
      const std::size_t arc_base = g_->arc_index(v, 0);
      const std::size_t arc_end = arc_base + ctx.degree_;
      std::size_t received = 0;
      // Sends landed in the receiver's own arc window (see mirror_arc_),
      // so draining is one wide presence scan over [arc_base, arc_end): a
      // bitmask word per 64 ports, count_trailing_zeros per message -
      // never a per-port test. Zero-copy delivery: the payload span
      // aliases the delivering arena (or the standing store), which no
      // algorithm can write this round (sends go to the other buffer), and
      // the Message contract bounds its lifetime to on_round.
      if constexpr (kStanding) {
        delivering_->for_each_present_with(standing_, arc_base, arc_end, [&](std::size_t arc) {
          AVGLOCAL_ASSERT(!(standing_.has(arc) && delivering_->has(arc)));
          inbox_[received].from_port = arc - arc_base;
          inbox_[received].payload =
              standing_.has(arc) ? standing_.payload(arc) : delivering_->payload(arc);
          ++received;
        });
      } else {
        delivering_->for_each_present(arc_base, arc_end, [&](std::size_t arc) {
          inbox_[received].from_port = arc - arc_base;
          inbox_[received].payload = delivering_->payload(arc);
          ++received;
        });
      }
      ctx.round_ = round;
      const bool had_output = ctx.has_output();
      algorithms_[v]->on_round(ctx, {inbox_.data(), received});
      if (!had_output && ctx.has_output()) {
        ++outputs;
        if constexpr (kHalting) {
          halted_[halted_count_++] = v;
          continue;
        }
      }
      if constexpr (kHalting) active_[kept++] = v;
    }
    if constexpr (kHalting) active_count_ = kept;
    node_steps_ += count;
    return outputs;
  }

  // Called after the flip of round k, before *outgoing_ is cleared: it
  // still holds the round-(k-2) sends. Nodes that halted in round k-2 or
  // earlier and do not stand yet copy those sends into the standing store,
  // a broadcast's words once; from round k on they are delivered from
  // there. Nodes that halted in round k-1 stand next round: this round
  // delivers their last sends from *delivering_.
  void stand_halted_sends() {
    for (; stood_ < stand_ready_; ++stood_) {
      const NodeContext& ctx = contexts_[halted_[stood_]];
      bool stored = false;
      std::span<const std::uint64_t> last;
      std::uint32_t last_offset = 0;
      for (std::size_t port = 0; port < ctx.degree_; ++port) {
        const std::size_t arc = ctx.mirror_arcs_[port];
        if (!outgoing_->has(arc)) continue;
        const std::span<const std::uint64_t> words = outgoing_->payload(arc);
        // Slots sharing stored words share them in the store too.
        if (!stored || words.data() != last.data() || words.size() != last.size()) {
          last_offset = standing_.store(words);
          last = words;
          stored = true;
        }
        standing_.bind(arc, last_offset, support::checked_u32(words.size()));
      }
    }
    stand_ready_ = halted_count_;
  }

  // Per-round message/word totals come straight from the delivering arena
  // and the standing store: the mirror mapping is a bijection on arcs, so
  // every bound message is delivered exactly once during the round. (Round
  // 0 delivers nothing and reads the freshly cleared arenas.)
  void record_round(std::size_t round, std::size_t outputs_set) {
    const std::uint64_t messages = delivering_->message_count() + standing_.message_count();
    const std::uint64_t words = delivering_->word_count() + standing_.word_count();
    total_messages_ += messages;
    total_words_ += words;
    if (options_.trace != nullptr) {
      options_.trace->record(RoundStats{round, messages, words, outputs_set});
    }
  }

  const graph::Graph* g_;
  AlgorithmFactory factory_;
  EngineOptions options_;
  std::vector<NodeContext> contexts_;
  std::vector<std::unique_ptr<Algorithm>> algorithms_;
  std::vector<std::uint32_t> mirror_arc_;  // per arc: receiver-side slot of a send
  MessageArena arena_a_;
  MessageArena arena_b_;
  MessageArena* outgoing_ = nullptr;    // collects this round's sends
  MessageArena* delivering_ = nullptr;  // holds last round's sends
  std::vector<Message> inbox_;          // reused; first `count` entries live
  // Halting state, sized only when the algorithm halts after output.
  bool halting_ = false;
  MessageArena standing_;                // halted nodes' sends, kept all run
  std::vector<graph::Vertex> active_;    // first active_count_ are stepped
  std::vector<graph::Vertex> halted_;    // first halted_count_, in halt order
  std::size_t active_count_ = 0;
  std::size_t halted_count_ = 0;
  std::size_t stood_ = 0;        // halted_[0, stood_) stand
  std::size_t stand_ready_ = 0;  // halted_[0, stand_ready_) stand next round
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_words_ = 0;
  std::uint64_t node_steps_ = 0;
};

RunResult run_messages(const graph::Graph& g, const graph::IdAssignment& ids,
                       const AlgorithmFactory& factory, const EngineOptions& options) {
  Engine engine(g, factory, options);
  engine.bind(ids);
  return engine.run();
}

MessageBatchRunner::MessageBatchRunner(const graph::Graph& g, AlgorithmFactory factory,
                                       const EngineOptions& options)
    : engine_(std::make_unique<Engine>(g, std::move(factory), options)) {}

MessageBatchRunner::~MessageBatchRunner() = default;
MessageBatchRunner::MessageBatchRunner(MessageBatchRunner&&) noexcept = default;

void MessageBatchRunner::run(std::span<const graph::IdAssignment> batch,
                             const ResultSink& sink) {
  const std::size_t n = engine_->graph().vertex_count();
  for (std::size_t trial = 0; trial < batch.size(); ++trial) {
    engine_->bind(batch[trial]);
    engine_->run_rounds();
    for (graph::Vertex v = 0; v < n; ++v) {
      const NodeContext& ctx = engine_->context(v);
      sink(trial, v, ctx.output_value(), ctx.output_round());
    }
  }
}

}  // namespace avglocal::local
