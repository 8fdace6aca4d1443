#include "local/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "local/message_arena.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

// Flat-memory engine: the per-round in-flight state lives in two
// MessageArenas (one being written, one being delivered) indexed by the
// graph's CSR arc offsets, and every delivery resolves the sender-side slot
// through a precomputed O(1) mirror-arc table. All buffers - arenas, inbox,
// contexts - are allocated during construction/warm-up and reused, so the
// steady-state round loop performs no heap allocations.
//
// Everything the constructor builds is identifier-independent (topology
// tables, arenas, contexts up to the id field), so one engine serves a
// whole batch of id-assignments: bind() re-points the contexts at the next
// assignment, clears the arenas and resets (or, for algorithms that do not
// support reset(), reconstructs) the per-node instances.
class Engine {
 public:
  Engine(const graph::Graph& g, const AlgorithmFactory& factory, const EngineOptions& options)
      : g_(&g), factory_(factory), options_(options) {
    const std::size_t n = g.vertex_count();
    contexts_.resize(n);
    algorithms_.reserve(n);
    std::size_t max_degree = 0;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (options.knowledge == Knowledge::kKnowsN) contexts_[v].n_ = n;
      contexts_[v].degree_ = g.degree(v);
      contexts_[v].outgoing_ = &outgoing_;
      contexts_[v].arc_base_ = g.arc_index(v, 0);
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
    }
    for (graph::Vertex v = 0; v < n; ++v) {
      contexts_[v].mirror_arcs_ = mirror_arc_.data() + contexts_[v].arc_base_;
    }
    arena_a_.attach(g.arc_count());
    arena_b_.attach(g.arc_count());
    outgoing_ = &arena_a_;
    delivering_ = &arena_b_;
    inbox_.resize(max_degree);
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
      contexts_[v].output_.reset();
      contexts_[v].output_round_ = 0;
      if (!algorithms_[v]->reset()) {
        algorithms_[v] = factory_();
        AVGLOCAL_REQUIRE_MSG(algorithms_[v] != nullptr, "algorithm factory returned null");
      }
    }
    // A fresh run must deliver nothing in round 0 and start its sends in an
    // empty arena; begin_round keeps both arenas' capacity.
    arena_a_.begin_round();
    arena_b_.begin_round();
    outgoing_ = &arena_a_;
    delivering_ = &arena_b_;
    total_messages_ = 0;
    total_words_ = 0;
  }

  /// The node state after the last run_rounds(): id, output and output
  /// round.
  const NodeContext& context(graph::Vertex v) const noexcept { return contexts_[v]; }

  /// Steps every node of the bound assignment until all have output and
  /// returns the last round. Allocation-free once the arenas and inbox
  /// have reached their high-water marks.
  std::size_t run_rounds() {
    const std::size_t n = g_->vertex_count();
    std::size_t outputs_done = 0;

    // Round 0: on_start sends land in *outgoing_.
    for (graph::Vertex v = 0; v < n; ++v) {
      contexts_[v].round_ = 0;
      algorithms_[v]->on_start(contexts_[v]);
      if (contexts_[v].has_output()) ++outputs_done;
    }
    record_round(0, outputs_done);

    std::size_t round = 0;
    while (outputs_done < n) {
      ++round;
      if (round > options_.max_rounds) {
        throw std::runtime_error("message engine: round cap exceeded");
      }
      // Flip the double buffer: last round's sends become this round's
      // deliveries, and the cleared arena collects this round's sends.
      std::swap(outgoing_, delivering_);
      outgoing_->begin_round();

      const std::size_t outputs_before = outputs_done;
      for (graph::Vertex v = 0; v < n; ++v) {
        const std::size_t degree = g_->degree(v);
        const std::size_t arc_base = contexts_[v].arc_base_;
        std::size_t count = 0;
        // Sends landed in the receiver's own arc window (see mirror_arc_),
        // so draining is one wide presence scan over [arc_base, arc_base +
        // degree): a bitmask word per 64 ports, count_trailing_zeros per
        // message - never a per-port test. Zero-copy delivery: the payload
        // span aliases the delivering arena, which no algorithm can write
        // this round (sends go to the other buffer), and the Message
        // contract bounds its lifetime to on_round.
        delivering_->for_each_present(arc_base, arc_base + degree, [&](std::size_t arc) {
          inbox_[count].from_port = arc - arc_base;
          inbox_[count].payload = delivering_->payload(arc);
          ++count;
        });
        contexts_[v].round_ = round;
        const bool had_output = contexts_[v].has_output();
        algorithms_[v]->on_round(contexts_[v], {inbox_.data(), count});
        if (!had_output && contexts_[v].has_output()) ++outputs_done;
      }
      record_round(round, outputs_done - outputs_before);
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
    return result;
  }

 private:
  // Per-round message/word totals come straight from the delivering arena:
  // the mirror mapping is a bijection on arcs, so every bound message is
  // delivered exactly once during the round. (Round 0 delivers nothing and
  // reads the freshly attached, empty arena.)
  void record_round(std::size_t round, std::size_t outputs_set) {
    const std::uint64_t messages = delivering_->message_count();
    const std::uint64_t words = delivering_->word_count();
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
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_words_ = 0;
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
MessageBatchRunner& MessageBatchRunner::operator=(MessageBatchRunner&&) noexcept = default;

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
