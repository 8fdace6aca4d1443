// The synchronous message-passing engine: the paper's first formulation of
// the LOCAL model.
//
// Processors sit at the vertices of a network, have distinct identifiers and
// work in rounds: each round every processor sends messages to its direct
// neighbours, receives theirs, and computes. In the unknown-n variant a node
// may commit its output at any round yet continues to receive and relay, so
// the run lasts until every node has output. The engine steps a node after
// its output only while its sends may still change: an algorithm whose
// sends are constant from the output round on (halts_after_output) is
// called Σ_v (r(v) + 1) times per run, the paper's node-averaged cost,
// instead of n·(max_v r(v) + 1), and its halted nodes' last sends keep
// being delivered every round.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "local/message.hpp"
#include "local/metrics.hpp"
#include "local/node_context.hpp"
#include "local/trace.hpp"

namespace avglocal::local {

/// Per-node behaviour in the message-passing formulation. One instance per
/// node; implementations hold the node's local state.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// Round 0: no messages have been exchanged; the node knows only what the
  /// context exposes. Typically queues the first messages.
  virtual void on_start(NodeContext& ctx) = 0;

  /// Round k >= 1: inbox holds the messages queued by neighbours in round
  /// k-1, ordered by receiving port.
  virtual void on_round(NodeContext& ctx, std::span<const Message> inbox) = 0;

  /// Returns this instance to its initial state so it can serve a fresh
  /// run, as if newly constructed. Implementations supporting reuse return
  /// true; the default returns false and the engine constructs a new
  /// instance instead. MessageBatchRunner calls this once per (node,
  /// assignment), so supporting it removes n allocations per trial.
  virtual bool reset() noexcept { return false; }

  /// Returning true promises that the sends this node makes in its output
  /// round - the round of its ctx.output() call, after which it may still
  /// send - are exactly the sends it would make in every later round:
  /// the same ports, the same words. The engine then stops calling the
  /// node after its output round, delivers those sends again every later
  /// round, and counts them as delivered messages, so outputs, radii,
  /// RunResult counters and Trace stats equal those of a run that keeps
  /// calling it. What the node would receive after output cannot change
  /// its sends, so it is not handed over. The engine asks one instance
  /// per engine; every instance a factory makes must answer alike.
  virtual bool halts_after_output() const noexcept { return false; }
};

/// Creates one Algorithm instance per node.
using AlgorithmFactory = std::function<std::unique_ptr<Algorithm>()>;

/// Whether nodes are told the network size n (the classic LOCAL setting) or
/// not (the setting of this paper, following [KSV13]).
enum class Knowledge {
  kUnknownN,
  kKnowsN,
};

struct EngineOptions {
  Knowledge knowledge = Knowledge::kUnknownN;

  /// Guard against non-terminating algorithms; exceeding throws
  /// std::runtime_error.
  std::size_t max_rounds = 1u << 20;

  /// Optional per-round statistics sink (not owned).
  Trace* trace = nullptr;
};

/// Runs the algorithm on every node of g until all nodes have output.
/// RunResult.radii[v] is the round at which v output, which under full
/// information equals the radius of the ball v has seen.
RunResult run_messages(const graph::Graph& g, const graph::IdAssignment& ids,
                       const AlgorithmFactory& factory, const EngineOptions& options = {});

class Engine;

/// A persistent handle on ONE arena-backed message engine bound to
/// (graph, factory, options): topology tables, message arenas, inbox and
/// contexts are built once at construction and rebound per assignment, and
/// algorithm instances whose reset() returns true are reused instead of
/// reconstructed. The engine survives across run() calls, so callers that
/// revisit a point - adaptive trial rounds, per-worker trial ranges of a
/// pooled sweep - pay the warm-up exactly once. Results are bit-identical to a run_messages call per assignment
/// for every call pattern (a test pins this). Not thread-safe: one runner
/// per worker.
class MessageBatchRunner {
 public:
  MessageBatchRunner(const graph::Graph& g, AlgorithmFactory factory,
                     const EngineOptions& options = {});
  ~MessageBatchRunner();
  MessageBatchRunner(MessageBatchRunner&&) noexcept;

  /// Runs every id-assignment of `batch` through the persistent engine;
  /// `trial` in the sink is the index within this batch, and the sink sees
  /// every node of trial t, in vertex order, before any node of trial t+1.
  /// The steady-state round loop stays allocation-free, and with resettable
  /// algorithms the whole per-trial loop allocates nothing after warm-up.
  void run(std::span<const graph::IdAssignment> batch, const ResultSink& sink);

 private:
  std::unique_ptr<Engine> engine_;
};

}  // namespace avglocal::local
