// Tests of the message-passing engine: synchrony, guards, knowledge modes,
// tracing, the message arena's bit scans, and the full-information
// adapter's equivalence with the ball engine under flooding semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/largest_id.hpp"
#include "algo/registry.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/engine.hpp"
#include "local/full_info.hpp"
#include "local/message_arena.hpp"
#include "local/view_engine.hpp"
#include "local/wire.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;
using local::Message;
using local::NodeContext;

/// Outputs its own id immediately, never sends anything.
class OutputImmediately final : public local::Algorithm {
 public:
  void on_start(NodeContext& ctx) override { ctx.output(static_cast<std::int64_t>(ctx.id())); }
  void on_round(NodeContext&, std::span<const Message>) override {}
};

TEST(Engine, ImmediateOutputsFinishAtRoundZero) {
  const auto g = graph::make_cycle(5);
  const auto ids = graph::IdAssignment::identity(5);
  const auto run =
      local::run_messages(g, ids, [] { return std::make_unique<OutputImmediately>(); });
  EXPECT_EQ(run.rounds, 0u);
  EXPECT_EQ(run.messages, 0u);
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_EQ(run.radii[v], 0u);
    EXPECT_EQ(run.outputs[v], static_cast<std::int64_t>(v + 1));
  }
}

/// Counts rounds; outputs at round k. Verifies synchrony and inbox content.
class PingPong final : public local::Algorithm {
 public:
  explicit PingPong(std::size_t stop_round) : stop_round_(stop_round) {}

  void on_start(NodeContext& ctx) override {
    local::Encoder e;
    e.u64(ctx.id());
    ctx.broadcast(e.take());
  }

  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    // On a cycle every node hears from both neighbours every round.
    EXPECT_EQ(inbox.size(), 2u);
    EXPECT_EQ(inbox[0].from_port, 0u);
    EXPECT_EQ(inbox[1].from_port, 1u);
    if (ctx.round() == stop_round_ && !ctx.has_output()) {
      local::Decoder d(inbox[0].payload);
      ctx.output(static_cast<std::int64_t>(d.u64()));
    }
    local::Encoder e;
    e.u64(ctx.id());
    ctx.broadcast(e.take());
  }

 private:
  std::size_t stop_round_;
};

TEST(Engine, SynchronousRoundsAndPortRouting) {
  const std::size_t n = 6;
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::identity(n);
  const auto run =
      local::run_messages(g, ids, [] { return std::make_unique<PingPong>(3); });
  EXPECT_EQ(run.rounds, 3u);
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(run.radii[v], 3u);
    // Port 0 leads to the clockwise successor; its id is v+2 (mod n, 1-based).
    EXPECT_EQ(run.outputs[v], static_cast<std::int64_t>((v + 1) % n + 1));
  }
  // The engine counts *delivered* messages: sends from rounds 0..2 arrive in
  // rounds 1..3; the final round's sends are never delivered.
  EXPECT_EQ(run.messages, n * 2 * 3);
}

TEST(Engine, KnowledgeModes) {
  const auto g = graph::make_cycle(4);
  const auto ids = graph::IdAssignment::identity(4);

  class NReporter final : public local::Algorithm {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.output(ctx.n().has_value() ? static_cast<std::int64_t>(*ctx.n()) : -1);
    }
    void on_round(NodeContext&, std::span<const Message>) override {}
  };

  local::EngineOptions unknown;
  const auto run_unknown =
      local::run_messages(g, ids, [] { return std::make_unique<NReporter>(); }, unknown);
  EXPECT_EQ(run_unknown.outputs[0], -1);

  local::EngineOptions knows;
  knows.knowledge = local::Knowledge::kKnowsN;
  const auto run_knows =
      local::run_messages(g, ids, [] { return std::make_unique<NReporter>(); }, knows);
  EXPECT_EQ(run_knows.outputs[0], 4);
}

TEST(Engine, GuardsRejectBadSends) {
  const auto g = graph::make_cycle(3);
  const auto ids = graph::IdAssignment::identity(3);

  class BadPort final : public local::Algorithm {
   public:
    void on_start(NodeContext& ctx) override { ctx.send(5, {}); }
    void on_round(NodeContext&, std::span<const Message>) override {}
  };
  EXPECT_THROW(local::run_messages(g, ids, [] { return std::make_unique<BadPort>(); }),
               std::invalid_argument);

  class DoubleSend final : public local::Algorithm {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.send(0, {});
      ctx.send(0, {});
    }
    void on_round(NodeContext&, std::span<const Message>) override {}
  };
  EXPECT_THROW(local::run_messages(g, ids, [] { return std::make_unique<DoubleSend>(); }),
               std::invalid_argument);

  class DoubleOutput final : public local::Algorithm {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.output(1);
      ctx.output(2);
    }
    void on_round(NodeContext&, std::span<const Message>) override {}
  };
  EXPECT_THROW(local::run_messages(g, ids, [] { return std::make_unique<DoubleOutput>(); }),
               std::logic_error);
}

TEST(Engine, RoundCapThrows) {
  const auto g = graph::make_cycle(3);
  const auto ids = graph::IdAssignment::identity(3);

  class Silent final : public local::Algorithm {
   public:
    void on_start(NodeContext&) override {}
    void on_round(NodeContext&, std::span<const Message>) override {}
  };
  local::EngineOptions options;
  options.max_rounds = 50;
  EXPECT_THROW(
      local::run_messages(g, ids, [] { return std::make_unique<Silent>(); }, options),
      std::runtime_error);
}

TEST(Engine, TraceRecordsRounds) {
  const auto g = graph::make_cycle(5);
  const auto ids = graph::IdAssignment::identity(5);
  local::Trace trace;
  local::EngineOptions options;
  options.trace = &trace;
  local::run_messages(g, ids, [] { return std::make_unique<PingPong>(2); }, options);
  ASSERT_EQ(trace.rounds().size(), 3u);  // rounds 0, 1, 2
  EXPECT_EQ(trace.rounds()[0].round, 0u);
  EXPECT_EQ(trace.rounds()[2].outputs_set, 5u);
  std::size_t total_outputs = 0;
  for (const auto& r : trace.rounds()) total_outputs += r.outputs_set;
  EXPECT_EQ(total_outputs, 5u);
}

// ---- message arena: stored once, bound many times --------------------------

TEST(MessageArena, OneStoreBoundToThreeArcsAliases) {
  local::MessageArena arena;
  arena.attach(8);
  const std::array<std::uint64_t, 4> words{3, 1, 4, 1};
  const std::uint32_t offset = arena.store(words);
  for (const std::size_t arc : {1u, 5u, 6u}) EXPECT_TRUE(arena.bind(arc, offset, 4));
  EXPECT_EQ(arena.message_count(), 3u);
  EXPECT_EQ(arena.word_count(), 3u * words.size());
  EXPECT_EQ(arena.stored_word_count(), words.size());
  for (const std::size_t arc : {1u, 5u, 6u}) {
    const auto payload = arena.payload(arc);
    EXPECT_EQ(payload.data(), arena.payload(1).data()) << "arc " << arc;
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), words.begin(), words.end()));
  }
  EXPECT_FALSE(arena.has(0));
}

TEST(MessageArena, RejectedBindChangesNothing) {
  local::MessageArena arena;
  arena.attach(4);
  const std::array<std::uint64_t, 2> words{8, 9};
  const std::uint32_t offset = arena.store(words);
  ASSERT_TRUE(arena.bind(2, offset, 2));
  EXPECT_FALSE(arena.bind(2, offset, 2));
  EXPECT_FALSE(arena.bind(2, 0, 0));
  EXPECT_EQ(arena.message_count(), 1u);
  EXPECT_EQ(arena.word_count(), 2u);
  EXPECT_EQ(arena.stored_word_count(), 2u);
  ASSERT_EQ(arena.payload(2).size(), 2u);
  EXPECT_EQ(arena.payload(2)[1], 9u);
}

/// What the neighbours of vertex 0 heard in round 1: the first word and the
/// address of each payload, by receiving vertex.
struct Heard {
  std::array<std::uint64_t, 3> word{};
  std::array<const std::uint64_t*, 3> data{};
  std::array<std::size_t, 3> count{};
};

/// Vertex 0 of a 3-cycle queues {10} on `first_port`, then tries a second
/// send on that port and a broadcast (both must throw the port-taken
/// error), then queues {13} on the other port. Every vertex outputs in
/// round 1 after logging what it received.
class RejectedSends final : public local::Algorithm {
 public:
  RejectedSends(std::size_t first_port, Heard* heard) : first_port_(first_port), heard_(heard) {}

  void on_start(NodeContext& ctx) override {
    if (ctx.id() != 1) return;
    const std::array<std::uint64_t, 1> first{10};
    const std::array<std::uint64_t, 2> second{11, 11};
    const std::array<std::uint64_t, 3> all{12, 12, 12};
    const std::array<std::uint64_t, 1> last{13};
    ctx.send(first_port_, first);
    expect_port_taken([&] { ctx.send(first_port_, second); });
    expect_port_taken([&] { ctx.broadcast(all); });
    ctx.send(1 - first_port_, last);
  }

  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    const std::size_t v = ctx.id() - 1;
    heard_->count[v] = inbox.size();
    for (const Message& msg : inbox) {
      heard_->word[v] = msg.payload[0];
      heard_->data[v] = msg.payload.data();
    }
    ctx.output(0);
  }

 private:
  template <typename Fn>
  static void expect_port_taken(Fn&& fn) {
    try {
      fn();
      ADD_FAILURE() << "expected the port-taken rejection";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "send: one message per port per round");
    }
  }

  std::size_t first_port_;
  Heard* heard_;
};

TEST(Engine, RejectedSendOrBroadcastLeavesTheArenaUnchanged) {
  const auto g = graph::make_cycle(3);
  const auto ids = graph::IdAssignment::identity(3);
  // Port 0 of vertex 0 leads to vertex 1, port 1 to vertex 2. Taking port
  // 0 first is the broadcast-after-send-on-port-0 case; taking port 1 first
  // checks that the broadcast bound nothing on port 0 before it threw.
  for (const std::size_t first_port : {0u, 1u}) {
    Heard heard;
    local::Trace trace;
    local::EngineOptions options;
    options.trace = &trace;
    const auto run = local::run_messages(
        g, ids, [&] { return std::make_unique<RejectedSends>(first_port, &heard); }, options);
    EXPECT_EQ(run.messages, 2u);
    EXPECT_EQ(run.words, 2u);
    ASSERT_EQ(trace.rounds().size(), 2u);
    EXPECT_EQ(trace.rounds()[1].messages, 2u);
    EXPECT_EQ(trace.rounds()[1].words, 2u);
    const std::size_t first = first_port == 0 ? 1 : 2;
    const std::size_t last = 3 - first;
    EXPECT_EQ(heard.count[0], 0u);
    EXPECT_EQ(heard.count[first], 1u);
    EXPECT_EQ(heard.count[last], 1u);
    EXPECT_EQ(heard.word[first], 10u);
    EXPECT_EQ(heard.word[last], 13u);
    // The word cursor did not move for the rejected calls: {13} was stored
    // right after {10}.
    EXPECT_EQ(heard.data[last], heard.data[first] + 1) << "first port " << first_port;
  }
}

// ---- message counters ----------------------------------------------------

/// Per-round trace of one registered message algorithm on a fixed graph and
/// id assignment. `words` counts the words of every delivered message,
/// however the arena shares their storage, so these values do not depend
/// on how a broadcast is stored.
struct CounterCase {
  const char* algorithm;
  const char* graph;  // "cycle" or "regular4"
  std::size_t n;
  std::uint64_t seed;
  std::uint64_t messages;
  std::uint64_t words;
  std::vector<std::uint64_t> round_messages;
  std::vector<std::uint64_t> round_words;
  std::vector<std::size_t> round_outputs;
};

TEST(Engine, RegisteredMessageAlgorithmCountersArePinned) {
  const std::vector<CounterCase> cases = {
      {"largest-id-msg", "cycle", 16, 11, 256, 256,
       {0, 32, 32, 32, 32, 32, 32, 32, 32},
       {0, 32, 32, 32, 32, 32, 32, 32, 32},
       {0, 11, 2, 2, 0, 0, 0, 0, 1}},
      {"local3", "cycle", 16, 12, 448, 2240,
       {0, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32},
       {0, 160, 160, 160, 160, 160, 160, 160, 160, 160, 160, 160, 160, 160, 160},
       {0, 0, 0, 0, 6, 0, 0, 3, 2, 0, 0, 3, 0, 0, 2}},
      {"cv3-msg", "cycle", 16, 13, 192, 192,
       {0, 32, 32, 32, 32, 32, 32},
       {0, 32, 32, 32, 32, 32, 32},
       {0, 0, 0, 0, 0, 0, 16}},
      {"greedy-msg", "regular4", 16, 14, 384, 1152,
       {0, 64, 64, 64, 64, 64, 64},
       {0, 192, 192, 192, 192, 192, 192},
       {0, 3, 4, 3, 2, 2, 2}},
  };
  for (const CounterCase& c : cases) {
    support::Xoshiro256 rng(c.seed);
    const graph::Graph g = std::string(c.graph) == "cycle"
                               ? graph::make_cycle(c.n)
                               : graph::make_random_regular(c.n, 4, rng);
    const auto ids = graph::IdAssignment::random(c.n, rng);
    const algo::AlgorithmInfo& info = algo::AlgorithmRegistry::global().at(c.algorithm);
    local::Trace trace;
    local::EngineOptions options;
    options.knowledge = info.knowledge;
    options.trace = &trace;
    const auto run = local::run_messages(g, ids, info.messages(c.n), options);
    std::vector<std::uint64_t> round_messages;
    std::vector<std::uint64_t> round_words;
    std::vector<std::size_t> round_outputs;
    for (const local::RoundStats& r : trace.rounds()) {
      round_messages.push_back(r.messages);
      round_words.push_back(r.words);
      round_outputs.push_back(r.outputs_set);
    }
    EXPECT_EQ(run.messages, c.messages) << c.algorithm;
    EXPECT_EQ(run.words, c.words) << c.algorithm;
    EXPECT_EQ(round_messages, c.round_messages) << c.algorithm;
    EXPECT_EQ(round_words, c.round_words) << c.algorithm;
    EXPECT_EQ(round_outputs, c.round_outputs) << c.algorithm;
  }
}

// ---- halting after output --------------------------------------------------

/// Sender id -> the payload it delivered first after its output round.
struct HaltLog {
  std::map<std::uint64_t, std::size_t> output_round;
  std::map<std::uint64_t, std::vector<std::uint64_t>> standing;
  std::size_t checked = 0;
};

/// Forwards every call to a registered algorithm's instance but does not
/// halt, so the engine calls it every round: the always-step reference for
/// a halting algorithm. Every payload a node receives carries its sender's
/// id in word 0; whatever a sender delivers after its output round must
/// equal the first such payload.
class AlwaysStep final : public local::Algorithm {
 public:
  AlwaysStep(std::unique_ptr<local::Algorithm> inner, HaltLog* log)
      : inner_(std::move(inner)), log_(log) {}

  void on_start(NodeContext& ctx) override {
    inner_->on_start(ctx);
    note_output(ctx);
  }

  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    for (const Message& msg : inbox) {
      // Sent in round round() - 1, by a sender that had output by then.
      const auto sender = log_->output_round.find(msg.payload[0]);
      if (sender == log_->output_round.end() || sender->second + 1 > ctx.round()) continue;
      const std::vector<std::uint64_t> words(msg.payload.begin(), msg.payload.end());
      const auto [first, inserted] = log_->standing.try_emplace(msg.payload[0], words);
      if (!inserted) {
        EXPECT_EQ(words, first->second) << "sender " << msg.payload[0] << " round "
                                        << ctx.round() << " changed its sends after output";
      }
      ++log_->checked;
    }
    inner_->on_round(ctx, inbox);
    note_output(ctx);
  }

  bool reset() noexcept override { return inner_->reset(); }

  bool halts_after_output() const noexcept override { return false; }

 private:
  void note_output(const NodeContext& ctx) {
    if (ctx.has_output()) log_->output_round.try_emplace(ctx.id(), ctx.output_round());
  }

  std::unique_ptr<local::Algorithm> inner_;
  HaltLog* log_;
};

std::vector<std::array<std::uint64_t, 4>> round_stats(const local::Trace& trace) {
  std::vector<std::array<std::uint64_t, 4>> rows;
  for (const local::RoundStats& r : trace.rounds()) {
    rows.push_back({r.round, r.messages, r.words, r.outputs_set});
  }
  return rows;
}

/// Runs `algorithm` halting and always stepped on (g, ids) and requires
/// the same run; returns the always-step run's log.
HaltLog expect_halting_matches_always_step(const char* algorithm, const graph::Graph& g,
                                           const graph::IdAssignment& ids) {
  const algo::AlgorithmInfo& info = algo::AlgorithmRegistry::global().at(algorithm);
  const local::AlgorithmFactory factory = info.messages(g.vertex_count());
  EXPECT_TRUE(factory()->halts_after_output()) << algorithm;
  local::EngineOptions options;
  options.knowledge = info.knowledge;

  local::Trace halting_trace;
  options.trace = &halting_trace;
  const local::RunResult halting = local::run_messages(g, ids, factory, options);

  HaltLog log;
  local::Trace stepped_trace;
  options.trace = &stepped_trace;
  const local::RunResult stepped = local::run_messages(
      g, ids, [&] { return std::make_unique<AlwaysStep>(factory(), &log); }, options);

  const std::string where = std::string(algorithm) + " n=" + std::to_string(g.vertex_count());
  EXPECT_EQ(halting.outputs, stepped.outputs) << where;
  EXPECT_EQ(halting.radii, stepped.radii) << where;
  EXPECT_EQ(halting.rounds, stepped.rounds) << where;
  EXPECT_EQ(halting.messages, stepped.messages) << where;
  EXPECT_EQ(halting.words, stepped.words) << where;
  EXPECT_EQ(round_stats(halting_trace), round_stats(stepped_trace)) << where;
  EXPECT_EQ(stepped.node_steps, g.vertex_count() * (stepped.rounds + 1)) << where;
  EXPECT_LE(halting.node_steps, stepped.node_steps) << where;
  return log;
}

TEST(Engine, HaltedSendsAreConstantAfterOutput) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    support::Xoshiro256 rng(seed);
    std::vector<std::size_t> ns;
    for (std::size_t n = 3; n <= 200; ++n) ns.push_back(n);
    ns.push_back(1024);
    for (const std::size_t n : ns) {
      const graph::Graph g = graph::make_cycle(n);
      checked += expect_halting_matches_always_step("local3", g,
                                                    graph::IdAssignment::random(n, rng)).checked;
    }
    for (const std::size_t n : {16u, 64u, 300u}) {
      const graph::Graph regular = graph::make_random_regular(n, 4, rng);
      checked += expect_halting_matches_always_step("greedy-msg", regular,
                                                    graph::IdAssignment::random(n, rng)).checked;
      const graph::Graph gnp = graph::make_gnp_connected(n, 8.0 / static_cast<double>(n), rng);
      checked += expect_halting_matches_always_step("greedy-msg", gnp,
                                                    graph::IdAssignment::random(n, rng)).checked;
    }
  }
  // Most deliveries of these runs come from nodes that already output.
  EXPECT_GT(checked, 100'000u);
}

/// Sends a different payload on each port, {id, port}, and an empty one
/// on port 0 of odd ids; outputs in round id % 4 (round 0 included). The
/// sends never change, so the algorithm may halt after output; `log`
/// records every delivery to a node that has not output yet.
class PortEcho final : public local::Algorithm {
 public:
  using Log = std::vector<std::vector<std::uint64_t>>;

  PortEcho(bool halts, Log* log) : halts_(halts), log_(log) {}

  void on_start(NodeContext& ctx) override { act(ctx); }

  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    if (!ctx.has_output()) {
      for (const Message& msg : inbox) {
        std::vector<std::uint64_t> row{ctx.id(), ctx.round(), msg.from_port};
        row.insert(row.end(), msg.payload.begin(), msg.payload.end());
        log_->push_back(std::move(row));
      }
    }
    act(ctx);
  }

  bool halts_after_output() const noexcept override { return halts_; }

 private:
  void act(NodeContext& ctx) {
    if (!ctx.has_output() && ctx.round() == ctx.id() % 4) ctx.output(0);
    for (std::size_t port = 0; port < ctx.degree(); ++port) {
      const std::array<std::uint64_t, 2> words{ctx.id(), port};
      const std::size_t length = port == 0 && ctx.id() % 2 == 1 ? 0 : words.size();
      ctx.send(port, std::span(words).first(length));
    }
  }

  bool halts_;
  Log* log_;
};

TEST(Engine, StandingUnicastsMatchAlwaysStep) {
  support::Xoshiro256 rng(5);
  for (const std::size_t n : {2u, 9u, 40u, 130u}) {
    const graph::Graph g = graph::make_gnp_connected(n, 0.2, rng);
    const auto ids = graph::IdAssignment::random(n, rng);
    std::array<PortEcho::Log, 2> logs;
    std::array<local::Trace, 2> traces;
    std::array<local::RunResult, 2> runs;
    for (const bool halts : {false, true}) {
      local::EngineOptions options;
      options.trace = &traces[halts];
      PortEcho::Log* log = &logs[halts];
      runs[halts] = local::run_messages(
          g, ids, [=] { return std::make_unique<PortEcho>(halts, log); }, options);
    }
    EXPECT_EQ(logs[0], logs[1]) << "n=" << n;
    EXPECT_FALSE(logs[1].empty()) << "n=" << n;
    EXPECT_EQ(round_stats(traces[0]), round_stats(traces[1])) << "n=" << n;
    EXPECT_EQ(runs[0].radii, runs[1].radii) << "n=" << n;
    EXPECT_EQ(runs[0].messages, runs[1].messages) << "n=" << n;
    EXPECT_EQ(runs[0].words, runs[1].words) << "n=" << n;
    EXPECT_EQ(runs[1].node_steps, runs[1].sum_radius() + n) << "n=" << n;
  }
}

TEST(Engine, HaltingNodesAreSteppedOnlyUntilTheyOutput) {
  struct StepCase {
    const char* algorithm;
    const char* graph;  // "cycle" or "regular4"
    std::size_t n;
    bool halts;
  };
  const StepCase cases[] = {{"local3", "cycle", 32768, true},
                            {"greedy-msg", "regular4", 8192, true},
                            {"cv3-msg", "cycle", 4096, false},
                            {"largest-id-msg", "cycle", 256, false}};
  for (const StepCase& c : cases) {
    support::Xoshiro256 rng(42);
    const graph::Graph g = std::string(c.graph) == "cycle"
                               ? graph::make_cycle(c.n)
                               : graph::make_random_regular(c.n, 4, rng);
    const auto ids = graph::IdAssignment::random(c.n, rng);
    const algo::AlgorithmInfo& info = algo::AlgorithmRegistry::global().at(c.algorithm);
    local::EngineOptions options;
    options.knowledge = info.knowledge;
    const local::RunResult run = local::run_messages(g, ids, info.messages(c.n), options);
    if (!c.halts) {
      EXPECT_EQ(run.node_steps, c.n * (run.rounds + 1)) << c.algorithm;
      continue;
    }
    // Σ_v (r(v) + 1): each node is stepped in rounds 0..r(v) and no more,
    // well inside 1.2·n·(avg + 1) and far below n·(max + 1).
    const std::uint64_t average_cost = run.sum_radius() + c.n;
    EXPECT_EQ(run.node_steps, average_cost) << c.algorithm;
    EXPECT_LE(static_cast<double>(run.node_steps),
              1.2 * static_cast<double>(c.n) * (run.average_radius() + 1.0))
        << c.algorithm;
    EXPECT_LT(2 * run.node_steps, c.n * (run.rounds + 1)) << c.algorithm;
  }
}

// ---- full-information adapter ---------------------------------------------

struct AdapterCase {
  std::string family;
  std::size_t n;
  std::uint64_t seed;
};

class FullInfoEquivalence : public ::testing::TestWithParam<AdapterCase> {};

TEST_P(FullInfoEquivalence, MatchesFloodingViewEngine) {
  const auto& param = GetParam();
  support::Xoshiro256 rng(param.seed);
  graph::Graph g = param.family == "cycle"  ? graph::make_cycle(param.n)
                   : param.family == "path" ? graph::make_path(param.n)
                   : param.family == "tree" ? graph::make_random_tree(param.n, rng)
                                            : graph::make_grid(param.n / 4, 4);
  const auto ids = graph::IdAssignment::random(g.vertex_count(), rng);

  local::ViewEngineOptions view_options;
  view_options.semantics = local::ViewSemantics::kFloodingKnowledge;
  const auto by_views =
      local::run_views(g, ids, algo::make_largest_id_view(), view_options);
  const auto by_messages =
      local::run_views_by_messages(g, ids, algo::make_largest_id_view());

  ASSERT_EQ(by_views.outputs.size(), by_messages.outputs.size());
  for (std::size_t v = 0; v < by_views.outputs.size(); ++v) {
    EXPECT_EQ(by_views.outputs[v], by_messages.outputs[v]) << "vertex " << v;
    EXPECT_EQ(by_views.radii[v], by_messages.radii[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, FullInfoEquivalence,
    ::testing::Values(AdapterCase{"cycle", 9, 1}, AdapterCase{"cycle", 10, 2},
                      AdapterCase{"cycle", 17, 3}, AdapterCase{"path", 12, 4},
                      AdapterCase{"tree", 20, 5}, AdapterCase{"tree", 33, 6},
                      AdapterCase{"grid", 16, 7}, AdapterCase{"cycle", 24, 8}),
    [](const auto& param_info) {
      return param_info.param.family + "_" + std::to_string(param_info.param.n) + "_s" +
             std::to_string(param_info.param.seed);
    });

// The presence-bitmask scans behind MessageArena::for_each_present.
std::vector<std::uint64_t> random_words(std::size_t count, support::Xoshiro256& rng) {
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) w = rng.next();
  return words;
}

std::vector<std::size_t> collect_bits(const std::vector<std::uint64_t>& words, std::size_t begin,
                                      std::size_t end) {
  std::vector<std::size_t> got;
  local::for_each_set_bit(words.data(), begin, end, [&](std::size_t bit) { got.push_back(bit); });
  return got;
}

TEST(Simd, ForEachSetBitMatchesPerBitScan) {
  support::Xoshiro256 rng(15);
  const auto words = random_words(5, rng);
  const std::size_t total = words.size() * 64;
  const std::size_t ranges[][2] = {{0, 0},     {0, 1},   {0, 64},   {0, 128},  {1, 64},
                                   {63, 64},   {63, 65}, {64, 128}, {10, 250}, {100, 101},
                                   {128, 192}, {0, total}};
  for (const auto& [begin, end] : ranges) {
    std::vector<std::size_t> want;
    for (std::size_t i = begin; i < end; ++i) {
      if ((words[i >> 6] >> (i & 63)) & 1u) want.push_back(i);
    }
    EXPECT_EQ(collect_bits(words, begin, end), want) << "[" << begin << ", " << end << ")";
  }
}

TEST(Simd, ForEachSetBitEitherScansTheUnion) {
  support::Xoshiro256 rng(16);
  const auto a = random_words(3, rng);
  const auto b = random_words(3, rng);
  std::vector<std::uint64_t> both(a.size());
  for (std::size_t w = 0; w < a.size(); ++w) both[w] = a[w] | b[w];
  for (const auto& [begin, end] : {std::pair<std::size_t, std::size_t>{0, 192}, {3, 70},
                                   {64, 65}, {100, 100}}) {
    std::vector<std::size_t> got;
    local::for_each_set_bit_either(a.data(), b.data(), begin, end,
                                   [&](std::size_t bit) { got.push_back(bit); });
    EXPECT_EQ(got, collect_bits(both, begin, end)) << "[" << begin << ", " << end << ")";
  }
}

TEST(Simd, ForEachSetBitOnSolidAndEmptyMasks) {
  const std::vector<std::uint64_t> solid(3, ~std::uint64_t{0});
  EXPECT_EQ(collect_bits(solid, 0, 192).size(), 192u);
  EXPECT_EQ(collect_bits(solid, 5, 67).size(), 62u);
  const std::vector<std::uint64_t> empty(3, 0);
  EXPECT_TRUE(collect_bits(empty, 0, 192).empty());
  EXPECT_TRUE(collect_bits(empty, 63, 129).empty());
}

}  // namespace
