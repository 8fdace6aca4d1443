// Verifies the flat-memory claims of the message engine with a real
// allocation counter: after a short warm-up in which the arena and inbox
// grow to their high-water marks, the engine's round loop must perform
// zero heap allocations. Also unit-tests the MessageArena itself.
//
// This binary installs the allocation-counting global operator new/delete;
// it must stay its own test executable.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "core/batched_sweep.hpp"
#include "core/scenario.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "kit/flood_probe.hpp"
#include "local/engine.hpp"
#include "local/message_arena.hpp"
#include "local/view_engine.hpp"
#include "support/alloc_hook.hpp"
#include "support/rng.hpp"

AVGLOCAL_DEFINE_ALLOC_HOOK();

namespace {

using namespace avglocal;
using local::AllocSampler;
using local::FloodRelay;

TEST(IdAssignmentAlloc, RandomUsesTrustedValidationPath) {
  // The sweep hot loop: IdAssignment::random is a permutation by
  // construction, so it must not pay the public constructor's
  // sort-and-check (which costs O(n log n) plus a second vector per trial).
  // Pin the allocation count: exactly one (the id vector itself). Debug
  // builds assert distinctness through a sorted copy, so the pin only holds
  // with asserts compiled out.
  support::Xoshiro256 rng(7);
  {  // warm up: gtest bookkeeping and the rng stream must not count
    const auto ids = graph::IdAssignment::random(4096, rng);
    ASSERT_EQ(ids.size(), 4096u);
  }
#ifdef NDEBUG
  const auto before = support::alloc_counts();
  const auto ids = graph::IdAssignment::random(4096, rng);
  const auto after = support::alloc_counts();
  EXPECT_EQ(ids.size(), 4096u);
  EXPECT_EQ(after.allocations - before.allocations, 1u)
      << "random id assignments must allocate the id vector and nothing else";
  EXPECT_GE(after.bytes - before.bytes, 4096u * sizeof(std::uint64_t));
#else
  GTEST_SKIP() << "debug builds re-validate trusted ids (and may allocate doing so)";
#endif
}

TEST(AllocHook, CountsAllocations) {
  const auto before = support::alloc_counts();
  {
    std::vector<std::uint64_t> v(1024);
    ASSERT_EQ(v.size(), 1024u);
  }
  const auto after = support::alloc_counts();
  EXPECT_GT(after.allocations, before.allocations);
  EXPECT_GE(after.bytes - before.bytes, 1024u * sizeof(std::uint64_t));
}

TEST(AllocHook, ConcurrentCountsAreExact) {
  // The "allocs_per_round_after_warmup == 0" gates read these counters
  // around parallel sweeps, so concurrent ticks from every worker lane
  // must lose no updates. Hammer the hook from several threads and check
  // the deltas: any dropped increment shows up as a shortfall. (Lower
  // bounds, not equality - gtest and the thread runtime may allocate
  // concurrently, which only pushes the counters higher.)
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kAllocsPerThread = 2000;
  constexpr std::size_t kBytesPerAlloc = 64;

  const auto before = support::alloc_counts();
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        // The escaping store keeps -O2 from eliding the new/delete pair.
        volatile std::uintptr_t sink = 0;
        for (std::size_t i = 0; i < kAllocsPerThread; ++i) {
          auto* p = new std::array<std::byte, kBytesPerAlloc>();
          sink = reinterpret_cast<std::uintptr_t>(p);  // avglocal-lint: allow(raw-entropy)
          delete p;
        }
        (void)sink;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const auto after = support::alloc_counts();
  EXPECT_GE(after.allocations - before.allocations, kThreads * kAllocsPerThread)
      << "lost increments under concurrent allocation";
  EXPECT_GE(after.bytes - before.bytes, kThreads * kAllocsPerThread * kBytesPerAlloc);
}

TEST(MessageEngineAlloc, SteadyStateRoundsAreAllocationFree) {
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kWarmupRounds = 3;
  const auto g = graph::make_cycle(64);
  const auto ids = graph::IdAssignment::identity(64);

  AllocSampler sampler(kRounds);
  local::EngineOptions options;
  options.trace = &sampler;
  const auto run = local::run_messages(
      g, ids, [] { return std::make_unique<FloodRelay>(std::size_t{kRounds}); }, options);
  EXPECT_EQ(run.rounds, kRounds);

  const auto& samples = sampler.samples();
  ASSERT_GT(samples.size(), kWarmupRounds + 1);
  for (std::size_t i = kWarmupRounds; i + 1 < samples.size(); ++i) {
    EXPECT_EQ(samples[i + 1].allocations - samples[i].allocations, 0u)
        << "round " << i + 1 << " allocated";
    EXPECT_EQ(samples[i + 1].bytes - samples[i].bytes, 0u) << "round " << i + 1;
  }
}

// Same claim on a topology with degree spread (star: hub degree n-1), so
// the inbox high-water mark is exercised by the hub every round.
TEST(MessageEngineAlloc, SteadyStateOnStar) {
  constexpr std::size_t kRounds = 30;
  const auto g = graph::make_star(33);
  const auto ids = graph::IdAssignment::identity(33);

  AllocSampler sampler(kRounds);
  local::EngineOptions options;
  options.trace = &sampler;
  local::run_messages(g, ids, [] { return std::make_unique<FloodRelay>(std::size_t{kRounds}); }, options);

  const auto& samples = sampler.samples();
  ASSERT_GT(samples.size(), 4u);
  for (std::size_t i = 3; i + 1 < samples.size(); ++i) {
    EXPECT_EQ(samples[i + 1].allocations - samples[i].allocations, 0u)
        << "round " << i + 1 << " allocated";
  }
}

// The ring and greedy view callbacks keep their scratch in instances the
// batched engine reuses across (vertex, assignment) runs, so a whole sweep
// allocates only while buffers grow - never per run. The bound, under one
// allocation per 12 runs, fails for any callback that allocates per call.
// Every graph has 4096 vertices: the engine's own warm-up (grower and
// per-slot id buffers growing to the largest ball) is ~140 allocations on a
// torus whatever the callback, above the bound a 32x32 torus would give.
TEST(ViewCallbackAlloc, BatchedSweepAllocatesOnlyWhileWarmingUp) {
  struct Case {
    const char* algorithm;
    graph::Graph graph;
  };
  const Case cases[] = {{"cv3", graph::make_cycle(4096)},
                        {"mis", graph::make_cycle(4096)},
                        {"greedy", graph::make_torus(64, 64)}};
  constexpr std::size_t kAssignments = 8;
  for (const Case& c : cases) {
    const std::size_t n = c.graph.vertex_count();
    support::Xoshiro256 rng(n);
    std::vector<graph::IdAssignment> batch;
    for (std::size_t t = 0; t < kAssignments; ++t) {
      batch.push_back(graph::IdAssignment::random(n, rng));
    }
    const local::ViewAlgorithmFactory factory =
        algo::AlgorithmRegistry::global().at(c.algorithm).view(n);
    std::size_t runs = 0;
    const local::ResultSink sink = [&runs](std::size_t, graph::Vertex, std::int64_t,
                                           std::size_t) { ++runs; };

    const auto before = support::alloc_counts();
    local::run_views_batched(c.graph, batch, factory, {}, sink);
    const auto after = support::alloc_counts();
    EXPECT_EQ(runs, n * kAssignments) << c.algorithm;
    EXPECT_LT(after.allocations - before.allocations, n * kAssignments / 100) << c.algorithm;
  }
}

// Whole trials, not only rounds, stop allocating once warm: for every
// registered algorithm, after one warm-up batch each further trial of
// SweepDriver::run_trials makes at most kAllocsPerTrial allocations, at n and
// at 4n alike. What remains is per batch or per call - the view engine's
// per-batch slot state (about 25 per trial in batches of 4), the returned
// partials (about 1 per trial for message algorithms) - never per node or
// per round: a callback that allocated per node would overshoot the bound
// at the smaller size already.
//
// The warm-up batch is where per-node state grows, so its bytes are metered
// too: bytes per node at 4n may exceed bytes per node at n by at most
// kStateGrowth. State that grows with n at every node (a per-node table of
// all origins, say) is quadratic in total and reads about 4x.
TEST(TrialAlloc, EveryAlgorithmStopsAllocatingAfterWarmUp) {
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kMeasuredTrials = 3 * kBatch;
  constexpr std::size_t kAllocsPerTrial = 64;
  constexpr std::size_t kSmallN = 256;
  constexpr double kStateGrowth = 1.5;
  const algo::AlgorithmRegistry& registry = algo::AlgorithmRegistry::global();
  std::vector<std::string> names = registry.names(algo::AlgorithmKind::kView);
  const std::vector<std::string> message = registry.names(algo::AlgorithmKind::kMessage);
  names.insert(names.end(), message.begin(), message.end());
  ASSERT_EQ(names.size(), 9u) << "a new algorithm joins this gate";
  for (const std::string& name : names) {
    std::array<double, 2> warm_up_bytes_per_node{};
    for (const std::size_t n : {kSmallN, 4 * kSmallN}) {
      core::ScenarioSpec spec;
      spec.algorithm = name;
      spec.family = {name.starts_with("greedy") ? "torus" : "cycle", {}};
      spec.ns = {n};
      spec.seed = 3;
      const core::ResolvedScenario resolved = core::resolve_scenario(spec);
      ASSERT_EQ(resolved.spec.ns, std::vector<std::size_t>{n}) << name;
      core::BatchedSweepOptions options = resolved.sweep_options();
      options.batch_size = kBatch;
      const std::unique_ptr<core::SweepBackend> backend = resolved.make_backend();
      const core::SweepDriver driver(*backend, options);
      const graph::Graph g = resolved.graphs(n);
      core::SweepDriver::Point point = driver.prepare(g, 0);
      const auto cold = support::alloc_counts();
      driver.run_trials(point, 0, kBatch);  // warm-up batch
      const auto before = support::alloc_counts();
      warm_up_bytes_per_node[n == kSmallN ? 0 : 1] =
          static_cast<double>(before.bytes - cold.bytes) / static_cast<double>(n);

      const core::PointAccumulator acc =
          driver.run_trials(point, kBatch, kBatch + kMeasuredTrials);
      const auto after = support::alloc_counts();
      ASSERT_EQ(acc.trial_count(), kMeasuredTrials);
      const std::size_t allocations = after.allocations - before.allocations;
      EXPECT_LE(allocations, kMeasuredTrials * kAllocsPerTrial)
          << name << " n=" << n << ": " << allocations << " allocations over "
          << kMeasuredTrials << " trials";
    }
    EXPECT_LE(warm_up_bytes_per_node[1], kStateGrowth * warm_up_bytes_per_node[0])
        << name << ": warm-up bytes per node " << warm_up_bytes_per_node[0] << " at n="
        << kSmallN << ", " << warm_up_bytes_per_node[1] << " at n=" << 4 * kSmallN;
  }
}

TEST(IdAssignmentAlloc, RefillAllocatesNothing) {
  // fill_sweep_batch refills a lane's assignments in place: a second fill
  // with the same n and count draws new permutations into the old storage.
  constexpr std::size_t kN = 4096;
  constexpr std::size_t kCount = 8;
  constexpr std::uint64_t kPointSeed = 17;
  // Trial t of the stream is IdAssignment::random on its derived seed.
  const auto expect_stream = [&](const std::vector<graph::IdAssignment>& batch,
                                 std::size_t begin) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      support::Xoshiro256 rng(support::derive_seed(kPointSeed, begin + i));
      const graph::IdAssignment expected = graph::IdAssignment::random(kN, rng);
      EXPECT_TRUE(std::ranges::equal(batch[i].ids(), expected.ids())) << "trial " << begin + i;
    }
  };
  std::vector<graph::IdAssignment> batch;
  core::fill_sweep_batch(batch, kN, kPointSeed, 0, kCount);

  const auto before = support::alloc_counts();
  core::fill_sweep_batch(batch, kN, kPointSeed, kCount, kCount);
  const auto after = support::alloc_counts();
  ASSERT_EQ(batch.size(), kCount);
#ifdef NDEBUG
  EXPECT_EQ(after.allocations - before.allocations, 0u);
#else
  (void)before;
  (void)after;  // debug builds re-validate the refilled ids through a sorted copy
#endif
  expect_stream(batch, kCount);

  // A short last batch shrinks the lane's batch; the next full batch
  // refills the survivors and appends the rest, on the same stream.
  core::fill_sweep_batch(batch, kN, kPointSeed, 0, 3);
  ASSERT_EQ(batch.size(), 3u);
  expect_stream(batch, 0);
  core::fill_sweep_batch(batch, kN, kPointSeed, 3, kCount);
  ASSERT_EQ(batch.size(), kCount);
  expect_stream(batch, 3);
}

/// One unicast message: store the words, then bind them to `arc`.
bool send_to(local::MessageArena& arena, std::size_t arc, std::span<const std::uint64_t> words) {
  if (arena.has(arc)) return false;
  return arena.bind(arc, arena.store(words), support::checked_u32(words.size()));
}

TEST(MessageArena, StoreBindHasPayloadRoundTrip) {
  local::MessageArena arena;
  arena.attach(10);
  const std::array<std::uint64_t, 3> words{7, 8, 9};
  EXPECT_FALSE(arena.has(4));
  EXPECT_TRUE(send_to(arena, 4, words));
  EXPECT_TRUE(arena.has(4));
  const auto payload = arena.payload(4);
  ASSERT_EQ(payload.size(), 3u);
  EXPECT_EQ(payload[0], 7u);
  EXPECT_EQ(payload[2], 9u);
  EXPECT_EQ(arena.message_count(), 1u);
  EXPECT_EQ(arena.word_count(), 3u);
}

TEST(MessageArena, SecondBindOnSameArcIsRejected) {
  local::MessageArena arena;
  arena.attach(4);
  const std::array<std::uint64_t, 1> words{1};
  const std::uint32_t offset = arena.store(words);
  EXPECT_TRUE(arena.bind(2, offset, 1));
  EXPECT_FALSE(arena.bind(2, offset, 1)) << "one message per arc per round";
  EXPECT_EQ(arena.message_count(), 1u);
}

TEST(MessageArena, BeginRoundForgetsMessagesAndKeepsGoing) {
  local::MessageArena arena;
  arena.attach(128);
  const std::array<std::uint64_t, 2> words{5, 6};
  for (std::size_t arc = 0; arc < 128; ++arc) EXPECT_TRUE(send_to(arena, arc, words));
  arena.begin_round();
  EXPECT_EQ(arena.message_count(), 0u);
  EXPECT_EQ(arena.word_count(), 0u);
  EXPECT_EQ(arena.stored_word_count(), 0u);
  for (std::size_t arc = 0; arc < 128; ++arc) {
    EXPECT_FALSE(arena.has(arc));
    EXPECT_TRUE(send_to(arena, arc, words));
  }
}

TEST(MessageArena, EmptyPayloadIsAMessage) {
  local::MessageArena arena;
  arena.attach(2);
  EXPECT_TRUE(send_to(arena, 1, {}));
  EXPECT_TRUE(arena.has(1));
  EXPECT_EQ(arena.payload(1).size(), 0u);
  EXPECT_EQ(arena.message_count(), 1u);
}

}  // namespace
