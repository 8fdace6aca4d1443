// Million-node sweep infrastructure: the memory-budgeted batching contract
// and the reserve-exact id path.
//
//  - Memory budgets: SweepMemoryModel's batch-width inversion, the
//    n = 10^6 ring smoke under a declared budget (alloc-hook-metered, the
//    test fails on overshoot), and budget-vs-unlimited result equality
//    (the budget clamps footprint, never results).
//  - The sparse gnp sampler is a distribution twin of the dense pair loop.
//  - IdAssignment::random at n = 10^6: exactly one allocation, 64-byte
//    aligned (the reserve-exact contract the sweep hot loop relies on).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "algo/largest_id.hpp"
#include "core/batched_sweep.hpp"
#include "core/memory_model.hpp"
#include "core/sweep_backend.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "support/alloc_hook.hpp"
#include "support/rng.hpp"

AVGLOCAL_DEFINE_ALLOC_HOOK();

namespace {

using namespace avglocal;

void expect_same_topology(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (graph::Vertex v = 0; v < a.vertex_count(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "vertex " << v;
    for (std::size_t p = 0; p < a.degree(v); ++p) {
      ASSERT_EQ(a.neighbour(v, p), b.neighbour(v, p)) << "vertex " << v << " port " << p;
      ASSERT_EQ(a.mirror_port(v, p), b.mirror_port(v, p)) << "vertex " << v << " port " << p;
    }
  }
}

core::PointAccumulator sweep_point(const graph::Graph& g, const core::BatchedSweepOptions& opt) {
  const core::ViewBackend backend([](std::size_t) { return algo::make_largest_id_view(); },
                                  opt.semantics);
  const core::SweepDriver driver(backend, opt);
  core::SweepDriver::Point point = driver.prepare(g, 0);
  return driver.run_trials(point, 0, opt.trials);
}

core::BatchedSweepOptions small_sweep_options() {
  core::BatchedSweepOptions opt;
  opt.trials = 6;
  opt.seed = 77;
  return opt;
}

// ------------------------------------------------------------------------
// Memory-budgeted batching.
// ------------------------------------------------------------------------

TEST(SweepMemoryModel, MaxBatchInvertsTheAffineFootprint) {
  const core::SweepMemoryModel model{1000, 100};
  EXPECT_EQ(model.predicted_lane_bytes(4), 1000u + 400u);
  EXPECT_EQ(model.max_batch(2000, 1), 10u);   // (2000 - 1000) / 100
  EXPECT_EQ(model.max_batch(4000, 2), 10u);   // per-lane share halves
  EXPECT_EQ(model.max_batch(1000, 1), 1u);    // share <= fixed: floor, never zero
  EXPECT_EQ(model.max_batch(0, 1), 1u);
  EXPECT_EQ(model.max_batch(1050, 1), 1u);    // width rounds down to 0 -> floor 1
  EXPECT_EQ(model.max_batch(2000, 0), 10u);   // lanes clamped to >= 1
}

TEST(MemoryBudget, BudgetNeverChangesResults) {
  const graph::Graph g = graph::make_cycle(2048);
  core::BatchedSweepOptions unlimited = small_sweep_options();
  unlimited.trials = 12;
  core::BatchedSweepOptions budgeted = unlimited;
  // Tight budget: roughly two resident trials per lane.
  const core::ViewBackend backend([](std::size_t) { return algo::make_largest_id_view(); },
                                  unlimited.semantics);
  const core::SweepMemoryModel model = backend.memory_model(g);
  budgeted.memory_budget_bytes = model.predicted_lane_bytes(2);
  EXPECT_EQ(sweep_point(g, unlimited), sweep_point(g, budgeted));
}

/// Sanitizer instrumentation (TSan shadow memory, ASan redzones and
/// quarantine) inflates the resident set far past the model's envelope, so
/// physical-peak assertions only mean something in uninstrumented builds.
/// The sweeps still run under sanitizers - that is their race coverage.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Resident-memory high-water mark of this process (VmHWM), in bytes.
/// Returns 0 when /proc is unavailable (non-Linux); callers skip then.
std::size_t vm_hwm_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return 0;
}

TEST(MemoryBudget, MillionNodeRingStaysInsideDeclaredBudget) {
  constexpr std::size_t kMillion = 1'000'000;
  const graph::Graph g = graph::make_cycle(kMillion);

  core::BatchedSweepOptions opt;
  opt.trials = 8;
  opt.seed = 7;
  const core::ViewBackend backend([](std::size_t) { return algo::make_largest_id_view(); },
                                  opt.semantics);
  const core::SweepMemoryModel model = backend.memory_model(g);
  // Declared budget: two resident trials per lane. The driver must derive
  // width 2 and sweep within the envelope; a broken clamp keeps all 8
  // trials resident at once (6 * bytes_per_trial ~ 168 MB over budget on
  // this ring) and overshoots the peak-RSS gate by an order of magnitude
  // more than any allocator slack.
  opt.memory_budget_bytes = model.predicted_lane_bytes(2);

  const std::size_t hwm_before = vm_hwm_bytes();
  if (hwm_before == 0) GTEST_SKIP() << "/proc/self/status unavailable";

  core::SweepDriver driver(backend, opt, nullptr);
  core::SweepDriver::Point point = driver.prepare(g, 0);
  const core::PointAccumulator acc = driver.run_trials(point, 0, opt.trials);
  const std::size_t hwm_after = vm_hwm_bytes();

  EXPECT_EQ(acc.trial_count(), opt.trials);
  // VmHWM is monotone, so the delta is exactly the additional peak this
  // sweep caused. The graph is resident before the measurement although
  // the model's fixed part pays for it - deliberate slack on the gate's
  // safe side (the true need is budget minus the CSR bytes).
  const std::size_t overshoot_bytes = hwm_after - hwm_before;
  if (!kSanitized) {
    EXPECT_LE(overshoot_bytes, opt.memory_budget_bytes)
        << "budgeted n=10^6 sweep peaked " << overshoot_bytes - opt.memory_budget_bytes
        << " bytes past its declared budget of " << opt.memory_budget_bytes;
  }
}

TEST(MemoryBudget, ViewModelEnvelopeCoversMeasuredAllocation) {
  const graph::Graph g = graph::make_cycle(100'000);
  core::BatchedSweepOptions opt;
  opt.trials = 4;
  opt.seed = 13;
  const core::ViewBackend backend([](std::size_t) { return algo::make_largest_id_view(); },
                                  opt.semantics);
  const core::SweepMemoryModel model = backend.memory_model(g);

  core::SweepDriver driver(backend, opt, nullptr);
  core::SweepDriver::Point point = driver.prepare(g, 0);
  const support::AllocCounts before = support::alloc_counts();
  (void)driver.run_trials(point, 0, opt.trials);
  const support::AllocCounts after = support::alloc_counts();

  // The lane runs at full width (no budget set), so the whole range is ONE
  // batch and every buffer is allocated exactly once - which makes the
  // hook's cumulative byte count equal the resident need (the hook never
  // sees frees; with several batches per-batch rebuilds would double-count
  // resident bytes, which is why the budgeted gate above meters VmHWM
  // instead). prepare() costs (graph, edge list) are inside fixed_bytes but
  // pre-date the measurement - slack on the safe side; the test fails only
  // when the model genuinely undershoots reality.
  EXPECT_LE(after.bytes - before.bytes, model.predicted_lane_bytes(opt.trials))
      << "bytes-per-trial model undershoots the measured lane allocation";
}

// ------------------------------------------------------------------------
// Sparse gnp: distribution twin of the dense pair loop.
// ------------------------------------------------------------------------

TEST(SparseGnp, MatchesDenseDegreeDistributionAtSmallN) {
  constexpr std::size_t kN = 64;
  constexpr double kP = 0.15;
  constexpr int kSamples = 200;
  const auto mean_edges = [&](graph::GnpMethod method, std::uint64_t seed) {
    support::Xoshiro256 rng(seed);
    double total = 0.0;
    for (int s = 0; s < kSamples; ++s) {
      total += static_cast<double>(
          graph::make_gnp_connected(kN, kP, rng, 100, method).edge_count());
    }
    return total / kSamples;
  };
  const double dense = mean_edges(graph::GnpMethod::kDense, 1);
  const double sparse = mean_edges(graph::GnpMethod::kSparse, 2);
  // E[m] = p * n(n-1)/2 = 302.4 (connectivity conditioning shifts it only
  // slightly at p = 0.15); per-sample sd ~ 16, so the sample means carry a
  // standard error ~ 1.1 each. A +-5 gate is ~3 sigma on the difference.
  EXPECT_NEAR(dense, sparse, 5.0);
  EXPECT_NEAR(dense, 302.4, 5.0);
}

TEST(SparseGnp, AutoRoutesSmallNToTheDensePath) {
  // kAuto at n = 64 must reproduce the dense draw order byte for byte -
  // that is what keeps the committed gnp goldens valid.
  support::Xoshiro256 a(42);
  support::Xoshiro256 b(42);
  const graph::Graph dense = graph::make_gnp_connected(64, 0.15, a, 100, graph::GnpMethod::kDense);
  const graph::Graph aut = graph::make_gnp_connected(64, 0.15, b, 100, graph::GnpMethod::kAuto);
  expect_same_topology(dense, aut);
}

// ------------------------------------------------------------------------
// Reserve-exact id assignments.
// ------------------------------------------------------------------------

TEST(IdAssignmentLargeN, RandomAllocatesOnce) {
  constexpr std::size_t kMillion = 1'000'000;
  support::Xoshiro256 rng(5);
  const support::AllocCounts before = support::alloc_counts();
  const graph::IdAssignment ids = graph::IdAssignment::random(kMillion, rng);
  const support::AllocCounts after = support::alloc_counts();
#ifdef NDEBUG
  EXPECT_EQ(after.allocations - before.allocations, 1u)
      << "IdAssignment::random must reserve exactly (fill + in-place shuffle)";
#else
  // Debug builds assert distinctness through a sorted copy - one extra.
  EXPECT_LE(after.allocations - before.allocations, 2u);
#endif
  EXPECT_GE(after.bytes - before.bytes, kMillion * sizeof(std::uint64_t));
  EXPECT_EQ(ids.ids().size(), kMillion);
}

}  // namespace
