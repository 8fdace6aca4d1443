// Tests of the colouring stack: Cole-Vishkin primitives, the known-n
// schedule in both formulations, the unknown-n freeze/repair protocol, and
// ring MIS.
#include <gtest/gtest.h>

#include "algo/cole_vishkin.hpp"
#include "algo/colour_reduction.hpp"
#include "algo/local_colouring.hpp"
#include "algo/mis_ring.hpp"
#include "algo/validity.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "kit/oracles.hpp"
#include "local/engine.hpp"
#include "local/view_engine.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

TEST(CvReduce, PreservesValidityOnRandomRings) {
  support::Xoshiro256 rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 3 + rng.below(30);
    auto colours = support::random_permutation(n, rng);
    for (int iter = 0; iter < 8; ++iter) {
      std::vector<std::uint64_t> next(n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NE(colours[i], colours[(i + 1) % n]);
        next[i] = algo::cv_reduce(colours[i], colours[(i + 1) % n]);
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NE(next[i], next[(i + 1) % n]) << "validity preserved";
      }
      colours = next;
    }
  }
}

TEST(CvReduce, ConvergesWithinSchedule) {
  support::Xoshiro256 rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 8 + rng.below(200);
    auto colours = support::random_permutation(n, rng);
    const int t6 = algo::cv_iterations_to_six(support::bit_width_u64(n));
    for (int iter = 0; iter < t6; ++iter) {
      std::vector<std::uint64_t> next(n);
      for (std::size_t i = 0; i < n; ++i) {
        next[i] = algo::cv_reduce(colours[i], colours[(i + 1) % n]);
      }
      colours = next;
    }
    for (std::uint64_t c : colours) EXPECT_LT(c, 6u);
  }
}

TEST(CvSchedule, GrowsLikeLogStar) {
  // The schedule length is log*-flat: huge jumps in n barely move it.
  const auto t4 = algo::cv_schedule_rounds(16);
  const auto t16 = algo::cv_schedule_rounds(1u << 16);
  EXPECT_LE(t16, t4 + 3);
  EXPECT_GE(algo::cv_schedule_rounds(4), 4u);  // at least 1 reduction + 3 eliminations
  EXPECT_LE(algo::cv_schedule_rounds(1u << 20), 10u);
}

TEST(CvColourRing, ProducesValidThreeColouring) {
  support::Xoshiro256 rng(3);
  for (const std::size_t n : {3u, 4u, 5u, 7u, 12u, 33u, 100u}) {
    const auto ids = support::random_permutation(n, rng);
    const int t6 = algo::cv_iterations_to_six(support::bit_width_u64(n));
    const auto colours = algo::cv_colour_ring(ids, t6);
    ASSERT_EQ(colours.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(colours[i], 3u);
      EXPECT_NE(colours[i], colours[(i + 1) % n]) << "n " << n << " i " << i;
    }
  }
}

TEST(CvColourSegment, MatchesRingSimulationInTheInterior) {
  // The segment simulator must reproduce the ring simulation wherever its
  // window has full context.
  support::Xoshiro256 rng(4);
  const std::size_t n = 64;
  const auto ids = support::random_permutation(n, rng);
  const int t6 = algo::cv_iterations_to_six(support::bit_width_u64(n));
  const auto ring_colours = algo::cv_colour_ring(ids, t6);

  for (std::size_t start = 0; start < n; start += 7) {
    const std::size_t window_len = static_cast<std::size_t>(t6) + 7 + 5;
    std::vector<std::uint64_t> window(window_len);
    for (std::size_t j = 0; j < window_len; ++j) window[j] = ids[(start + j) % n];
    const auto segment = algo::cv_colour_window(window, t6);
    ASSERT_EQ(segment.size(), window_len - static_cast<std::size_t>(t6) - 6);
    for (std::size_t i = 0; i < segment.size(); ++i) {
      const std::size_t j = i + 3;  // element 0 is window position 3
      EXPECT_EQ(segment[i], ring_colours[(start + j) % n])
          << "window start " << start << " position " << j;
    }
  }
}

class ColeVishkinBothEngines : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ColeVishkinBothEngines, ViewAndMessageAgree) {
  const std::size_t n = GetParam();
  support::Xoshiro256 rng(n);
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::random(n, rng);

  const auto by_views = local::run_views(g, ids, algo::make_cole_vishkin_view(n));
  EXPECT_TRUE(algo::is_valid_colouring(g, by_views.outputs, 3));

  local::EngineOptions options;
  options.knowledge = local::Knowledge::kKnowsN;
  const auto by_messages =
      local::run_messages(g, ids, algo::make_cole_vishkin_messages(), options);
  EXPECT_TRUE(algo::is_valid_colouring(g, by_messages.outputs, 3));

  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(by_views.outputs[v], by_messages.outputs[v]) << "n " << n << " v " << v;
  }
  // All message radii equal the schedule length; view radii match when the
  // ball does not close first.
  const std::size_t T = algo::cv_schedule_rounds(n);
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(by_messages.radii[v], T);
    EXPECT_EQ(by_views.radii[v], std::min(T, n / 2));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ColeVishkinBothEngines,
                         ::testing::Values(4, 6, 8, 13, 16, 24, 40, 64, 100));

TEST(ColeVishkinView, WorksUnderFloodingSemantics) {
  const std::size_t n = 32;
  support::Xoshiro256 rng(12);
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::random(n, rng);
  local::ViewEngineOptions options;
  options.semantics = local::ViewSemantics::kFloodingKnowledge;
  const auto run = local::run_views(g, ids, algo::make_cole_vishkin_view(n), options);
  EXPECT_TRUE(algo::is_valid_colouring(g, run.outputs, 3));
}

// ---- unknown-n freeze/repair colouring ------------------------------------

void expect_valid_unknown_n(const std::vector<std::uint64_t>& ids_vec) {
  const std::size_t n = ids_vec.size();
  const auto g = graph::make_cycle(n);
  const graph::IdAssignment ids{std::vector<std::uint64_t>(ids_vec)};
  local::EngineOptions options;
  options.max_rounds = 10'000;
  const auto run =
      local::run_messages(g, ids, algo::make_local_three_colouring(), options);
  ASSERT_TRUE(algo::is_valid_colouring(g, run.outputs, 3))
      << "n = " << n << " first id " << ids_vec[0];
}

TEST(LocalColouring, ExhaustiveTinyRings) {
  // All cyclic arrangements for n = 3..6: the freeze/repair protocol must
  // never emit an invalid colouring.
  for (std::size_t n = 3; n <= 6; ++n) {
    std::vector<std::uint64_t> rest(n - 1);
    for (std::size_t i = 0; i < n - 1; ++i) rest[i] = i + 1;
    do {
      std::vector<std::uint64_t> ids(n);
      ids[0] = n;
      std::copy(rest.begin(), rest.end(), ids.begin() + 1);
      expect_valid_unknown_n(ids);
    } while (std::next_permutation(rest.begin(), rest.end()));
  }
}

class LocalColouringRandom
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(LocalColouringRandom, ValidOnRandomRings) {
  const auto [n, seed] = GetParam();
  support::Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 1000 + n);
  expect_valid_unknown_n(support::random_permutation(n, rng));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LocalColouringRandom,
                         ::testing::Combine(::testing::Values(8, 16, 32, 64, 128, 256, 512),
                                            ::testing::Values(1, 2, 3, 4, 5)));

TEST(LocalColouring, AdversarialIdPatterns) {
  // Monotone and organ-pipe arrangements exercise long freeze boundaries.
  for (const std::size_t n : {16u, 64u, 256u}) {
    std::vector<std::uint64_t> sorted(n);
    for (std::size_t i = 0; i < n; ++i) sorted[i] = i + 1;
    expect_valid_unknown_n(sorted);

    std::vector<std::uint64_t> reversed(sorted.rbegin(), sorted.rend());
    expect_valid_unknown_n(reversed);

    std::vector<std::uint64_t> organ_pipe;
    for (std::size_t i = 1; i <= n; i += 2) organ_pipe.push_back(i);
    for (std::size_t i = n - (n % 2 ? 1 : 0); i >= 2; i -= 2) organ_pipe.push_back(i);
    if (organ_pipe.size() == n) expect_valid_unknown_n(organ_pipe);
  }
}

TEST(LocalColouring, RoundsStayLogStarFlat) {
  // The average output round must stay bounded by a small constant times
  // the known-n schedule (log*-flat), across two orders of magnitude.
  support::Xoshiro256 rng(31);
  for (const std::size_t n : {32u, 256u, 2048u}) {
    const auto g = graph::make_cycle(n);
    const auto ids = graph::IdAssignment::random(n, rng);
    local::EngineOptions options;
    options.max_rounds = 10'000;
    const auto run =
        local::run_messages(g, ids, algo::make_local_three_colouring(), options);
    EXPECT_TRUE(algo::is_valid_colouring(g, run.outputs, 3));
    EXPECT_LE(run.max_radius(), 12 * algo::cv_schedule_rounds(n))
        << "n = " << n << " took " << run.max_radius() << " rounds";
  }
}

// ---- MIS -------------------------------------------------------------------

class MisOnRings : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(MisOnRings, ValidMaximalIndependentSet) {
  const auto [n, seed] = GetParam();
  support::Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 7 + n);
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::random(n, rng);
  const auto run = local::run_views(g, ids, algo::make_mis_ring_view(n));
  EXPECT_TRUE(algo::is_maximal_independent_set(g, run.outputs))
      << "n " << n << " seed " << seed;
  // Uniform radius: min(T+2, closure).
  const std::size_t expected = std::min(algo::cv_schedule_rounds(n) + 2, n / 2);
  for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(run.radii[v], expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MisOnRings,
                         ::testing::Combine(::testing::Values(3, 4, 5, 8, 13, 21, 40, 80),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
