// Executable Lemma 2: the smoothness bound, the improvement transformation
// A -> A', its dominance, and the validity of A' across instances.
#include <gtest/gtest.h>

#include "algo/cole_vishkin.hpp"
#include "algo/validity.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "kit/oracles.hpp"
#include "kit/tabular.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;
using analysis::Lemma2Improved;
using analysis::RingViewFunction;

/// Cole-Vishkin with one designated laggard identifier that waits for a
/// larger radius before outputting its (still correct) colour. Introduces a
/// radius-smoothness violation without breaking validity.
class LazyColouring final : public local::ViewAlgorithm {
 public:
  LazyColouring(std::size_t n, std::uint64_t laggard, std::size_t big_radius)
      : inner_(algo::make_cole_vishkin_view(n)()), laggard_(laggard), big_(big_radius) {}

  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    if (view.root_id() == laggard_ && static_cast<std::size_t>(view.radius) < big_ &&
        !view.covers_graph) {
      return std::nullopt;
    }
    return inner_->on_view(view);
  }

 private:
  std::unique_ptr<local::ViewAlgorithm> inner_;
  std::uint64_t laggard_;
  std::size_t big_;
};

constexpr std::size_t kN = 24;
constexpr std::uint64_t kLaggard = 13;
constexpr std::size_t kBigRadius = 9;

local::ViewAlgorithmFactory lazy_factory() {
  return [] { return std::make_unique<LazyColouring>(kN, kLaggard, kBigRadius); };
}

std::vector<std::uint64_t> test_instance() {
  avglocal::support::Xoshiro256 rng(2024);
  return support::random_permutation(kN, rng);
}

TEST(RingViewFunction, ReproducesEngineRun) {
  const std::size_t n = 16;
  support::Xoshiro256 rng(5);
  const auto ids_vec = support::random_permutation(n, rng);
  const RingViewFunction fn(algo::make_cole_vishkin_view(n));
  const auto by_function = fn.run_instance(ids_vec);

  const auto g = graph::make_cycle(n);
  const auto by_engine =
      local::run_views(g, graph::IdAssignment(ids_vec), algo::make_cole_vishkin_view(n));
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(by_function.outputs[v], by_engine.outputs[v]) << "v " << v;
    EXPECT_EQ(by_function.radii[v], by_engine.radii[v]) << "v " << v;
  }
}

TEST(RingViewFunction, ViewKeyExtraction) {
  const std::vector<std::uint64_t> ids = {10, 20, 30, 40, 50};
  const auto key = analysis::ring_view_key(ids, 0, 2);
  // [ccw_2, ccw_1, own, cw_1, cw_2]
  EXPECT_EQ(key, (std::vector<std::uint64_t>{40, 50, 10, 20, 30}));
  EXPECT_THROW(analysis::ring_view_key(ids, 0, 3), std::invalid_argument);
}

TEST(Lemma2, UniformAlgorithmsHaveNoViolation) {
  const std::size_t n = 16;
  support::Xoshiro256 rng(6);
  const auto ids = support::random_permutation(n, rng);
  const RingViewFunction cv(algo::make_cole_vishkin_view(n));
  EXPECT_FALSE(analysis::find_smoothness_violation(cv, ids).has_value());
}

TEST(Lemma2, LazyAlgorithmViolatesSmoothness) {
  const auto instance = test_instance();
  const RingViewFunction lazy(lazy_factory());
  const auto violation = analysis::find_smoothness_violation(lazy, instance);
  ASSERT_TRUE(violation.has_value());
  // The laggard is an offender.
  std::size_t laggard_pos = kN;
  for (std::size_t i = 0; i < kN; ++i) {
    if (instance[i] == kLaggard) laggard_pos = i;
  }
  ASSERT_NE(laggard_pos, kN);
  EXPECT_NE(std::find(violation->offenders.begin(), violation->offenders.end(), laggard_pos),
            violation->offenders.end());
  EXPECT_LT(violation->tau, kBigRadius);
  EXPECT_GT(instance[violation->x], instance[violation->y])
      << "x must carry the larger identifier";
}

TEST(Lemma2, ImprovedDominatesOnTheInstance) {
  const auto instance = test_instance();
  const RingViewFunction lazy(lazy_factory());
  const auto violation = analysis::find_smoothness_violation(lazy, instance);
  ASSERT_TRUE(violation.has_value());
  const Lemma2Improved improved(lazy, instance, *violation);

  const auto before = lazy.run_instance(instance);
  const auto after = improved.run_instance(instance);
  bool strictly_better_somewhere = false;
  for (std::size_t v = 0; v < kN; ++v) {
    EXPECT_LE(after.radii[v], before.radii[v]) << "v " << v;
    if (after.radii[v] < before.radii[v]) strictly_better_somewhere = true;
  }
  EXPECT_TRUE(strictly_better_somewhere);
  for (const std::size_t offender : violation->offenders) {
    EXPECT_EQ(after.radii[offender], violation->tau);
  }
}

TEST(Lemma2, ImprovedIsAValidFourColouringOnTheInstance) {
  const auto instance = test_instance();
  const RingViewFunction lazy(lazy_factory());
  const auto violation = analysis::find_smoothness_violation(lazy, instance);
  ASSERT_TRUE(violation.has_value());
  const Lemma2Improved improved(lazy, instance, *violation);
  const auto run = improved.run_instance(instance);
  const auto g = graph::make_cycle(kN);
  EXPECT_TRUE(algo::is_valid_colouring(g, run.outputs, 4));
}

TEST(Lemma2, ImprovedStaysValidWhenOutsideTheSliceChanges) {
  // The proof's key requirement: A' is valid on *every* instance. Stress
  // the interesting ones - the slice intact, everything else permuted.
  const auto instance = test_instance();
  const RingViewFunction lazy(lazy_factory());
  const auto violation = analysis::find_smoothness_violation(lazy, instance);
  ASSERT_TRUE(violation.has_value());
  const Lemma2Improved improved(lazy, instance, *violation);
  const auto g = graph::make_cycle(kN);

  const auto base_run = lazy.run_instance(instance);
  // Slice positions: from x's view start to y's view end.
  const std::size_t n = kN;
  const std::size_t a =
      ((violation->x + violation->k + 1) % n == violation->y) ? violation->x : violation->y;
  const std::size_t b = (a + violation->k + 1) % n;
  const std::size_t start = (a + n - base_run.radii[a]) % n;
  const std::size_t length =
      base_run.radii[a] + 1 + violation->k + 1 + base_run.radii[b];
  std::vector<bool> in_slice(n, false);
  for (std::size_t j = 0; j < length; ++j) in_slice[(start + j) % n] = true;

  support::Xoshiro256 rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::uint64_t> mutated = instance;
    std::vector<std::size_t> outside;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_slice[i]) outside.push_back(i);
    }
    for (std::size_t i = outside.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(rng.below(i));
      std::swap(mutated[outside[i - 1]], mutated[outside[j]]);
    }
    const auto run = improved.run_instance(mutated);
    EXPECT_TRUE(algo::is_valid_colouring(g, run.outputs, 4)) << "trial " << trial;
  }
}

TEST(Lemma2, ImprovedEqualsBaseOnUnrelatedInstances) {
  const auto instance = test_instance();
  const RingViewFunction lazy(lazy_factory());
  const auto violation = analysis::find_smoothness_violation(lazy, instance);
  ASSERT_TRUE(violation.has_value());
  const Lemma2Improved improved(lazy, instance, *violation);
  const auto g = graph::make_cycle(kN);

  support::Xoshiro256 rng(88);
  for (int trial = 0; trial < 5; ++trial) {
    const auto other = support::random_permutation(kN, rng);
    const auto run_improved = improved.run_instance(other);
    EXPECT_TRUE(algo::is_valid_colouring(g, run_improved.outputs, 4)) << "trial " << trial;
  }
}

}  // namespace
