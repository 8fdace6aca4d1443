// Tests of the ball-view machinery: BallGrower under both knowledge
// semantics, ring view extraction, and the view engine loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/view.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;
using local::BallGrower;
using local::BallView;
using local::ViewSemantics;

TEST(BallGrower, RadiusZeroIsJustTheRoot) {
  const auto g = graph::make_cycle(5);
  const auto ids = graph::IdAssignment::identity(5);
  BallGrower::Scratch scratch(5);
  BallGrower grower(g, ids, 2, ViewSemantics::kInducedBall, scratch);
  const BallView& view = grower.view();
  EXPECT_EQ(view.radius, 0);
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.root_id(), 3u);
  EXPECT_EQ(view.degree_of(0), 2u);
  EXPECT_FALSE(view.covers_graph);
}

TEST(BallGrower, InducedCoversCycleAtCeilHalf) {
  for (const std::size_t n : {3u, 4u, 5u, 6u, 7u, 8u, 9u}) {
    const auto g = graph::make_cycle(n);
    const auto ids = graph::IdAssignment::identity(n);
    BallGrower::Scratch scratch(n);
    BallGrower grower(g, ids, 0, ViewSemantics::kInducedBall, scratch);
    std::size_t r = 0;
    while (!grower.view().covers_graph) {
      grower.grow();
      ++r;
      ASSERT_LE(r, n);
    }
    EXPECT_EQ(r, n / 2) << "induced closure at ceil((n-1)/2), n = " << n;
    EXPECT_EQ(grower.view().size(), n);
  }
}

TEST(BallGrower, FloodingCoversCycleLater) {
  for (const std::size_t n : {4u, 5u, 6u, 7u, 9u, 12u}) {
    const auto g = graph::make_cycle(n);
    const auto ids = graph::IdAssignment::identity(n);
    BallGrower::Scratch scratch(n);
    BallGrower grower(g, ids, 1, ViewSemantics::kFloodingKnowledge, scratch);
    std::size_t r = 0;
    while (!grower.view().covers_graph) {
      grower.grow();
      ++r;
      ASSERT_LE(r, n);
    }
    EXPECT_EQ(r, (n + 1) / 2) << "flooding closure at ceil(n/2), n = " << n;
  }
}

TEST(BallGrower, LayerSizesOnCycle) {
  const std::size_t n = 11;
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::identity(n);
  BallGrower::Scratch scratch(n);
  BallGrower grower(g, ids, 0, ViewSemantics::kInducedBall, scratch);
  for (std::size_t r = 1; r <= 5; ++r) {
    grower.grow();
    EXPECT_EQ(grower.view().size(), std::min(n, 2 * r + 1));
  }
}

TEST(BallGrower, ViewIdsAreAppendOnly) {
  const std::size_t n = 16;
  const auto g = graph::make_cycle(n);
  avglocal::support::Xoshiro256 rng(11);
  const auto ids = graph::IdAssignment::random(n, rng);
  BallGrower::Scratch scratch(n);
  BallGrower grower(g, ids, 3, ViewSemantics::kInducedBall, scratch);
  std::vector<std::uint64_t> prefix(grower.view().ids.begin(), grower.view().ids.end());
  for (int r = 1; r <= 8; ++r) {
    grower.grow();
    const auto now = grower.view().ids;
    ASSERT_GE(now.size(), prefix.size());
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(now[i], prefix[i]) << "prefix must be stable";
    }
    prefix.assign(now.begin(), now.end());
  }
}

TEST(BallGrower, ScratchIsReusableAcrossGrowers) {
  const std::size_t n = 10;
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::identity(n);
  BallGrower::Scratch scratch(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    BallGrower grower(g, ids, v, ViewSemantics::kInducedBall, scratch);
    grower.grow();
    EXPECT_EQ(grower.view().size(), 3u);
    EXPECT_EQ(grower.view().root_id(), v + 1);
  }
}

TEST(BallGrower, StarGeometry) {
  const auto g = graph::make_star(7);
  const auto ids = graph::IdAssignment::identity(7);
  BallGrower::Scratch scratch(7);
  {
    BallGrower centre(g, ids, 0, ViewSemantics::kInducedBall, scratch);
    centre.grow();
    EXPECT_TRUE(centre.view().covers_graph);
    EXPECT_EQ(centre.view().size(), 7u);
  }
  {
    BallGrower leaf(g, ids, 1, ViewSemantics::kInducedBall, scratch);
    leaf.grow();
    EXPECT_EQ(leaf.view().size(), 2u);
    EXPECT_FALSE(leaf.view().covers_graph);
    leaf.grow();
    EXPECT_TRUE(leaf.view().covers_graph);
    EXPECT_EQ(leaf.view().size(), 7u);
  }
}

TEST(BallView, MaxAndGreaterQueries) {
  const auto g = graph::make_cycle(6);
  const auto ids = graph::IdAssignment::reversed(6);  // ids 6,5,4,3,2,1
  BallGrower::Scratch scratch(6);
  BallGrower grower(g, ids, 3, ViewSemantics::kInducedBall, scratch);  // own id 3
  grower.grow();
  const BallView& view = grower.view();
  EXPECT_EQ(view.max_id(), 4u);
  EXPECT_TRUE(view.contains_id_greater_than(3));
  EXPECT_FALSE(view.contains_id_greater_than(4));
}

struct RingViewCase {
  std::size_t n;
  std::size_t radius;
  local::ViewSemantics semantics;
};

class RingViewExtraction : public ::testing::TestWithParam<RingViewCase> {};

TEST_P(RingViewExtraction, WalksMatchArcOrder) {
  const auto [n, radius, semantics] = GetParam();
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::identity(n);
  BallGrower::Scratch scratch(n);
  const graph::Vertex root = 0;
  BallGrower grower(g, ids, root, semantics, scratch);
  for (std::size_t r = 0; r < radius; ++r) grower.grow();
  local::RingView ring;
  ASSERT_TRUE(local::extract_ring_view(grower.view(), ring));
  EXPECT_EQ(ring.own, 1u);
  if (ring.closed) {
    EXPECT_EQ(ring.seen_count(), n);
    EXPECT_TRUE(ring.ccw.empty());
    ASSERT_EQ(ring.cw.size(), n - 1);
    for (std::size_t i = 0; i < ring.cw.size(); ++i) {
      EXPECT_EQ(ring.cw[i], 2 + i) << "clockwise walk follows ring order";
    }
  } else {
    ASSERT_EQ(ring.cw.size(), radius);
    ASSERT_EQ(ring.ccw.size(), radius);
    for (std::size_t i = 0; i < radius; ++i) {
      EXPECT_EQ(ring.cw[i], (root + i + 1) % n + 1);  // identifier = vertex index + 1
      EXPECT_EQ(ring.ccw[i], (root + n - i - 1) % n + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingViewExtraction,
    ::testing::Values(RingViewCase{9, 2, ViewSemantics::kInducedBall},
                      RingViewCase{9, 3, ViewSemantics::kInducedBall},
                      RingViewCase{9, 4, ViewSemantics::kInducedBall},   // closed
                      RingViewCase{12, 3, ViewSemantics::kFloodingKnowledge},
                      RingViewCase{12, 6, ViewSemantics::kFloodingKnowledge},  // closed
                      RingViewCase{5, 2, ViewSemantics::kInducedBall}));      // closed

TEST(RingView, NonRingRootIsRejected) {
  const auto g = graph::make_star(5);
  const auto ids = graph::IdAssignment::identity(5);
  BallGrower::Scratch scratch(5);
  BallGrower grower(g, ids, 0, ViewSemantics::kInducedBall, scratch);
  grower.grow();
  local::RingView ring;
  EXPECT_FALSE(local::extract_ring_view(grower.view(), ring));
}

// ---- view engine ----------------------------------------------------------

/// Stops at a fixed radius, outputs the ball size (for engine-loop tests).
class StopAtRadius final : public local::ViewAlgorithm {
 public:
  explicit StopAtRadius(int r) : target_(r) {}
  std::optional<std::int64_t> on_view(const BallView& view) override {
    if (view.radius < target_ && !view.covers_graph) return std::nullopt;
    return static_cast<std::int64_t>(view.size());
  }

 private:
  int target_;
};

TEST(ViewEngine, RadiiAndOutputs) {
  const auto g = graph::make_cycle(10);
  const auto ids = graph::IdAssignment::identity(10);
  const auto run = local::run_views(g, ids, [] { return std::make_unique<StopAtRadius>(2); });
  for (std::size_t v = 0; v < 10; ++v) {
    EXPECT_EQ(run.radii[v], 2u);
    EXPECT_EQ(run.outputs[v], 5);
  }
  EXPECT_EQ(run.max_radius(), 2u);
  EXPECT_DOUBLE_EQ(run.average_radius(), 2.0);
  EXPECT_EQ(run.sum_radius(), 20u);
}

TEST(ViewEngine, CoverShortCircuitsLargeTargets) {
  const auto g = graph::make_cycle(6);
  const auto ids = graph::IdAssignment::identity(6);
  const auto run =
      local::run_views(g, ids, [] { return std::make_unique<StopAtRadius>(100); });
  for (std::size_t v = 0; v < 6; ++v) EXPECT_EQ(run.radii[v], 3u);
}

/// Never stops: engine must throw at the cap.
class NeverStops final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const BallView&) override { return std::nullopt; }
};

TEST(ViewEngine, RadiusCapThrows) {
  const auto g = graph::make_cycle(6);
  const auto ids = graph::IdAssignment::identity(6);
  EXPECT_THROW(local::run_views(g, ids, [] { return std::make_unique<NeverStops>(); }),
               std::runtime_error);
}

TEST(ViewEngine, SingleVertexRunner) {
  const auto g = graph::make_cycle(9);
  const auto ids = graph::IdAssignment::identity(9);
  const local::RunResult run =
      local::run_views(g, ids, [] { return std::make_unique<StopAtRadius>(1); });
  EXPECT_EQ(run.radii[4], 1u);
  EXPECT_EQ(run.outputs[4], 3);
}

TEST(PortTable, RowsSpansAndReuse) {
  local::PortTable table;
  EXPECT_EQ(table.rows(), 0u);
  table.add_row(2);
  table.add_row(0);
  table.add_row(3);
  ASSERT_EQ(table.rows(), 3u);
  EXPECT_EQ(table.row_size(0), 2u);
  EXPECT_EQ(table.row_size(1), 0u);
  EXPECT_EQ(table[2].size(), 3u);
  for (const auto target : table[0]) EXPECT_EQ(target, local::kUnknownTarget);
  table[0][1] = 7;
  EXPECT_EQ(table[0][1], 7u);
  table.clear();
  EXPECT_EQ(table.rows(), 0u);
  table.assign_rows(4, 2);
  ASSERT_EQ(table.rows(), 4u);
  for (std::size_t row = 0; row < 4; ++row) {
    ASSERT_EQ(table.row_size(row), 2u);
    EXPECT_EQ(table[row][0], local::kUnknownTarget);
  }
}

TEST(BallGrower, ResetReRootsAndMatchesFreshGrower) {
  const auto g = graph::make_grid(4, 5);
  const auto ids = graph::IdAssignment::reversed(20);
  BallGrower::Scratch scratch(20);
  BallGrower reused(g, ids, 0, ViewSemantics::kInducedBall, scratch);
  for (avglocal::graph::Vertex root = 0; root < 20; ++root) {
    reused.reset(root);
    reused.grow();
    reused.grow();

    BallGrower::Scratch fresh_scratch(20);
    BallGrower fresh(g, ids, root, ViewSemantics::kInducedBall, fresh_scratch);
    fresh.grow();
    fresh.grow();

    const auto& a = reused.view();
    const auto& b = fresh.view();
    ASSERT_EQ(a.size(), b.size()) << "root " << root;
    EXPECT_TRUE(std::equal(a.ids.begin(), a.ids.end(), b.ids.begin(), b.ids.end()));
    EXPECT_EQ(a.dist, b.dist);
    EXPECT_EQ(a.covers_graph, b.covers_graph);
    for (std::size_t v = 0; v < a.size(); ++v) {
      ASSERT_EQ(a.degree_of(v), b.degree_of(v));
      for (std::size_t port = 0; port < a.degree_of(v); ++port) {
        EXPECT_EQ(a.ports[v][port], b.ports[v][port]) << "root " << root;
      }
    }
  }
}

}  // namespace
