// Tests of the ball-view machinery: the BallLayers geometry core against a
// plain BFS on every registered family, BallGrower under both knowledge
// semantics, ring view extraction, and the view engine loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "graph/family_registry.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "kit/oracles.hpp"
#include "local/view.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;
using local::BallGrower;
using local::BallLayers;
using local::BallView;
using local::ViewSemantics;

/// The grower's view with `ids` gathered over its discovery order and bound
/// into `buffer`, as the view engines bind identifiers before every on_view
/// call (a grower never reads identifiers itself).
const BallView& bound_view(BallGrower& grower, const graph::IdAssignment& ids,
                           std::vector<std::uint64_t>& buffer) {
  buffer.clear();
  for (const graph::Vertex v : grower.layers().order()) buffer.push_back(ids.id_of(v));
  grower.bind_ids(buffer);
  return grower.view();
}

// ---- BallLayers vs a plain BFS ---------------------------------------------

/// A plain FIFO breadth-first search from `root` in port order.
struct ReferenceBall {
  std::vector<graph::Vertex> order;  // discovery order
  std::vector<std::size_t> dist;     // SIZE_MAX = not reached
};

ReferenceBall reference_bfs(const graph::Graph& g, graph::Vertex root) {
  ReferenceBall ball;
  ball.dist.assign(g.vertex_count(), SIZE_MAX);
  ball.dist[root] = 0;
  ball.order.push_back(root);
  for (std::size_t head = 0; head < ball.order.size(); ++head) {
    const graph::Vertex a = ball.order[head];
    for (const graph::Vertex b : g.neighbours(a)) {
      if (ball.dist[b] != SIZE_MAX) continue;
      ball.dist[b] = ball.dist[a] + 1;
      ball.order.push_back(b);
    }
  }
  return ball;
}

/// BallView::covers_graph from its definition: every port of every vertex
/// within distance r is visible - under induced semantics when its far end
/// is within r too, under flooding semantics when one end is within r - 1.
bool reference_covers(const graph::Graph& g, const std::vector<std::size_t>& dist, std::size_t r,
                      ViewSemantics semantics) {
  for (graph::Vertex a = 0; a < g.vertex_count(); ++a) {
    if (dist[a] > r) continue;
    for (const graph::Vertex b : g.neighbours(a)) {
      const bool visible = semantics == ViewSemantics::kInducedBall
                               ? dist[b] <= r
                               : std::min(dist[a], dist[b]) + 1 <= r;
      if (!visible) return false;
    }
  }
  return true;
}

TEST(BallLayers, MatchesPlainBfsOnEveryFamily) {
  // For every family, size, semantics and root: the core's discovery order,
  // ball size at each radius and first covering radius equal the plain
  // BFS's, one radius past coverage; the grower built on it agrees.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= 24; ++n) sizes.push_back(n);
  sizes.push_back(257);
  const graph::FamilyRegistry& families = graph::FamilyRegistry::global();
  for (const std::string& name : families.names()) {
    for (const std::size_t requested : sizes) {
      support::Xoshiro256 rng(requested);
      const graph::Graph g = families.build({name, {}}, requested, rng);
      const std::size_t n = g.vertex_count();
      for (const auto semantics :
           {ViewSemantics::kInducedBall, ViewSemantics::kFloodingKnowledge}) {
        BallLayers::Scratch scratch(n);
        BallLayers layers(g, 0, semantics, scratch);
        BallGrower::Scratch grower_scratch(n);
        BallGrower grower(g, 0, semantics, grower_scratch);
        for (graph::Vertex root = 0; root < n; ++root) {
          layers.reset(root);
          grower.reset(root);
          const ReferenceBall ref = reference_bfs(g, root);
          ASSERT_EQ(ref.order.size(), n) << name << " is connected";
          std::size_t first_cover = SIZE_MAX;
          std::size_t in_ball = 0;
          for (std::size_t r = 0; first_cover == SIZE_MAX || r <= first_cover + 1; ++r) {
            ASSERT_LE(r, n) << name << " n=" << n << " root " << root;
            if (r > 0) {
              layers.grow();
              grower.grow();
            }
            while (in_ball < n && ref.dist[ref.order[in_ball]] <= r) ++in_ball;
            if (first_cover == SIZE_MAX && reference_covers(g, ref.dist, r, semantics)) {
              first_cover = r;
            }
            ASSERT_EQ(layers.radius(), r);
            ASSERT_EQ(layers.sizes().size(), r + 1);
            ASSERT_EQ(layers.sizes()[r], in_ball)
                << name << " n=" << n << " " << local::to_string(semantics) << " root " << root
                << " r=" << r;
            ASSERT_EQ(layers.covers_radius(), first_cover)
                << name << " n=" << n << " " << local::to_string(semantics) << " root " << root
                << " r=" << r;
            ASSERT_EQ(grower.view().covers_graph, first_cover != SIZE_MAX);
            ASSERT_EQ(grower.view().dist.size(), in_ball);
          }
          ASSERT_TRUE(std::ranges::equal(layers.order(), ref.order))
              << name << " n=" << n << " " << local::to_string(semantics) << " root " << root;
          ASSERT_TRUE(std::ranges::equal(grower.layers().order(), ref.order));
        }
      }
    }
  }
}

TEST(BallGrower, RadiusZeroIsJustTheRoot) {
  const auto g = graph::make_cycle(5);
  const auto ids = graph::IdAssignment::identity(5);
  BallGrower::Scratch scratch(5);
  BallGrower grower(g, 2, ViewSemantics::kInducedBall, scratch);
  std::vector<std::uint64_t> buffer;
  const BallView& view = bound_view(grower, ids, buffer);
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
    BallGrower grower(g, 0, ViewSemantics::kInducedBall, scratch);
    std::size_t r = 0;
    while (!grower.view().covers_graph) {
      grower.grow();
      ++r;
      ASSERT_LE(r, n);
    }
    EXPECT_EQ(r, n / 2) << "induced closure at ceil((n-1)/2), n = " << n;
    std::vector<std::uint64_t> buffer;
    EXPECT_EQ(bound_view(grower, ids, buffer).size(), n);
  }
}

TEST(BallGrower, FloodingCoversCycleLater) {
  for (const std::size_t n : {4u, 5u, 6u, 7u, 9u, 12u}) {
    const auto g = graph::make_cycle(n);
    BallGrower::Scratch scratch(n);
    BallGrower grower(g, 1, ViewSemantics::kFloodingKnowledge, scratch);
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
  BallGrower grower(g, 0, ViewSemantics::kInducedBall, scratch);
  std::vector<std::uint64_t> buffer;
  for (std::size_t r = 1; r <= 5; ++r) {
    grower.grow();
    EXPECT_EQ(bound_view(grower, ids, buffer).size(), std::min(n, 2 * r + 1));
  }
}

TEST(BallGrower, ViewIdsAreAppendOnly) {
  const std::size_t n = 16;
  const auto g = graph::make_cycle(n);
  avglocal::support::Xoshiro256 rng(11);
  const auto ids = graph::IdAssignment::random(n, rng);
  BallGrower::Scratch scratch(n);
  BallGrower grower(g, 3, ViewSemantics::kInducedBall, scratch);
  std::vector<std::uint64_t> buffer;
  const auto first = bound_view(grower, ids, buffer).ids;
  std::vector<std::uint64_t> prefix(first.begin(), first.end());
  for (int r = 1; r <= 8; ++r) {
    grower.grow();
    const auto now = bound_view(grower, ids, buffer).ids;
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
    BallGrower grower(g, v, ViewSemantics::kInducedBall, scratch);
    grower.grow();
    std::vector<std::uint64_t> buffer;
    const BallView& view = bound_view(grower, ids, buffer);
    EXPECT_EQ(view.size(), 3u);
    EXPECT_EQ(view.root_id(), v + 1);
  }
}

TEST(BallGrower, StarGeometry) {
  const auto g = graph::make_star(7);
  const auto ids = graph::IdAssignment::identity(7);
  BallGrower::Scratch scratch(7);
  std::vector<std::uint64_t> buffer;
  {
    BallGrower centre(g, 0, ViewSemantics::kInducedBall, scratch);
    centre.grow();
    EXPECT_TRUE(centre.view().covers_graph);
    EXPECT_EQ(bound_view(centre, ids, buffer).size(), 7u);
  }
  {
    BallGrower leaf(g, 1, ViewSemantics::kInducedBall, scratch);
    leaf.grow();
    EXPECT_EQ(bound_view(leaf, ids, buffer).size(), 2u);
    EXPECT_FALSE(leaf.view().covers_graph);
    leaf.grow();
    EXPECT_TRUE(leaf.view().covers_graph);
    EXPECT_EQ(bound_view(leaf, ids, buffer).size(), 7u);
  }
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
  BallGrower grower(g, root, semantics, scratch);
  for (std::size_t r = 0; r < radius; ++r) grower.grow();
  std::vector<std::uint64_t> buffer;
  local::RingView ring;
  ASSERT_TRUE(local::extract_ring_view(bound_view(grower, ids, buffer), ring));
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
  BallGrower grower(g, 0, ViewSemantics::kInducedBall, scratch);
  grower.grow();
  std::vector<std::uint64_t> buffer;
  local::RingView ring;
  EXPECT_FALSE(local::extract_ring_view(bound_view(grower, ids, buffer), ring));
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
  const auto ids = graph::reversed_ids(20);
  BallGrower::Scratch scratch(20);
  BallGrower reused(g, 0, ViewSemantics::kInducedBall, scratch);
  for (avglocal::graph::Vertex root = 0; root < 20; ++root) {
    reused.reset(root);
    reused.grow();
    reused.grow();

    BallGrower::Scratch fresh_scratch(20);
    BallGrower fresh(g, root, ViewSemantics::kInducedBall, fresh_scratch);
    fresh.grow();
    fresh.grow();

    std::vector<std::uint64_t> reused_ids;
    std::vector<std::uint64_t> fresh_ids;
    const auto& a = bound_view(reused, ids, reused_ids);
    const auto& b = bound_view(fresh, ids, fresh_ids);
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
