// Unit tests for the graph library: builders, generators, balls, IO.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "graph/ball.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal::graph;
using avglocal::support::Xoshiro256;

TEST(Builder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(Builder, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
}

TEST(Builder, RejectsDuplicateEdge) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 1);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Builder, RejectsAsymmetricArcs) {
  GraphBuilder b(3);
  b.add_arc(0, 1);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Builder, PortOrderFollowsInsertion) {
  GraphBuilder b(4);
  b.add_arc(0, 2);
  b.add_arc(0, 1);
  b.add_arc(0, 3);
  b.add_arc(1, 0);
  b.add_arc(2, 0);
  b.add_arc(3, 0);
  const Graph g = b.build();
  EXPECT_EQ(g.neighbour(0, 0), 2u);
  EXPECT_EQ(g.neighbour(0, 1), 1u);
  EXPECT_EQ(g.neighbour(0, 2), 3u);
  EXPECT_EQ(g.mirror_port(1, 0), 1u) << "arc 1->0 mirrors to 0's port 1";
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 2)) << "absent edge";
}

TEST(Generators, CyclePortConvention) {
  const Graph g = make_cycle(7);
  EXPECT_TRUE(is_cycle(g));
  EXPECT_EQ(g.vertex_count(), 7u);
  EXPECT_EQ(g.edge_count(), 7u);
  for (Vertex v = 0; v < 7; ++v) {
    EXPECT_EQ(g.neighbour(v, 0), (v + 1) % 7) << "port 0 is the clockwise successor";
    EXPECT_EQ(g.neighbour(v, 1), (v + 6) % 7) << "port 1 is the predecessor";
  }
}

TEST(Generators, CycleRejectsTiny) { EXPECT_THROW(make_cycle(2), std::invalid_argument); }

TEST(Generators, Path) {
  const Graph g = make_path(5);
  EXPECT_TRUE(is_path(g));
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(4), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  // Interior port convention: 0 = right, 1 = left.
  EXPECT_EQ(g.neighbour(2, 0), 3u);
  EXPECT_EQ(g.neighbour(2, 1), 1u);
}

TEST(Generators, CompleteAndStar) {
  const Graph k5 = make_complete(5);
  EXPECT_EQ(k5.edge_count(), 10u);
  EXPECT_EQ(min_degree(k5), 4u);
  const Graph s6 = make_star(6);
  EXPECT_EQ(s6.degree(0), 5u);
  EXPECT_EQ(max_degree(s6), 5u);
  EXPECT_EQ(min_degree(s6), 1u);
  EXPECT_TRUE(is_tree(s6));
}

TEST(Generators, GridAndTorus) {
  const Graph grid = make_grid(3, 4);
  EXPECT_EQ(grid.vertex_count(), 12u);
  EXPECT_EQ(grid.edge_count(), 3u * 3 + 2u * 4);  // horizontal + vertical
  EXPECT_TRUE(is_connected(grid));
  const Graph torus = make_torus(3, 4);
  EXPECT_EQ(torus.edge_count(), 24u);
  EXPECT_EQ(min_degree(torus), 4u);
  EXPECT_EQ(max_degree(torus), 4u);
}

TEST(Generators, KaryTree) {
  const Graph t = make_kary_tree(2, 4);  // 1 + 2 + 4 + 8 = 15 vertices
  EXPECT_EQ(t.vertex_count(), 15u);
  EXPECT_TRUE(is_tree(t));
  EXPECT_EQ(t.degree(0), 2u);
}

TEST(Generators, RandomTreeIsTree) {
  Xoshiro256 rng(3);
  for (const std::size_t n : {2u, 3u, 10u, 57u, 200u}) {
    const Graph t = make_random_tree(n, rng);
    EXPECT_EQ(t.vertex_count(), n);
    EXPECT_TRUE(is_tree(t)) << "n = " << n;
  }
}

TEST(Generators, GnpConnected) {
  Xoshiro256 rng(4);
  const Graph g = make_gnp_connected(60, 0.15, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.vertex_count(), 60u);
}

TEST(Generators, RandomRegular) {
  Xoshiro256 rng(5);
  const Graph g = make_random_regular(24, 3, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(min_degree(g), 3u);
  EXPECT_EQ(max_degree(g), 3u);
  EXPECT_THROW(make_random_regular(5, 3, rng), std::invalid_argument);  // odd n*d
}

TEST(Ids, RejectsDuplicates) {
  EXPECT_THROW(IdAssignment({1, 2, 2}), std::invalid_argument);
  EXPECT_THROW(IdAssignment(std::vector<std::uint64_t>{}), std::invalid_argument);
}

TEST(Ids, FactoriesAndArgmax) {
  const auto ident = IdAssignment::identity(5);
  EXPECT_EQ(ident.id_of(0), 1u);
  EXPECT_EQ(ident.id_of(4), 5u);
  EXPECT_EQ(ident.argmax(), 4u);
  const auto rev = IdAssignment::reversed(5);
  EXPECT_EQ(rev.id_of(0), 5u);
  EXPECT_EQ(rev.argmax(), 0u);
  Xoshiro256 rng(6);
  const auto rnd = IdAssignment::random(100, rng);
  std::set<std::uint64_t> values(rnd.ids().begin(), rnd.ids().end());
  EXPECT_EQ(values.size(), 100u);
}

TEST(Ids, SwapProducesNewAssignment) {
  const auto base = IdAssignment::identity(4);
  const auto swapped = base.with_swapped(0, 3);
  EXPECT_EQ(swapped.id_of(0), 4u);
  EXPECT_EQ(swapped.id_of(3), 1u);
  EXPECT_EQ(base.id_of(0), 1u) << "original untouched";
}

TEST(Ball, DistancesOnCycle) {
  const Graph g = make_cycle(8);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[7], 1);
  EXPECT_EQ(dist[4], 4);
}

TEST(Ball, MaxDepthCutsOff) {
  const Graph g = make_path(10);
  const auto dist = bfs_distances(g, 0, 3);
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Ball, BallVerticesOrderAndContent) {
  const Graph g = make_cycle(9);
  const auto ball = ball_vertices(g, 0, 2);
  ASSERT_EQ(ball.size(), 5u);
  EXPECT_EQ(ball[0], 0u);
  // Layer 1 in port order (successor first), then layer 2.
  EXPECT_EQ(ball[1], 1u);
  EXPECT_EQ(ball[2], 8u);
  EXPECT_EQ(ball[3], 2u);
  EXPECT_EQ(ball[4], 7u);
}

TEST(Ball, EccentricityAndDiameter) {
  EXPECT_EQ(eccentricity(make_path(10), 0), 9);
  EXPECT_EQ(eccentricity(make_path(10), 5), 5);
  EXPECT_EQ(diameter(make_cycle(10)), 5);
  EXPECT_EQ(diameter(make_cycle(11)), 5);
  EXPECT_EQ(diameter(make_complete(7)), 1);
}

TEST(Ball, DistanceBetweenVertices) {
  const Graph g = make_grid(4, 4);
  EXPECT_EQ(distance(g, 0, 15), 6);
  EXPECT_EQ(distance(g, 0, 0), 0);
}

TEST(Io, EdgeListRoundTrip) {
  const Graph g = make_grid(3, 3);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph parsed = read_edge_list(buffer);
  EXPECT_EQ(parsed.vertex_count(), g.vertex_count());
  EXPECT_EQ(parsed.edge_count(), g.edge_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    for (Vertex u : g.neighbours(v)) EXPECT_TRUE(parsed.has_edge(v, u));
  }
}

TEST(Io, EdgeListRejectsMalformed) {
  std::stringstream bad("3 1\n0 9\n");
  EXPECT_THROW(read_edge_list(bad), std::invalid_argument);
}

TEST(Io, DotContainsLabels) {
  const Graph g = make_cycle(3);
  const auto ids = IdAssignment::reversed(3);
  const std::string dot = to_dot(g, &ids);
  EXPECT_NE(dot.find("label=\"3\""), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);
}

TEST(Properties, Classification) {
  EXPECT_TRUE(is_cycle(make_cycle(5)));
  EXPECT_FALSE(is_cycle(make_path(5)));
  EXPECT_TRUE(is_path(make_path(2)));
  EXPECT_FALSE(is_path(make_star(5)));
  EXPECT_TRUE(is_tree(make_path(6)));
  EXPECT_FALSE(is_tree(make_cycle(6)));
}

TEST(Graph, MirrorPortInvariantHoldsEverywhere) {
  // mirror_port is the only reverse-edge lookup left (the port_to
  // linear-scan fallback is gone), so pin its invariant independently of
  // the builder's own debug assertions: the mirror arc leads back to the
  // origin and mirroring is an involution, for every arc of every family.
  Xoshiro256 rng(31);
  const Graph graphs[] = {make_cycle(9), make_star(8), make_grid(3, 4),
                          make_random_tree(20, rng), make_gnp_connected(18, 0.3, rng)};
  for (const Graph& g : graphs) {
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      for (std::size_t p = 0; p < g.degree(v); ++p) {
        const Vertex u = g.neighbour(v, p);
        const std::size_t q = g.mirror_port(v, p);
        ASSERT_LT(q, g.degree(u)) << "v=" << v << " p=" << p;
        EXPECT_EQ(g.neighbour(u, q), v) << "mirror must lead back";
        EXPECT_EQ(g.mirror_port(u, q), p) << "mirror is an involution";
        EXPECT_TRUE(g.has_edge(u, v));
        EXPECT_TRUE(g.has_edge(v, u));
      }
    }
  }
}

TEST(Graph, ArcIndexEnumeratesCsrSlots) {
  const Graph g = make_cycle(5);
  EXPECT_EQ(g.arc_count(), 10u);
  std::set<std::size_t> seen;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    for (std::size_t p = 0; p < g.degree(v); ++p) seen.insert(g.arc_index(v, p));
  }
  EXPECT_EQ(seen.size(), g.arc_count());
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), g.arc_count() - 1);
}

}  // namespace
