// Property-based suites: wire encode/decode round-trips under fuzzing, and
// BallGrower views validated against a naive BFS reconstruction on random
// graphs under both knowledge semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "kit/ball.hpp"
#include "local/view.hpp"
#include "local/wire.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

TEST(WireProperty, RoundTripFuzz) {
  support::Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    // Random schema: sequence of (type, value) records.
    std::vector<int> kinds;
    std::vector<std::uint64_t> u64s;
    std::vector<std::int64_t> i64s;
    std::vector<bool> flags;
    std::vector<std::vector<std::uint64_t>> vectors;

    local::Encoder encoder;
    const std::size_t fields = 1 + rng.below(12);
    for (std::size_t f = 0; f < fields; ++f) {
      switch (rng.below(4)) {
        case 0: {
          const std::uint64_t v = rng.next();
          encoder.u64(v);
          kinds.push_back(0);
          u64s.push_back(v);
          break;
        }
        case 1: {
          const auto v = static_cast<std::int64_t>(rng.next());
          encoder.i64(v);
          kinds.push_back(1);
          i64s.push_back(v);
          break;
        }
        case 2: {
          const bool v = rng.below(2) == 1;
          encoder.flag(v);
          kinds.push_back(2);
          flags.push_back(v);
          break;
        }
        default: {
          std::vector<std::uint64_t> vec(rng.below(6));
          for (auto& x : vec) x = rng.next();
          encoder.u64_vector(vec);
          kinds.push_back(3);
          vectors.push_back(vec);
          break;
        }
      }
    }
    const local::Payload payload = encoder.take();
    local::Decoder decoder(payload);
    std::size_t iu = 0, ii = 0, ifl = 0, iv = 0;
    for (const int kind : kinds) {
      switch (kind) {
        case 0: ASSERT_EQ(decoder.u64(), u64s[iu++]); break;
        case 1: ASSERT_EQ(decoder.i64(), i64s[ii++]); break;
        case 2: ASSERT_EQ(decoder.flag(), flags[ifl++]); break;
        default: ASSERT_EQ(decoder.u64_vector(), vectors[iv++]); break;
      }
    }
    EXPECT_TRUE(decoder.done());
  }
}

TEST(WireProperty, TruncationThrows) {
  local::Encoder encoder;
  encoder.u64(1).u64(2);
  const local::Payload payload = encoder.take();
  local::Decoder d(payload);
  d.u64();
  d.u64();
  EXPECT_THROW(d.u64(), std::out_of_range);

  local::Encoder bad;
  bad.u64(100);  // vector length prefix without the body
  const local::Payload short_payload = bad.take();
  local::Decoder d2(short_payload);
  EXPECT_THROW(d2.u64_vector(), std::out_of_range);
}

// ---- BallGrower vs naive reconstruction ------------------------------------

struct GrowerCase {
  std::string family;
  std::size_t n;
  local::ViewSemantics semantics;
  std::uint64_t seed;
};

class GrowerProperty : public ::testing::TestWithParam<GrowerCase> {};

TEST_P(GrowerProperty, MatchesNaiveBfsReconstruction) {
  const auto& param = GetParam();
  support::Xoshiro256 rng(param.seed);
  const graph::Graph g =
      param.family == "gnp"    ? graph::make_gnp_connected(param.n, 0.12, rng)
      : param.family == "tree" ? graph::make_random_tree(param.n, rng)
      : param.family == "torus"
          ? graph::make_torus(param.n / 6, 6)
          : graph::make_cycle(param.n);
  const std::size_t n = g.vertex_count();
  const auto ids = graph::IdAssignment::random(n, rng);

  local::BallGrower::Scratch scratch(n);
  std::vector<std::uint64_t> view_ids;
  for (int root_trial = 0; root_trial < 5; ++root_trial) {
    const auto root = static_cast<graph::Vertex>(rng.below(n));
    local::BallGrower grower(g, root, param.semantics, scratch);
    const auto all_dist = graph::bfs_distances(g, root);

    for (int r = 0; r <= 6; ++r) {
      // The grower reads no identifiers; bind them over its discovery
      // order, as the view engines do before every on_view call.
      view_ids.clear();
      for (const graph::Vertex v : grower.layers().order()) view_ids.push_back(ids.id_of(v));
      grower.bind_ids(view_ids);
      const local::BallView& view = grower.view();
      // (1) Vertex set == BFS ball of radius r (as an id multiset).
      std::set<std::uint64_t> expected_ids;
      for (graph::Vertex v = 0; v < n; ++v) {
        if (all_dist[v] != graph::kUnreachable && all_dist[v] <= r) {
          expected_ids.insert(ids.id_of(v));
        }
      }
      const std::set<std::uint64_t> got_ids(view.ids.begin(), view.ids.end());
      ASSERT_EQ(got_ids, expected_ids) << param.family << " r=" << r;
      ASSERT_EQ(view.ids.size(), expected_ids.size()) << "no duplicates";

      // (2) Distances match the BFS ground truth.
      for (std::size_t local = 0; local < view.size(); ++local) {
        graph::Vertex global = n;
        for (graph::Vertex v = 0; v < n; ++v) {
          if (ids.id_of(v) == view.ids[local]) global = v;
        }
        ASSERT_LT(global, n);
        EXPECT_EQ(view.dist[local], all_dist[global]);
      }

      // (3) Edge visibility per the declared semantics.
      for (std::size_t la = 0; la < view.size(); ++la) {
        // Map local -> global.
        graph::Vertex a = n;
        for (graph::Vertex v = 0; v < n; ++v) {
          if (ids.id_of(v) == view.ids[la]) a = v;
        }
        ASSERT_EQ(view.ports[la].size(), g.degree(a)) << "true degree exposed";
        for (std::size_t port = 0; port < g.degree(a); ++port) {
          const graph::Vertex b = g.neighbour(a, port);
          const bool b_in_ball =
              all_dist[b] != graph::kUnreachable && all_dist[b] <= r;
          bool expect_visible = false;
          if (param.semantics == local::ViewSemantics::kInducedBall) {
            expect_visible = b_in_ball;
          } else {
            expect_visible = std::min(all_dist[a], all_dist[b]) <= r - 1;
          }
          const bool visible = view.ports[la][port] != local::kUnknownTarget;
          EXPECT_EQ(visible, expect_visible)
              << param.family << " r=" << r << " edge " << a << "-" << b;
          if (visible) {
            EXPECT_EQ(view.ids[view.ports[la][port]], ids.id_of(b)) << "right target";
          }
        }
      }

      // (4) covers_graph iff every edge of every ball vertex is visible.
      bool all_visible = view.size() == n;
      for (std::size_t la = 0; la < view.size() && all_visible; ++la) {
        for (const auto target : view.ports[la]) {
          if (target == local::kUnknownTarget) {
            all_visible = false;
            break;
          }
        }
      }
      EXPECT_EQ(view.covers_graph, all_visible);

      grower.grow();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GrowerProperty,
    ::testing::Values(GrowerCase{"gnp", 30, local::ViewSemantics::kInducedBall, 1},
                      GrowerCase{"gnp", 30, local::ViewSemantics::kFloodingKnowledge, 2},
                      GrowerCase{"tree", 40, local::ViewSemantics::kInducedBall, 3},
                      GrowerCase{"tree", 40, local::ViewSemantics::kFloodingKnowledge, 4},
                      GrowerCase{"torus", 36, local::ViewSemantics::kInducedBall, 5},
                      GrowerCase{"torus", 36, local::ViewSemantics::kFloodingKnowledge, 6},
                      GrowerCase{"cycle", 17, local::ViewSemantics::kInducedBall, 7},
                      GrowerCase{"cycle", 17, local::ViewSemantics::kFloodingKnowledge, 8}),
    [](const auto& param_info) {
      return param_info.param.family +
             (param_info.param.semantics == local::ViewSemantics::kInducedBall ? "_induced"
                                                                         : "_flooding") +
             "_s" + std::to_string(param_info.param.seed);
    });

}  // namespace
