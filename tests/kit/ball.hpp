// Breadth-first distances and balls: the geometric primitives behind the
// paper's "a node gathers all information in a ball around itself" view of
// the LOCAL model, as plain references. The engines grow balls through
// local::BallLayers; tests check them (and the generators) against these.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace avglocal::graph {

/// Distance sentinel for unreachable vertices.
inline constexpr int kUnreachable = -1;

/// BFS distances from root; entries are kUnreachable beyond max_depth
/// (max_depth < 0 means unbounded).
std::vector<int> bfs_distances(const Graph& g, Vertex root, int max_depth = -1);

/// Vertices at distance <= radius from root, in BFS order (non-decreasing
/// distance; within a layer, discovery order, which follows port order).
std::vector<Vertex> ball_vertices(const Graph& g, Vertex root, int radius);

/// Shortest-path distance between u and v (kUnreachable if disconnected).
int distance(const Graph& g, Vertex u, Vertex v);

/// Largest distance from v to any reachable vertex.
int eccentricity(const Graph& g, Vertex v);

/// Maximum eccentricity over all vertices; kUnreachable for a disconnected
/// graph. O(n * (n + m)), intended for analysis at moderate sizes.
int diameter(const Graph& g);

}  // namespace avglocal::graph
