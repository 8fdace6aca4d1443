#include "kit/ball.hpp"

#include <algorithm>
#include <queue>

#include "support/assert.hpp"

namespace avglocal::graph {

std::vector<int> bfs_distances(const Graph& g, Vertex root, int max_depth) {
  AVGLOCAL_EXPECTS(root < g.vertex_count());
  std::vector<int> dist(g.vertex_count(), kUnreachable);
  std::queue<Vertex> queue;
  dist[root] = 0;
  queue.push(root);
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop();
    if (max_depth >= 0 && dist[v] >= max_depth) continue;
    for (Vertex u : g.neighbours(v)) {
      if (dist[u] == kUnreachable) {
        dist[u] = dist[v] + 1;
        queue.push(u);
      }
    }
  }
  return dist;
}

std::vector<Vertex> ball_vertices(const Graph& g, Vertex root, int radius) {
  AVGLOCAL_EXPECTS(root < g.vertex_count());
  AVGLOCAL_EXPECTS(radius >= 0);
  std::vector<int> dist(g.vertex_count(), kUnreachable);
  std::vector<Vertex> order;
  std::queue<Vertex> queue;
  dist[root] = 0;
  queue.push(root);
  order.push_back(root);
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop();
    if (dist[v] >= radius) continue;
    for (Vertex u : g.neighbours(v)) {
      if (dist[u] == kUnreachable) {
        dist[u] = dist[v] + 1;
        queue.push(u);
        order.push_back(u);
      }
    }
  }
  return order;
}

int distance(const Graph& g, Vertex u, Vertex v) {
  AVGLOCAL_EXPECTS(u < g.vertex_count() && v < g.vertex_count());
  return bfs_distances(g, u)[v];
}

int eccentricity(const Graph& g, Vertex v) {
  const auto dist = bfs_distances(g, v);
  int ecc = 0;
  for (int d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int diameter(const Graph& g) {
  int diam = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    const int ecc = eccentricity(g, v);
    if (ecc == kUnreachable) return kUnreachable;
    diam = std::max(diam, ecc);
  }
  return diam;
}

}  // namespace avglocal::graph
