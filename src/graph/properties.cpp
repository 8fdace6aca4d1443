#include "graph/properties.hpp"

#include <algorithm>
#include <vector>

namespace avglocal::graph {

bool is_connected(const Graph& g) {
  const std::size_t n = g.vertex_count();
  if (n == 0) return false;
  // Depth-first reachability from vertex 0.
  std::vector<char> seen(n, 0);
  std::vector<Vertex> stack{0};
  seen[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    for (Vertex u : g.neighbours(v)) {
      if (seen[u] == 0) {
        seen[u] = 1;
        ++reached;
        stack.push_back(u);
      }
    }
  }
  return reached == n;
}

std::size_t max_degree(const Graph& g) {
  std::size_t best = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) best = std::max(best, g.degree(v));
  return best;
}

}  // namespace avglocal::graph
