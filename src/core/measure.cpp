#include "core/measure.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace avglocal::core {

Measurement measure(const local::RunResult& run) {
  Measurement m;
  m.n = run.radii.size();
  m.sum_radius = run.sum_radius();
  m.max_radius = run.max_radius();
  m.avg_radius = run.average_radius();
  return m;
}

double measure_gap(const Measurement& m) {
  if (m.avg_radius <= 0.0) return 1.0;
  return static_cast<double>(m.max_radius) / m.avg_radius;
}

RadiusDistribution summarize_radius_histogram(const local::RadiusHistogram& histogram,
                                              std::span<const double> probs) {
  RadiusDistribution d;
  d.samples = histogram.samples();
  d.mean = histogram.mean();
  d.max = histogram.max_radius();
  d.probs.assign(probs.begin(), probs.end());
  d.quantiles.reserve(probs.size());
  for (double q : probs) {
    d.quantiles.push_back(histogram.empty() ? 0 : histogram.quantile(q));
  }
  return d;
}

std::vector<std::pair<graph::Vertex, graph::Vertex>> canonical_edges(const graph::Graph& g) {
  std::vector<std::pair<graph::Vertex, graph::Vertex>> edges;
  edges.reserve(g.edge_count());
  for (graph::Vertex v = 0; v < g.vertex_count(); ++v) {
    for (std::size_t q = 0; q < g.degree(v); ++q) {
      const graph::Vertex u = g.neighbour(v, q);
      // Take the arc whose index is not larger than its mirror's: exactly
      // one of an edge's two arcs qualifies (a self-loop arc mirrors to
      // itself and also qualifies exactly once).
      if (g.arc_index(v, q) <= g.arc_index(u, g.mirror_port(v, q))) {
        edges.emplace_back(v, u);
      }
    }
  }
  AVGLOCAL_ASSERT(edges.size() == g.edge_count());
  return edges;
}

EdgeMeasurement measure_edges(const graph::Graph& g, std::span<const std::size_t> radii) {
  AVGLOCAL_EXPECTS(radii.size() == g.vertex_count());
  EdgeMeasurement m;
  m.edges = g.edge_count();
  const auto edges = canonical_edges(g);
  m.sum_time = for_each_edge_time(
      edges, radii, [&m](std::size_t t) { m.max_time = std::max(m.max_time, t); });
  m.avg_time = m.edges == 0 ? 0.0
                            : static_cast<double>(m.sum_time) / static_cast<double>(m.edges);
  return m;
}

}  // namespace avglocal::core
