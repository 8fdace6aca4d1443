// Mutable builder producing immutable Graphs with controlled port order.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace avglocal::graph {

/// Accumulates edges and produces a Graph. Port order of a vertex is the
/// order in which its incident arcs were added.
///
/// Two insertion styles:
///  * add_edge(u, v): appends v to u's ports and u to v's ports;
///  * add_arc(u, v):  appends v to u's ports only. Generators use arcs to
///    control port numbering precisely; build() verifies every arc has its
///    reverse, so the result is always a well-formed undirected graph.
///
/// The builder stores one flat arc record per add_arc (8 bytes) and build()
/// runs in O(n + m) time and O(m) auxiliary memory - counting sorts plus an
/// epoch-stamped mirror match, no comparison sort - so constructing the
/// n=10^6 instances is never the bottleneck of a sweep.
class GraphBuilder {
 public:
  /// Creates a builder for a graph with n vertices (indices 0..n-1).
  explicit GraphBuilder(std::size_t n);

  /// Adds the undirected edge {u, v}. Throws on self-loops or
  /// out-of-range vertices; duplicate edges are rejected by build().
  void add_edge(Vertex u, Vertex v);

  /// Adds the arc u -> v (port on u only). The reverse arc must be added
  /// separately before build().
  void add_arc(Vertex u, Vertex v);

  /// Pre-sizes the arc store for `arcs` directed arcs (2m for a graph
  /// with m edges), so generators that know m allocate exactly once.
  void reserve_arcs(std::size_t arcs);

  std::size_t vertex_count() const noexcept { return degrees_.size(); }

  /// Directed arcs added so far (2 * edges when built via add_edge).
  std::size_t arc_count() const noexcept { return arcs_.size(); }

  /// Finalises the graph. Throws std::invalid_argument if the arc multiset
  /// is not symmetric, an edge appears more than once, or the graph has
  /// more than 2^32 directed arcs.
  Graph build() const;

 private:
  struct ArcRec {
    Vertex from, to;
  };
  std::vector<ArcRec> arcs_;   // insertion order; per-source order = port order
  std::vector<vid32> degrees_; // out-degree per vertex, one slot per vertex
};

}  // namespace avglocal::graph
