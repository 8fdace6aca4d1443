// Immutable undirected graph in CSR (compressed sparse row) form, with
// per-vertex port numbering.
//
// The LOCAL model communicates over *ports*: a vertex of degree d has ports
// 0..d-1, one per incident edge, and algorithms address neighbours by port.
// Port order is the insertion order chosen by the GraphBuilder, which lets
// generators establish conventions (e.g. on a cycle, port 0 is the clockwise
// successor and port 1 the counter-clockwise predecessor).
//
// The CSR row offsets are 32 bits wide (vid32): together with the 32-bit
// targets and mirror ports this costs 8 bytes per directed arc plus 4 bytes
// per vertex, half the footprint of size_t offsets. GraphBuilder::build
// rejects graphs beyond 2^32 directed arcs, so every buildable graph fits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/annotations.hpp"

namespace avglocal::graph {

/// Dense vertex index in [0, n). This is the simulator's handle for a
/// vertex; it is *not* the identifier an algorithm sees (see IdAssignment).
using Vertex = std::uint32_t;

/// Index type of the CSR layout: row offsets, mirror ports and arc indices.
using vid32 = std::uint32_t;

/// An immutable undirected graph. Construct through GraphBuilder.
class Graph {
 public:
  /// Number of vertices.
  std::size_t vertex_count() const noexcept { return n_; }

  /// Number of undirected edges.
  std::size_t edge_count() const noexcept { return targets_.size() / 2; }

  /// Degree of vertex v.
  std::size_t degree(Vertex v) const noexcept { return offset(v + 1) - offset(v); }

  /// Neighbours of v in port order.
  std::span<const Vertex> neighbours(Vertex v) const noexcept {
    return {targets_.data() + offset(v), targets_.data() + offset(v + 1)};
  }

  /// The neighbour of v on the given port (0 <= port < degree(v)).
  Vertex neighbour(Vertex v, std::size_t port) const noexcept {
    return targets_[offset(v) + port];
  }

  /// True when u and v are adjacent. Linear in degree(u) - ad-hoc
  /// adjacency queries only. Hot paths that hold a (vertex, port) pair
  /// resolve the reverse direction through the precomputed mirror_port
  /// table instead; the old port_to linear-scan fallback is gone.
  bool has_edge(Vertex u, Vertex v) const noexcept {
    for (const Vertex w : neighbours(u)) {
      if (w == v) return true;
    }
    return false;
  }

  /// Number of directed arcs (2 * edge_count). Arc indices returned by
  /// arc_index enumerate [0, arc_count).
  std::size_t arc_count() const noexcept { return targets_.size(); }

  /// Flat CSR index of the arc leaving v on `port`: offsets[v] + port.
  /// Stable identifier for per-arc state (message slots, mirrors).
  std::size_t arc_index(Vertex v, std::size_t port) const noexcept {
    return offset(v) + port;
  }

  /// The port on the far endpoint that leads back along the same edge:
  /// with u = neighbour(v, port), neighbour(u, mirror_port(v, port)) == v.
  /// O(1); precomputed by GraphBuilder.
  std::size_t mirror_port(Vertex v, std::size_t port) const noexcept {
    return mirror_port_[offset(v) + port];
  }

  /// Resident bytes of the CSR tables (offsets + targets + mirrors). What
  /// the large_scale bench reports as bytes_per_arc = memory_bytes() / 2m.
  std::size_t memory_bytes() const noexcept {
    return offsets_.size() * sizeof(vid32) + targets_.size() * sizeof(Vertex) +
           mirror_port_.size() * sizeof(vid32);
  }

  /// Prefetch hint for v's row-offset entry. Semantics-free (a prefetch
  /// never changes a value); the ball-growth frontier loops issue this a
  /// few vertices ahead of the scan.
  void prefetch_offset(Vertex v) const noexcept { AVGLOCAL_PREFETCH(offsets_.data() + v); }

  /// Prefetch hint for the start of v's CSR target row. Reads the (ideally
  /// already prefetched) offset entry, touches nothing else.
  void prefetch_row(Vertex v) const noexcept {
    AVGLOCAL_PREFETCH(targets_.data() + offset(v));
  }

 private:
  friend class GraphBuilder;
  Graph(std::size_t n, std::vector<vid32> offsets, std::vector<Vertex> targets,
        std::vector<vid32> mirror_port)
      : n_(n),
        offsets_(std::move(offsets)),
        targets_(std::move(targets)),
        mirror_port_(std::move(mirror_port)) {}

  /// Row offset of v.
  std::size_t offset(Vertex v) const noexcept { return offsets_[v]; }

  std::size_t n_ = 0;
  std::vector<vid32> offsets_;          // size n+1
  std::vector<Vertex> targets_;         // size 2m, grouped by source vertex
  std::vector<vid32> mirror_port_;      // size 2m, mirror_port_[arc]
};

}  // namespace avglocal::graph
