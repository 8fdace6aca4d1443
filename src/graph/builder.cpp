#include "graph/builder.hpp"

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::graph {

using support::checked_u32;

GraphBuilder::GraphBuilder(std::size_t n) : degrees_(n, 0) {}

void GraphBuilder::add_arc(Vertex u, Vertex v) {
  AVGLOCAL_EXPECTS_MSG(u < degrees_.size() && v < degrees_.size(), "vertex out of range");
  AVGLOCAL_EXPECTS_MSG(u != v, "self-loops are not allowed");
  arcs_.push_back(ArcRec{u, v});
  ++degrees_[u];
}

void GraphBuilder::add_edge(Vertex u, Vertex v) {
  add_arc(u, v);
  add_arc(v, u);
}

void GraphBuilder::reserve_arcs(std::size_t arcs) { arcs_.reserve(arcs); }

Graph GraphBuilder::build() const {
  const std::size_t n = degrees_.size();
  const std::size_t arc_count = arcs_.size();

  // The CSR offsets and per-arc state elsewhere (message slots, mirror
  // tables) are 32-bit; graphs beyond 2^32 arcs would truncate them, so
  // reject them explicitly. This also makes every narrowing below safe.
  AVGLOCAL_EXPECTS_MSG(arc_count <= std::numeric_limits<std::uint32_t>::max(),
                       "graph exceeds 2^32 directed arcs");

  // CSR row offsets (working copy in 64 bits; narrowed at the end).
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degrees_[v];

  // One pass over the arcs in insertion order does three jobs at once:
  // a stable counting sort by source (per-source insertion order is the
  // port order, byte-identical to the old per-vertex adjacency lists),
  // the flat arc index of each arc, and a bucket of incoming arcs per
  // target for the mirror match below.
  std::vector<Vertex> targets(arc_count);
  std::vector<std::size_t> out_cursor(offsets.begin(), offsets.end() - 1);
  std::vector<std::size_t> in_off(n + 1, 0);
  for (const ArcRec& a : arcs_) ++in_off[a.to + 1];
  for (std::size_t v = 0; v < n; ++v) in_off[v + 1] += in_off[v];
  std::vector<Vertex> in_src(arc_count);
  std::vector<vid32> in_arc(arc_count);
  std::vector<std::size_t> in_cursor(in_off.begin(), in_off.end() - 1);
  for (const ArcRec& a : arcs_) {
    const std::size_t flat = out_cursor[a.from]++;
    targets[flat] = a.to;
    const std::size_t pos = in_cursor[a.to]++;
    in_src[pos] = a.from;
    in_arc[pos] = checked_u32(flat);
  }

  // Mirror ports via an epoch-stamped slot map: for each vertex x, stamp
  // its incoming arcs {y -> x} into per-endpoint slots (a second arc from
  // the same y is a duplicate edge), then resolve each outgoing arc
  // x -> w against the slot for w (a miss is an arc without its reverse).
  // Bumping the epoch replaces the O(n) slot clear per vertex; 64-bit
  // epochs cannot wrap. Validation and matching in one O(n + m) sweep -
  // this is what Graph::mirror_port's O(1) lookup is built from.
  std::vector<vid32> mirror(arc_count);
  std::vector<std::uint64_t> slot_epoch(n, 0);
  std::vector<vid32> slot_arc(n, 0);
  std::uint64_t epoch = 0;
  for (std::size_t x = 0; x < n; ++x) {
    ++epoch;
    for (std::size_t pos = in_off[x]; pos < in_off[x + 1]; ++pos) {
      const Vertex y = in_src[pos];
      AVGLOCAL_EXPECTS_MSG(slot_epoch[y] != epoch, "duplicate edge");
      slot_epoch[y] = epoch;
      slot_arc[y] = in_arc[pos];
    }
    for (std::size_t flat = offsets[x]; flat < offsets[x + 1]; ++flat) {
      const Vertex w = targets[flat];
      AVGLOCAL_EXPECTS_MSG(slot_epoch[w] == epoch, "arc without reverse arc");
      mirror[flat] = checked_u32(slot_arc[w] - offsets[w]);
    }
  }

#ifndef NDEBUG
  // The mirror invariant every consumer (message delivery, edge measures,
  // ball growth) now relies on without a port_to fallback: following an arc
  // and its mirror lands back on the origin, for every arc. O(2m) checks,
  // debug builds only.
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t p = 0; p < degrees_[u]; ++p) {
      const Vertex v = targets[offsets[u] + p];
      const vid32 q = mirror[offsets[u] + p];
      AVGLOCAL_ASSERT(q < degrees_[v]);
      AVGLOCAL_ASSERT(targets[offsets[v] + q] == u);
      AVGLOCAL_ASSERT(mirror[offsets[v] + q] == p);
    }
  }
#endif

  // Narrow the offsets to the 32-bit layout (safe by the guard above).
  std::vector<vid32> offsets32;
  offsets32.reserve(n + 1);
  for (const std::size_t o : offsets) offsets32.push_back(checked_u32(o));
  return Graph(n, std::move(offsets32), std::move(targets), std::move(mirror));
}

}  // namespace avglocal::graph
