#include "local/view.hpp"

#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

const char* to_string(ViewSemantics semantics) noexcept {
  return semantics == ViewSemantics::kInducedBall ? "induced" : "flooding";
}

std::optional<ViewSemantics> view_semantics_from_name(std::string_view name) noexcept {
  if (name == "induced") return ViewSemantics::kInducedBall;
  if (name == "flooding") return ViewSemantics::kFloodingKnowledge;
  return std::nullopt;
}

bool extract_ring_view(const BallView& view, RingView& out) {
  out.cw.clear();
  out.ccw.clear();
  out.closed = false;
  if (view.empty() || view.degree_of(0) != 2) return false;
  out.own = view.root_id();

  // Walks along one direction starting on `first_port` of the root,
  // appending to `ids`, until an unknown edge, a non-ring vertex, or
  // wrap-around to the root; returns which of the three stopped it.
  enum class Walk { kOpen, kWrapped, kMalformed };
  const auto walk = [&view](std::size_t first_port, std::vector<std::uint64_t>& ids) {
    LocalVertex prev = 0;
    LocalVertex cur = view.ports[0][first_port];
    while (cur != kUnknownTarget && cur != 0) {
      if (view.degree_of(cur) != 2) return Walk::kMalformed;
      ids.push_back(view.ids[cur]);
      const LocalVertex a = view.ports[cur][0];
      const LocalVertex b = view.ports[cur][1];
      LocalVertex next = kUnknownTarget;
      if (a == prev) {
        next = b;
      } else if (b == prev) {
        next = a;
      } else {
        // The edge back to prev is not resolved on cur's side; we cannot
        // safely pick a forward direction.
        return Walk::kOpen;
      }
      prev = cur;
      cur = next;
    }
    return cur == 0 ? Walk::kWrapped : Walk::kOpen;
  };

  const Walk cw = walk(0, out.cw);
  if (cw == Walk::kMalformed) return false;
  if (cw == Walk::kWrapped) {
    // The ball covers the whole cycle: report everything on the clockwise
    // side so each vertex appears exactly once.
    out.closed = true;
    return true;
  }
  const Walk ccw = walk(1, out.ccw);
  AVGLOCAL_ASSERT(ccw != Walk::kWrapped);  // would have wrapped clockwise first
  return ccw != Walk::kMalformed;
}

BallLayers::BallLayers(const graph::Graph& g, graph::Vertex root, ViewSemantics semantics,
                       Scratch& scratch)
    : g_(&g), semantics_(semantics), scratch_(&scratch) {
  AVGLOCAL_EXPECTS_MSG(scratch.local_of_.size() == g.vertex_count(),
                       "scratch sized for a different graph");
  reset(root);
}

void BallLayers::reset(graph::Vertex root) {
  AVGLOCAL_EXPECTS(root < g_->vertex_count());
  scratch_->bump();  // retires the previous ball's membership in O(1)
  order_.clear();
  sizes_.clear();
  unresolved_ports_ = 0;
  add_vertex(root);
  sizes_.push_back(1);
  covers_radius_ = unresolved_ports_ == 0 ? 0 : SIZE_MAX;
}

inline LocalVertex BallLayers::add_vertex(graph::Vertex v) {
  const LocalVertex local = support::checked_u32(order_.size());
  scratch_->stamp_[v] = scratch_->epoch_;
  scratch_->local_of_[v] = local;
  order_.push_back(v);
  unresolved_ports_ += g_->degree(v);
  return local;
}

void BallLayers::grow() {
  NoVisitor none;
  grow(none);
}

template <class Visitor>
void BallLayers::grow(Visitor& visitor) {
  if (covers_graph()) {
    sizes_.push_back(sizes_.back());
    return;
  }
  // The frontier - the vertices at distance radius() - is the last layer
  // of the discovery order. Indices, not iterators: adding vertices may
  // re-seat order_.
  const std::size_t begin = sizes_.size() == 1 ? 0 : sizes_[sizes_.size() - 2];
  const std::size_t end = order_.size();
  // A visible edge resolves its two port slots, once (class comment).
  const auto resolve_edge = [this] {
    AVGLOCAL_ASSERT(unresolved_ports_ >= 2);
    unresolved_ports_ -= 2;
  };
  // Prefetch distance along the frontier. The frontier was discovered in
  // the previous grow(), so its CSR rows are cold; hinting a few vertices
  // ahead overlaps the row fetch with the current vertex's scan. Hints
  // only - the traversal order and results are unchanged.
  constexpr std::size_t kAhead = 8;
  if (semantics_ == ViewSemantics::kInducedBall) {
    // Add the next layer; an edge becomes visible as soon as both endpoints
    // are in the ball, i.e. when the later one joins and scans its ports.
    for (std::size_t i = begin; i < end; ++i) {
      if (i + kAhead < end) g_->prefetch_offset(order_[i + kAhead]);
      if (i + kAhead / 2 < end) g_->prefetch_row(order_[i + kAhead / 2]);
      for (const graph::Vertex b : g_->neighbours(order_[i])) {
        if (local_at(b) != kUnknownTarget) continue;
        const LocalVertex lb = add_vertex(b);
        visitor.added(b);
        const auto nbrs = g_->neighbours(b);
        for (std::size_t pb = 0; pb < nbrs.size(); ++pb) {
          const LocalVertex lc = local_at(nbrs[pb]);
          if (lc == kUnknownTarget) continue;
          resolve_edge();
          visitor.edge(b, lb, pb, lc);
        }
      }
    }
  } else {
    // Flooding knowledge: growing to radius r+1 reveals the next vertex
    // layer plus every edge incident to the previous frontier (distance r),
    // i.e. edges with min endpoint distance <= r.
    for (std::size_t i = begin; i < end; ++i) {
      if (i + kAhead < end) g_->prefetch_offset(order_[i + kAhead]);
      if (i + kAhead / 2 < end) g_->prefetch_row(order_[i + kAhead / 2]);
      const graph::Vertex a = order_[i];
      const auto nbrs = g_->neighbours(a);
      for (std::size_t pa = 0; pa < nbrs.size(); ++pa) {
        LocalVertex lc = local_at(nbrs[pa]);
        if (lc == kUnknownTarget) {
          lc = add_vertex(nbrs[pa]);
          visitor.added(nbrs[pa]);
        }
        if (lc < i) continue;  // resolved when its end lc was the frontier
        resolve_edge();
        visitor.edge(a, support::checked_u32(i), pa, lc);
      }
    }
  }
  sizes_.push_back(support::checked_u32(order_.size()));
  if (unresolved_ports_ == 0) covers_radius_ = radius();
}

/// Builds the view's distances and port rows as the ball grows: a joining
/// vertex gets its row, a visible edge fills the slots at both ends.
struct BallGrower::Visitor {
  const graph::Graph& g;
  BallView& view;

  void added(graph::Vertex v) {
    view.dist.push_back(view.radius);
    view.ports.add_row(g.degree(v));
  }

  void edge(graph::Vertex a, LocalVertex la, std::size_t port_a, LocalVertex lb) noexcept {
    view.ports[la][port_a] = lb;
    view.ports[lb][g.mirror_port(a, port_a)] = la;
  }
};

BallGrower::BallGrower(const graph::Graph& g, graph::Vertex root, ViewSemantics semantics,
                       Scratch& scratch)
    : layers_(g, root, semantics, scratch) {
  reset(root);
}

void BallGrower::reset(graph::Vertex root) {
  layers_.reset(root);
  view_.radius = 0;
  view_.ids = {};
  view_.dist.assign(1, 0);
  view_.ports.clear();
  view_.ports.add_row(layers_.g_->degree(root));
  view_.covers_graph = layers_.covers_graph();
}

void BallGrower::grow() {
  view_.ids = {};  // drop the caller's binding: it no longer spans the ball
  ++view_.radius;
  Visitor visitor{*layers_.g_, view_};
  layers_.grow(visitor);
  view_.covers_graph = layers_.covers_graph();
}

}  // namespace avglocal::local
