#include "local/view.hpp"

#include <algorithm>

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

bool BallView::contains_id_greater_than(std::uint64_t x) const noexcept {
  return std::any_of(ids.begin(), ids.end(), [x](std::uint64_t id) { return id > x; });
}

std::uint64_t BallView::max_id() const noexcept {
  return *std::max_element(ids.begin(), ids.end());
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

BallGrower::BallGrower(const graph::Graph& g, const graph::IdAssignment& ids, graph::Vertex root,
                       ViewSemantics semantics, Scratch& scratch)
    : g_(&g), ids_(&ids), semantics_(semantics), scratch_(&scratch) {
  AVGLOCAL_EXPECTS(ids.size() == g.vertex_count());
  AVGLOCAL_EXPECTS(root < g.vertex_count());
  AVGLOCAL_EXPECTS_MSG(scratch.local_of_.size() == g.vertex_count(),
                       "scratch sized for a different graph");
  reset(root);
}

void BallGrower::reset(graph::Vertex root) {
  AVGLOCAL_EXPECTS(root < g_->vertex_count());
  scratch_->bump();  // retires the previous ball's membership in O(1)
  global_of_.clear();
  frontier_.clear();
  view_.radius = 0;
  ids_store_.clear();
  view_.ids = ids_store_;
  view_.dist.clear();
  view_.ports.clear();
  unresolved_ports_ = 0;
  add_vertex(root, 0);
  frontier_.push_back(root);
  view_.covers_graph = (unresolved_ports_ == 0);
}

LocalVertex BallGrower::add_vertex(graph::Vertex v, int dist) {
  const LocalVertex local = support::checked_u32(ids_store_.size());
  set_local(v, local);
  global_of_.push_back(v);
  ids_store_.push_back(ids_->id_of(v));
  view_.ids = ids_store_;  // the push may have re-seated the store
  view_.dist.push_back(dist);
  view_.ports.add_row(g_->degree(v));
  unresolved_ports_ += g_->degree(v);
  return local;
}

void BallGrower::resolve_edge(graph::Vertex a, std::size_t port_a) {
  const graph::Vertex b = g_->neighbour(a, port_a);
  const LocalVertex la = local_at(a);
  const LocalVertex lb = local_at(b);
  AVGLOCAL_ASSERT(la != kUnknownTarget && lb != kUnknownTarget);
  const std::size_t pb = g_->mirror_port(a, port_a);
  if (view_.ports[la][port_a] == kUnknownTarget) {
    view_.ports[la][port_a] = lb;
    --unresolved_ports_;
  }
  if (view_.ports[lb][pb] == kUnknownTarget) {
    view_.ports[lb][pb] = la;
    --unresolved_ports_;
  }
}

void BallGrower::grow() {
  view_.ids = ids_store_;  // drop any transient bind_ids binding
  ++view_.radius;
  if (view_.covers_graph) return;

  next_frontier_.clear();
  // Prefetch distance along the frontier. The frontier was discovered in
  // the previous grow(), so its CSR rows are cold; hinting a few vertices
  // ahead overlaps the row fetch with the current vertex's scan. Hints
  // only - the traversal order and results are unchanged.
  constexpr std::size_t kAhead = 8;
  if (semantics_ == ViewSemantics::kInducedBall) {
    // Add the next layer; an edge becomes visible as soon as both endpoints
    // are in the ball.
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      if (i + kAhead < frontier_.size()) g_->prefetch_offset(frontier_[i + kAhead]);
      if (i + kAhead / 2 < frontier_.size()) g_->prefetch_row(frontier_[i + kAhead / 2]);
      const graph::Vertex a = frontier_[i];
      for (graph::Vertex b : g_->neighbours(a)) {
        if (local_at(b) == kUnknownTarget) {
          add_vertex(b, view_.radius);
          next_frontier_.push_back(b);
          const auto nbrs = g_->neighbours(b);
          for (std::size_t pb = 0; pb < nbrs.size(); ++pb) {
            if (local_at(nbrs[pb]) != kUnknownTarget) resolve_edge(b, pb);
          }
        }
      }
    }
  } else {
    // Flooding knowledge: growing to radius r+1 reveals the next vertex
    // layer plus every edge incident to the previous frontier (distance r),
    // i.e. edges with min endpoint distance <= r.
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      if (i + kAhead < frontier_.size()) g_->prefetch_offset(frontier_[i + kAhead]);
      if (i + kAhead / 2 < frontier_.size()) g_->prefetch_row(frontier_[i + kAhead / 2]);
      const graph::Vertex a = frontier_[i];
      const auto nbrs = g_->neighbours(a);
      for (std::size_t pa = 0; pa < nbrs.size(); ++pa) {
        if (local_at(nbrs[pa]) == kUnknownTarget) {
          add_vertex(nbrs[pa], view_.radius);
          next_frontier_.push_back(nbrs[pa]);
        }
        resolve_edge(a, pa);
      }
    }
  }
  std::swap(frontier_, next_frontier_);
  view_.covers_graph = (unresolved_ports_ == 0);
}

}  // namespace avglocal::local
