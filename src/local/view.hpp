// Ball views: what a vertex knows after looking radius r around itself.
//
// The paper's second formulation of the LOCAL model: "every node gathers all
// the information in a ball around itself and outputs a function of this
// ball". BallView is that ball, with identifiers, distances, degrees and the
// visible edges; BallGrower builds it incrementally, radius by radius, on
// top of BallLayers, the identifier-free BFS every view engine shares.
//
// Two knowledge semantics are supported:
//  * kInducedBall (the paper's abstraction): at radius r a vertex sees all
//    vertices at distance <= r and *all* edges between seen vertices.
//  * kFloodingKnowledge (what r rounds of message flooding deliver): at
//    radius r an edge is visible iff one endpoint is at distance <= r-1;
//    edges between two frontier vertices are not yet known.
// They differ by at most one radius step and are cross-validated in tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

/// How much of the ball's edge set is visible at radius r (see file header).
enum class ViewSemantics {
  kInducedBall,
  kFloodingKnowledge,
};

/// Canonical names ("induced" / "flooding") shared by CLI flags, scenario
/// JSON and shard artefacts - one mapping so the layers can never disagree.
const char* to_string(ViewSemantics semantics) noexcept;

/// Reverse mapping; nullopt for unknown names (each caller owns its error
/// type: artefact parsers throw runtime_error, flag parsers invalid_argument).
std::optional<ViewSemantics> view_semantics_from_name(std::string_view name) noexcept;

/// Local index of a ball vertex; 0 is always the root.
using LocalVertex = std::uint32_t;

/// Sentinel for a port whose far end is not (yet) visible.
inline constexpr LocalVertex kUnknownTarget = std::numeric_limits<LocalVertex>::max();

/// Jagged port rows stored in one flat CSR buffer: row v holds one slot per
/// incident edge of the v-th ball vertex. Rows are appended in local-vertex
/// order; clear() keeps the underlying capacity, so a table reused across
/// balls stops allocating once it has seen the largest one.
class PortTable {
 public:
  /// Number of rows (== ball vertices added so far).
  std::size_t rows() const noexcept { return offsets_.size() - 1; }

  std::size_t row_size(std::size_t row) const noexcept {
    return offsets_[row + 1] - offsets_[row];
  }

  std::span<const LocalVertex> operator[](std::size_t row) const noexcept {
    return {targets_.data() + offsets_[row], targets_.data() + offsets_[row + 1]};
  }

  std::span<LocalVertex> operator[](std::size_t row) noexcept {
    return {targets_.data() + offsets_[row], targets_.data() + offsets_[row + 1]};
  }

  /// Appends a row of `degree` slots, all kUnknownTarget.
  void add_row(std::size_t degree) {
    targets_.resize(targets_.size() + degree, kUnknownTarget);
    offsets_.push_back(support::checked_u32(targets_.size()));
  }

  /// clear() + `count` rows of `degree` slots each.
  void assign_rows(std::size_t count, std::size_t degree) {
    clear();
    offsets_.reserve(count + 1);
    targets_.assign(count * degree, kUnknownTarget);
    for (std::size_t row = 1; row <= count; ++row) {
      offsets_.push_back(support::checked_u32(row * degree));
    }
  }

  /// Removes all rows; keeps capacity.
  void clear() noexcept {
    offsets_.resize(1);
    targets_.clear();
  }

 private:
  // 32-bit row offsets: a ball has at most 2m slots and build() caps arc
  // counts at 2^32, so the narrow width always fits. Half the offset
  // footprint of the old size_t rows - PortTable is the densest per-ball
  // structure the sweeps keep resident per worker lane.
  std::vector<graph::vid32> offsets_ = {0};  // size rows+1
  std::vector<LocalVertex> targets_;         // flat row storage
};

/// The knowledge of one vertex after exploring radius `radius`.
///
/// Vertices are indexed locally in BFS discovery order (root first, then by
/// non-decreasing distance; within a layer, port order). A vertex's `ports`
/// entry has one slot per incident edge (its true degree); each slot holds
/// the local index of the neighbour on that port, or kUnknownTarget when the
/// edge is not visible at this radius. Degrees are known for every seen
/// vertex (a vertex's degree is distance-0 information in the LOCAL model).
struct BallView {
  int radius = 0;

  /// ids[local] = identifier of the local-th ball vertex; ids[0] = root's.
  /// Non-owning: the engine that materialises the view owns the storage
  /// (run_views' per-ball gather buffer, a batched sweep's per-assignment
  /// buffer) and keeps it alive across the algorithm call. This is what
  /// lets the batched engine re-point one shared view at hundreds of
  /// assignment buffers without copying or swapping vectors.
  std::span<const std::uint64_t> ids;

  /// dist[local] = distance from the root.
  std::vector<int> dist;

  /// ports[local][p] = local index behind port p, or kUnknownTarget.
  PortTable ports;

  /// True when the view provably covers the whole graph: every seen vertex
  /// has all of its edges visible (so no vertex or edge can be missing).
  /// This is how the maximum-ID vertex of a cycle knows it may stop.
  bool covers_graph = false;

  std::size_t size() const noexcept { return ids.size(); }
  bool empty() const noexcept { return ids.empty(); }
  std::uint64_t root_id() const noexcept { return ids[0]; }
  std::size_t degree_of(LocalVertex v) const noexcept { return ports[v].size(); }
};

/// A ball view specialised to (a segment of) an oriented cycle, extracted
/// from a BallView whose underlying graph uses the make_cycle port
/// convention (port 0 = clockwise successor, port 1 = predecessor).
///
/// cw[k] is the identifier k+1 steps clockwise from the root, ccw[k] the
/// identifier k+1 steps counter-clockwise. When the ball closes (covers the
/// cycle), the walks are truncated so each vertex appears exactly once:
/// cw covers the whole remaining cycle and ccw is empty.
struct RingView {
  std::uint64_t own = 0;
  std::vector<std::uint64_t> cw;
  std::vector<std::uint64_t> ccw;
  bool closed = false;

  /// Number of distinct vertices visible (including the root).
  std::size_t seen_count() const noexcept { return 1 + cw.size() + ccw.size(); }
};

/// Extracts a RingView from a ball over a cycle-with-oriented-ports graph
/// into `out`, reusing its vectors' capacity (a caller that keeps one
/// RingView across balls stops allocating once it has seen the largest).
/// Returns false, leaving `out` unspecified, if the root or a walked vertex
/// does not look like a ring vertex (degree 2 with the expected port
/// structure).
bool extract_ring_view(const BallView& view, RingView& out);

/// The identifier-free geometry of a ball growing around `root`, one radius
/// step at a time: the BFS discovery order, the ball size at every radius
/// grown so far and the first radius at which the ball covers the graph.
///
/// This is the one BFS of the view engines. BallGrower adds distances and
/// port rows on top of it; the batched engine's sequential mode grows it
/// bare, since an ids_only_view algorithm reads nothing else. None of it
/// depends on identifiers: the BFS follows port order, so one ball serves
/// every identifier assignment of a batch.
///
/// Coverage is tracked by counting unresolved ports - port slots of ball
/// vertices whose far end is not yet visible (see BallView::covers_graph).
/// A vertex adds its degree when it joins the ball; an edge resolves its
/// two slots when it becomes visible:
///  * induced semantics: when its later endpoint joins the ball and finds
///    the earlier one on its own ports (the root's ports are never scanned:
///    every root edge is found from its other end);
///  * flooding semantics: when its endpoint discovered first is scanned as
///    a frontier vertex - so a frontier vertex counts only ports whose far
///    end was not discovered before it.
/// Graphs are simple (GraphBuilder rejects self-loops and duplicate
/// edges), so every edge resolves once, and the ball covers the graph
/// exactly when the count reaches zero.
///
/// Needs O(ball) memory per instance plus a caller-provided scratch array of
/// size n that it borrows while alive; this keeps running one instance per
/// vertex over a large graph allocation-free.
class BallLayers {
 public:
  /// Scratch state shared by consecutive balls over the same graph.
  ///
  /// Epoch-stamped: local_of_[v] is meaningful only when stamp_[v] equals
  /// the current epoch, so retiring a whole ball is one counter bump
  /// instead of an O(ball) (originally O(n)) clear loop. Per-trial reset
  /// cost therefore tracks the ball actually grown, not the graph - the
  /// change that makes n=10^6 sweeps with small balls cheap.
  class Scratch {
   public:
    explicit Scratch(std::size_t n) : local_of_(n, 0), stamp_(n, 0) {}

   private:
    friend class BallLayers;

    /// Starts a fresh epoch, invalidating every entry in O(1). On the
    /// u32 wrap (once per 2^32 resets) the stamps are refilled so a
    /// stale stamp from 2^32 epochs ago cannot alias the new one.
    void bump() noexcept {
      if (++epoch_ == 0) {
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
      }
    }

    std::vector<LocalVertex> local_of_;  // valid iff stamp_[v] == epoch_
    std::vector<std::uint32_t> stamp_;
    std::uint32_t epoch_ = 0;  // first bump() makes it 1 > all stamps
  };

  /// Starts a radius-0 ball rooted at `root`. The scratch must not be
  /// shared by two live instances.
  BallLayers(const graph::Graph& g, graph::Vertex root, ViewSemantics semantics,
             Scratch& scratch);

  BallLayers(const BallLayers&) = delete;
  BallLayers& operator=(const BallLayers&) = delete;

  /// Re-roots the ball at `root`, back at radius 0, reusing every buffer.
  /// Running one instance over many roots through reset() is
  /// allocation-free once the buffers have grown to the largest ball seen.
  void reset(graph::Vertex root);

  /// Grows the ball by one radius step. Only the radius advances once the
  /// ball covers the graph.
  void grow();

  /// Radius grown so far.
  std::size_t radius() const noexcept { return sizes_.size() - 1; }

  /// Ball vertices in discovery order (local index -> global vertex): the
  /// root, then by non-decreasing distance; within a layer, port order.
  std::span<const graph::Vertex> order() const noexcept { return order_; }

  /// sizes()[r] = number of ball vertices at radius r, for r <= radius().
  std::span<const std::uint32_t> sizes() const noexcept { return sizes_; }

  /// First radius at which the ball covers the graph; SIZE_MAX until the
  /// ball has grown that far.
  std::size_t covers_radius() const noexcept { return covers_radius_; }

  bool covers_graph() const noexcept { return covers_radius_ != SIZE_MAX; }

 private:
  friend class BallGrower;

  /// grow() reports to no one; BallGrower's visitor builds dist and ports.
  struct NoVisitor {
    void added(graph::Vertex) noexcept {}
    void edge(graph::Vertex, LocalVertex, std::size_t, LocalVertex) noexcept {}
  };

  /// One radius step, reporting each vertex as it joins (visitor.added(v))
  /// and each edge slot the semantics makes visible, as
  /// visitor.edge(a, local a, port of a, local far end). Defined in view.cpp.
  template <class Visitor>
  void grow(Visitor& visitor);

  LocalVertex add_vertex(graph::Vertex v);

  /// Local index of v in the current ball, or kUnknownTarget when v has
  /// not been added since the last reset (epoch check, no clears).
  LocalVertex local_at(graph::Vertex v) const noexcept {
    return scratch_->stamp_[v] == scratch_->epoch_ ? scratch_->local_of_[v] : kUnknownTarget;
  }

  const graph::Graph* g_;
  ViewSemantics semantics_;
  Scratch* scratch_;
  std::vector<graph::Vertex> order_;   // local -> global vertex
  std::vector<std::uint32_t> sizes_;   // sizes_[r] = |ball| at radius r
  std::size_t covers_radius_ = SIZE_MAX;
  std::size_t unresolved_ports_ = 0;
};

/// Incrementally grows the ball view of `root` one radius step at a time:
/// a BallLayers plus the distances and port rows of BallView.
///
/// The grower never reads identifiers. Its view carries radius, dist, ports
/// and coverage; `ids` stays empty until the caller binds an array gathered
/// over layers().order() - run_views gathers per layer into one reused
/// buffer, the lockstep engine binds one buffer per assignment.
class BallGrower {
 public:
  /// The grower borrows its ball's scratch.
  using Scratch = BallLayers::Scratch;

  /// Starts a radius-0 view rooted at `root`. The scratch must not be
  /// shared by two live growers.
  BallGrower(const graph::Graph& g, graph::Vertex root, ViewSemantics semantics,
             Scratch& scratch);

  BallGrower(const BallGrower&) = delete;
  BallGrower& operator=(const BallGrower&) = delete;

  /// Re-roots the grower at `root`, back at radius 0, reusing every buffer
  /// (view arrays, discovery order, scratch). Running one grower over many
  /// roots through reset() is allocation-free once the buffers have grown
  /// to the largest ball seen - the hot path of sweep measurements.
  void reset(graph::Vertex root);

  /// The ball's geometry: discovery order, per-radius sizes, coverage.
  const BallLayers& layers() const noexcept { return layers_; }

  /// Points the view's identifier span at an external array holding the
  /// identifiers of layers().order(), in that order and as long as the
  /// current ball. The binding is transient: reset() and grow() clear it.
  void bind_ids(std::span<const std::uint64_t> ids) noexcept { view_.ids = ids; }

  const BallView& view() const noexcept { return view_; }

  /// Grows the ball by one radius step. No-op (except the radius counter)
  /// once the view covers the graph.
  void grow();

 private:
  struct Visitor;

  BallLayers layers_;
  BallView view_;
};

}  // namespace avglocal::local
