#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/properties.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::graph {

using support::checked_u32;

Graph make_cycle(std::size_t n) {
  AVGLOCAL_EXPECTS_MSG(n >= 3, "a cycle needs at least 3 vertices");
  GraphBuilder b(n);
  b.reserve_arcs(2 * n);
  for (Vertex i = 0; i < n; ++i) {
    const Vertex succ = checked_u32((i + 1) % n);
    const Vertex pred = checked_u32((i + n - 1) % n);
    b.add_arc(i, succ);  // port 0: clockwise successor
    b.add_arc(i, pred);  // port 1: counter-clockwise predecessor
  }
  return b.build();
}

Graph make_path(std::size_t n) {
  AVGLOCAL_EXPECTS_MSG(n >= 2, "a path needs at least 2 vertices");
  GraphBuilder b(n);
  b.reserve_arcs(2 * (n - 1));
  for (Vertex i = 0; i < n; ++i) {
    if (i + 1 < n) b.add_arc(i, i + 1);  // port 0: right
    if (i > 0) b.add_arc(i, i - 1);      // port 1 (or 0 for the left endpoint)
  }
  return b.build();
}

Graph make_complete(std::size_t n) {
  AVGLOCAL_EXPECTS_MSG(n >= 2, "a complete graph needs at least 2 vertices");
  GraphBuilder b(n);
  b.reserve_arcs(n * (n - 1));
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = 0; j < n; ++j) {
      if (i != j) b.add_arc(i, j);
    }
  }
  return b.build();
}

Graph make_star(std::size_t n) {
  AVGLOCAL_EXPECTS_MSG(n >= 2, "a star needs at least 2 vertices");
  GraphBuilder b(n);
  b.reserve_arcs(2 * (n - 1));
  for (Vertex leaf = 1; leaf < n; ++leaf) {
    b.add_arc(0, leaf);
    b.add_arc(leaf, 0);
  }
  return b.build();
}

Graph make_grid(std::size_t rows, std::size_t cols) {
  AVGLOCAL_EXPECTS(rows >= 1 && cols >= 1 && rows * cols >= 2);
  const auto index = [cols](std::size_t r, std::size_t c) { return checked_u32(r * cols + c); };
  GraphBuilder b(rows * cols);
  b.reserve_arcs(2 * (rows * (cols - 1) + cols * (rows - 1)));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(index(r, c), index(r, c + 1));
      if (r + 1 < rows) b.add_edge(index(r, c), index(r + 1, c));
    }
  }
  return b.build();
}

Graph make_torus(std::size_t rows, std::size_t cols) {
  AVGLOCAL_EXPECTS_MSG(rows >= 3 && cols >= 3, "torus needs both dimensions >= 3");
  const auto index = [cols](std::size_t r, std::size_t c) { return checked_u32(r * cols + c); };
  GraphBuilder b(rows * cols);
  b.reserve_arcs(4 * rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      b.add_edge(index(r, c), index(r, (c + 1) % cols));
      b.add_edge(index(r, c), index((r + 1) % rows, c));
    }
  }
  return b.build();
}

Graph make_kary_tree(std::size_t k, std::size_t levels) {
  AVGLOCAL_EXPECTS(k >= 1 && levels >= 1);
  std::size_t n = 0;
  std::size_t level_size = 1;
  for (std::size_t l = 0; l < levels; ++l) {
    n += level_size;
    level_size *= k;
  }
  AVGLOCAL_EXPECTS_MSG(n >= 2, "tree with a single vertex is not a valid network");
  GraphBuilder b(n);
  b.reserve_arcs(2 * (n - 1));
  // Children of vertex v are k*v+1 .. k*v+k (heap layout).
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t c = 1; c <= k; ++c) {
      const std::size_t child = k * static_cast<std::size_t>(v) + c;
      if (child < n) b.add_edge(v, checked_u32(child));
    }
  }
  return b.build();
}

Graph make_random_tree(std::size_t n, support::Xoshiro256& rng) {
  AVGLOCAL_EXPECTS(n >= 2);
  GraphBuilder b(n);
  b.reserve_arcs(2 * (n - 1));
  if (n == 2) {
    b.add_edge(0, 1);
    return b.build();
  }
  // Pruefer decoding: a uniformly random sequence of length n-2 over [0, n)
  // decodes to a uniformly random labelled tree.
  std::vector<std::size_t> pruefer(n - 2);
  for (auto& x : pruefer) x = static_cast<std::size_t>(rng.below(n));
  std::vector<std::size_t> remaining_degree(n, 1);
  for (std::size_t x : pruefer) ++remaining_degree[x];
  // Min-heap of current leaves.
  std::vector<std::size_t> leaves;
  for (std::size_t v = 0; v < n; ++v) {
    if (remaining_degree[v] == 1) leaves.push_back(v);
  }
  std::make_heap(leaves.begin(), leaves.end(), std::greater<>());
  for (std::size_t x : pruefer) {
    std::pop_heap(leaves.begin(), leaves.end(), std::greater<>());
    const std::size_t leaf = leaves.back();
    leaves.pop_back();
    b.add_edge(checked_u32(leaf), checked_u32(x));
    if (--remaining_degree[x] == 1) {
      leaves.push_back(x);
      std::push_heap(leaves.begin(), leaves.end(), std::greater<>());
    }
  }
  std::pop_heap(leaves.begin(), leaves.end(), std::greater<>());
  const std::size_t a = leaves.back();
  leaves.pop_back();
  const std::size_t c = leaves.front();
  b.add_edge(checked_u32(a), checked_u32(c));
  return b.build();
}

namespace {

// The historical G(n, p) sampler: one uniform01 draw per unordered pair, in
// lexicographic (i, j) order. Golden artefacts pin this draw order exactly.
void sample_gnp_dense(GraphBuilder& b, std::size_t n, double p, support::Xoshiro256& rng) {
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = i + 1; j < n; ++j) {
      if (rng.uniform01() < p) b.add_edge(i, j);
    }
  }
}

// Batagelj-Brandes geometric skip sampling (Phys. Rev. E 71, 036113): walk
// the pairs {w, v}, w < v, in (v, w) order and jump directly to the next
// present pair with a geometric skip of parameter p - one uniform01 draw
// and one log per *edge*, expected O(n + m) instead of O(n^2). Each pair is
// still independently present with probability p, so the sample is
// distributed identically to the dense path; only the draw order (and hence
// any particular seeded sample) differs. Requires p < 1 (no skip
// distribution at p = 1; the caller routes that to the dense path).
void sample_gnp_sparse(GraphBuilder& b, std::size_t n, double p, support::Xoshiro256& rng) {
  const double log_q = std::log1p(-p);  // log(1 - p) < 0
  long long v = 1;
  long long w = -1;
  const auto nn = static_cast<long long>(n);
  while (v < nn) {
    const double r = rng.uniform01();  // in [0, 1), so 1 - r > 0
    const double skip = std::floor(std::log1p(-r) / log_q);
    // Tiny p makes huge skips; saturate so the += below cannot overflow
    // (the inner loop then walks v past n and terminates the sample).
    w += 1 + (skip >= 4.0e18 ? static_cast<long long>(4.0e18)
                             : static_cast<long long>(skip));
    while (w >= v && v < nn) {
      w -= v;
      ++v;
    }
    if (v < nn) b.add_edge(checked_u32(w), checked_u32(v));
  }
}

}  // namespace

Graph make_gnp_connected(std::size_t n, double p, support::Xoshiro256& rng, int max_attempts,
                         GnpMethod method) {
  AVGLOCAL_EXPECTS(n >= 2);
  AVGLOCAL_EXPECTS(p > 0.0 && p <= 1.0);
  // p = 1 is the complete graph and has no geometric skip distribution.
  const bool sparse = p < 1.0 && (method == GnpMethod::kSparse ||
                                  (method == GnpMethod::kAuto && n >= 512 && p <= 0.125));
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    GraphBuilder b(n);
    // Expected 2 * p * n(n-1)/2 arcs; the slack keeps one allocation typical
    // without promising exactness (m is random here).
    const double expected_arcs = p * static_cast<double>(n) * static_cast<double>(n - 1);
    b.reserve_arcs(static_cast<std::size_t>(expected_arcs * 1.1) + 64);
    if (sparse) {
      sample_gnp_sparse(b, n, p, rng);
    } else {
      sample_gnp_dense(b, n, p, rng);
    }
    Graph g = b.build();
    if (is_connected(g)) return g;
  }
  throw std::runtime_error("make_gnp_connected: no connected sample within attempt budget");
}

Graph make_random_regular(std::size_t n, std::size_t d, support::Xoshiro256& rng,
                          int max_attempts) {
  AVGLOCAL_EXPECTS(d >= 1 && d < n);
  AVGLOCAL_EXPECTS_MSG((n * d) % 2 == 0, "n*d must be even for a d-regular graph");
  // Per-vertex neighbour slots, reused across attempts: vertex v's
  // partners so far are slots[v*d, v*d + filled[v]). A multi-edge shows as
  // a repeat in a scan of at most d slots, so only the accepted sample is
  // sorted; the rng stream, the accept/reject decisions and the CSR are
  // those of sorting every sample's edge list.
  std::vector<Vertex> stubs(n * d);
  std::vector<Vertex> slots(n * d);
  std::vector<std::size_t> filled(n);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Configuration model: pair up d stubs per vertex uniformly at random.
    auto stub = stubs.begin();
    for (Vertex v = 0; v < n; ++v) stub = std::fill_n(stub, d, v);
    support::shuffle(stubs, rng);
    std::fill(filled.begin(), filled.end(), 0);
    bool simple = true;
    for (std::size_t i = 0; i < stubs.size() && simple; i += 2) {
      const Vertex u = stubs[i], v = stubs[i + 1];
      const std::span<const Vertex> seen(slots.data() + u * d, filled[u]);
      simple = u != v && std::find(seen.begin(), seen.end(), v) == seen.end();
      slots[u * d + filled[u]++] = v;
      slots[v * d + filled[v]++] = u;
    }
    if (!simple) continue;
    // Sorted rows list every edge (u, v), u < v, in lexicographic order.
    GraphBuilder b(n);
    b.reserve_arcs(n * d);
    for (Vertex u = 0; u < n; ++u) {
      const std::span<Vertex> row(slots.data() + u * d, d);
      std::sort(row.begin(), row.end());
      for (const Vertex v : row) {
        if (u < v) b.add_edge(u, v);
      }
    }
    Graph g = b.build();
    if (is_connected(g)) return g;
  }
  throw std::runtime_error("make_random_regular: no simple connected sample within budget");
}

}  // namespace avglocal::graph
