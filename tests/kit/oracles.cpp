#include "kit/oracles.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "algo/largest_id.hpp"
#include "core/measure.hpp"
#include "graph/properties.hpp"
#include "support/assert.hpp"

namespace avglocal::graph {

bool is_cycle(const Graph& g) {
  if (g.vertex_count() < 3) return false;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    if (g.degree(v) != 2) return false;
  }
  return is_connected(g);
}

bool is_path(const Graph& g) {
  const std::size_t n = g.vertex_count();
  if (n < 2) return false;
  std::size_t endpoints = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (g.degree(v) == 1) {
      ++endpoints;
    } else if (g.degree(v) != 2) {
      return false;
    }
  }
  return endpoints == 2 && is_connected(g);
}

bool is_tree(const Graph& g) {
  return g.vertex_count() >= 1 && g.edge_count() == g.vertex_count() - 1 && is_connected(g);
}

std::size_t min_degree(const Graph& g) {
  std::size_t best = g.vertex_count() == 0 ? 0 : g.degree(0);
  for (Vertex v = 1; v < g.vertex_count(); ++v) best = std::min(best, g.degree(v));
  return best;
}

IdAssignment reversed_ids(std::size_t n) {
  std::vector<std::uint64_t> ids(n);
  for (std::size_t v = 0; v < n; ++v) ids[v] = n - v;
  return IdAssignment(std::move(ids));
}

std::size_t realised_size(const FamilyRegistry& families, const FamilySpec& spec, std::size_t n) {
  const GraphFamily& family = families.at(spec.family);
  const std::vector<double> params = FamilyRegistry::resolve_params(family, spec.params);
  return FamilyRegistry::checked_realised_size(family, params, n);
}

}  // namespace avglocal::graph

namespace avglocal::support {

std::vector<std::uint64_t> random_permutation(std::size_t n, Xoshiro256& rng) {
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::uint64_t{1});
  shuffle(perm, rng);
  return perm;
}

int popcount_u64(std::uint64_t x) noexcept { return std::popcount(x); }

}  // namespace avglocal::support

namespace avglocal::algo {

std::uint64_t largest_id_radius_sum_on_cycle(const graph::IdAssignment& ids) {
  std::uint64_t sum = 0;
  for (std::size_t r : largest_id_radii_on_cycle(ids)) sum += r;
  return sum;
}

std::vector<std::size_t> greedy_colouring_radii(const graph::Graph& g,
                                                const graph::IdAssignment& ids) {
  AVGLOCAL_EXPECTS(ids.size() == g.vertex_count());
  const std::size_t n = g.vertex_count();
  // L(v) = longest strictly-increasing identifier path from v, by dynamic
  // programming over vertices in decreasing identifier order.
  std::vector<graph::Vertex> order(n);
  std::iota(order.begin(), order.end(), graph::Vertex{0});
  std::sort(order.begin(), order.end(), [&ids](graph::Vertex a, graph::Vertex b) {
    return ids.id_of(a) > ids.id_of(b);
  });
  std::vector<std::size_t> longest(n, 0);
  for (const graph::Vertex v : order) {
    for (const graph::Vertex u : g.neighbours(v)) {
      if (ids.id_of(u) > ids.id_of(v)) {
        longest[v] = std::max(longest[v], longest[u] + 1);
      }
    }
  }
  // A vertex must at least learn its neighbours' identifiers: one round.
  std::vector<std::size_t> radii(n);
  for (graph::Vertex v = 0; v < n; ++v) radii[v] = longest[v] + 1;
  return radii;
}

}  // namespace avglocal::algo

namespace avglocal::analysis {

double brute_force_expected_average(std::size_t n, bool universe_aware) {
  AVGLOCAL_EXPECTS(n >= 3 && n <= 10);
  const std::size_t cover = n / 2;
  std::vector<std::uint64_t> ids(n);
  ids[0] = n;
  std::vector<std::uint64_t> rest(n - 1);
  std::iota(rest.begin(), rest.end(), std::uint64_t{1});

  double total = 0.0;
  std::uint64_t count = 0;
  do {
    std::copy(rest.begin(), rest.end(), ids.begin() + 1);
    std::uint64_t sum = 0;
    for (std::size_t v = 0; v < n; ++v) {
      std::size_t r = cover;
      for (std::size_t d = 1; d < cover; ++d) {
        if (ids[(v + d) % n] > ids[v] || ids[(v + n - d) % n] > ids[v]) {
          r = d;
          break;
        }
      }
      if (universe_aware) {
        // The open ball spans x vertices at radius ceil((x-1)/2).
        r = std::min(r, (static_cast<std::size_t>(ids[v]) - 1 + 1) / 2);
      }
      sum += r;
    }
    total += static_cast<double>(sum) / static_cast<double>(n);
    ++count;
  } while (std::next_permutation(rest.begin(), rest.end()));
  return total / static_cast<double>(count);
}

std::vector<std::uint64_t> worst_case_segment_ids(const Recurrence& rec, std::size_t p) {
  AVGLOCAL_EXPECTS(p <= rec.max_p());
  if (p < 2) return std::vector<std::uint64_t>(p, 1);
  const graph::IdAssignment cycle = worst_case_cycle_ids(rec, p + 1);
  return {cycle.ids().begin() + 1, cycle.ids().end()};
}

}  // namespace avglocal::analysis

namespace avglocal::core {

std::uint64_t accumulate_edge_times(std::span<const std::pair<graph::Vertex, graph::Vertex>> edges,
                                    std::span<const std::size_t> radii,
                                    local::RadiusHistogram& histogram) {
  return for_each_edge_time(edges, radii,
                            [&histogram](std::size_t t) { local::add_samples(histogram, t); });
}

}  // namespace avglocal::core

namespace avglocal::local {

void add_samples(RadiusHistogram& histogram, std::size_t radius, std::uint64_t count) {
  std::vector<std::uint64_t> counts(radius + 1, 0);
  counts[radius] = count;
  histogram.merge(RadiusHistogram(std::move(counts)));
}

void add_profile(RadiusHistogram& histogram, const RadiusProfile& radii) {
  for (std::size_t r : radii) add_samples(histogram, r);
}

}  // namespace avglocal::local
