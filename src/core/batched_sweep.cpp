#include "core/batched_sweep.hpp"

#include <algorithm>

#include "graph/ids.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace avglocal::core {

void PointAccumulator::append(PointAccumulator&& other) {
  AVGLOCAL_REQUIRE_MSG(other.point_index == point_index && other.n == n && other.edges == edges,
                       "shard partials describe different sweep points");
  AVGLOCAL_REQUIRE_MSG(other.trial_begin == trial_end(),
                       "shard trial ranges must be contiguous and in order");
  AVGLOCAL_REQUIRE(other.node_sum.size() == node_sum.size());
  trial_sum.insert(trial_sum.end(), other.trial_sum.begin(), other.trial_sum.end());
  trial_max.insert(trial_max.end(), other.trial_max.begin(), other.trial_max.end());
  histogram.merge(other.histogram);
  for (std::size_t v = 0; v < node_sum.size(); ++v) node_sum[v] += other.node_sum[v];
  trial_edge_sum.insert(trial_edge_sum.end(), other.trial_edge_sum.begin(),
                        other.trial_edge_sum.end());
  edge_histogram.merge(other.edge_histogram);
}

PointAccumulator make_point_accumulator(const graph::Graph& g, std::size_t point_index,
                                        std::size_t trial_begin, std::size_t trial_end) {
  AVGLOCAL_EXPECTS(trial_begin < trial_end);
  AVGLOCAL_EXPECTS(g.vertex_count() > 0);
  PointAccumulator acc;
  acc.point_index = point_index;
  acc.n = g.vertex_count();
  acc.edges = g.edge_count();
  acc.trial_begin = trial_begin;
  const std::size_t total = trial_end - trial_begin;
  acc.trial_sum.assign(total, 0);
  acc.trial_max.assign(total, 0);
  acc.node_sum.assign(acc.n, 0);
  acc.trial_edge_sum.assign(total, 0);
  return acc;
}

void fill_sweep_batch(std::vector<graph::IdAssignment>& batch, std::size_t n,
                      std::uint64_t point_seed, std::size_t global_begin, std::size_t count) {
  batch.clear();
  for (std::size_t i = 0; i < count; ++i) {
    support::Xoshiro256 rng(support::derive_seed(point_seed, global_begin + i));
    batch.push_back(graph::IdAssignment::random(n, rng));
  }
}

void accumulate_edge_partials(std::span<const std::pair<graph::Vertex, graph::Vertex>> edge_list,
                              std::span<const std::uint32_t> radius_matrix,
                              std::size_t batch_begin, std::size_t batch_size,
                              PointAccumulator& acc, std::vector<std::uint64_t>& edge_counts) {
  AVGLOCAL_EXPECTS(radius_matrix.size() >= batch_size * acc.n);
  for (std::size_t i = 0; i < batch_size; ++i) {
    const std::span<const std::uint32_t> row = radius_matrix.subspan(i * acc.n, acc.n);
    acc.trial_edge_sum[batch_begin + i] = for_each_edge_time(edge_list, row, [&](std::size_t t) {
      if (t >= edge_counts.size()) edge_counts.resize(t + 1, 0);
      ++edge_counts[t];
    });
  }
}

BatchedSweepPoint finalize_point(const PointAccumulator& acc, const BatchedSweepOptions& options) {
  AVGLOCAL_EXPECTS(acc.trial_begin == 0 && acc.trial_count() == options.trials);
  AVGLOCAL_EXPECTS(acc.n > 0 && acc.node_sum.size() == acc.n);

  BatchedSweepPoint point;
  point.n = acc.n;
  point.trials = options.trials;

  // Global trial order and per-trial sum / n: the same operations, in the
  // same order, as aggregating per-trial core::measure results, so these
  // aggregates match a per-trial reference bit for bit.
  support::RunningStats avg_stats;
  support::RunningStats max_stats;
  for (std::size_t t = 0; t < acc.trial_count(); ++t) {
    avg_stats.add(static_cast<double>(acc.trial_sum[t]) / static_cast<double>(acc.n));
    max_stats.add(static_cast<double>(acc.trial_max[t]));
    point.max_worst = std::max(point.max_worst, static_cast<std::size_t>(acc.trial_max[t]));
  }
  point.avg_mean = avg_stats.mean();
  point.avg_sd = avg_stats.stddev();
  point.avg_worst = avg_stats.max();
  point.max_mean = max_stats.mean();

  point.radius = summarize_radius_histogram(acc.histogram, options.quantile_probs);

  point.edges = acc.edges;
  if (acc.edges > 0) {
    AVGLOCAL_EXPECTS(acc.trial_edge_sum.size() == acc.trial_count());
    support::RunningStats edge_stats;
    for (std::size_t t = 0; t < acc.trial_count(); ++t) {
      edge_stats.add(static_cast<double>(acc.trial_edge_sum[t]) /
                     static_cast<double>(acc.edges));
    }
    point.edge_avg_mean = edge_stats.mean();
    point.edge_avg_sd = edge_stats.stddev();
  }
  point.edge_time = summarize_radius_histogram(acc.edge_histogram, options.quantile_probs);

  const auto trials = static_cast<double>(options.trials);
  const auto [min_it, max_it] = std::minmax_element(acc.node_sum.begin(), acc.node_sum.end());
  point.node_mean_min = static_cast<double>(*min_it) / trials;
  point.node_mean_max = static_cast<double>(*max_it) / trials;
  if (options.node_profile) {
    point.node_mean.reserve(acc.n);
    for (std::uint64_t sum : acc.node_sum) {
      point.node_mean.push_back(static_cast<double>(sum) / trials);
    }
  }
  return point;
}

}  // namespace avglocal::core
