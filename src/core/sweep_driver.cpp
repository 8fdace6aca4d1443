#include "core/sweep_driver.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace avglocal::core {

SweepPool::SweepPool(const BatchedSweepOptions& options) {
  if (options.pool != nullptr) {
    pool_ = options.pool;
    return;
  }
  const std::size_t workers = options.threads != 0
                                  ? options.threads
                                  : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  owned_ = std::make_unique<support::ThreadPool>(workers);
  pool_ = owned_.get();
}

SweepDriver::SweepDriver(const SweepBackend& backend, BatchedSweepOptions options,
                         support::ThreadPool* pool)
    : backend_(&backend), options_(std::move(options)), pool_(pool) {}

SweepDriver::Point SweepDriver::prepare(const graph::Graph& g, std::size_t point_index) const {
  AVGLOCAL_EXPECTS(g.vertex_count() > 0);
  Point point;
  point.backend_ = backend_;
  point.g_ = &g;
  point.point_index_ = point_index;
  point.point_seed_ = support::derive_seed(options_.seed, point_index);
  point.edge_list_ = canonical_edges(g);
  return point;
}

PointAccumulator SweepDriver::run_lane(Point& point, std::size_t lane_index,
                                       std::size_t trial_begin, std::size_t trial_end,
                                       support::ThreadPool* vertex_pool,
                                       std::size_t concurrent_lanes) const {
  Point::Lane& lane = point.lanes_[lane_index];
  // Lazy lane warm-up: the backend state (for messages: the arena-backed
  // engine) is built on first touch and survives every later call through
  // this lane - adaptive rounds included.
  if (lane.state == nullptr) lane.state = backend_->prepare(*point.g_, point.point_index_);

  const graph::Graph& g = *point.g_;
  const std::size_t n = g.vertex_count();
  const std::size_t total = trial_end - trial_begin;
  PointAccumulator acc = make_point_accumulator(g, point.point_index_, trial_begin, trial_end);

  std::size_t batch_cap =
      options_.batch_size == 0 ? total : std::min(options_.batch_size, total);
  if (options_.memory_budget_bytes != 0) {
    // Budgeted batching: the backend's bytes-per-trial model, inverted for
    // the widest batch that keeps every concurrent lane inside the budget.
    // Purely a width clamp - results are batch-width independent.
    const SweepMemoryModel model = backend_->memory_model(g);
    batch_cap = std::min(batch_cap,
                         model.max_batch(options_.memory_budget_bytes, concurrent_lanes));
  }
  if (lane.radius_matrix.size() < batch_cap * n) lane.radius_matrix.resize(batch_cap * n);
  lane.batch.reserve(batch_cap);
  lane.edge_counts.clear();

  for (std::size_t batch_begin = 0; batch_begin < total; batch_begin += batch_cap) {
    const std::size_t batch_size = std::min(batch_cap, total - batch_begin);
    // fill_sweep_batch is THE definition of the sweep's id streams: every
    // backend sees the same (seed, point, trial) permutations.
    fill_sweep_batch(lane.batch, n, point.point_seed_, trial_begin + batch_begin, batch_size);
    backend_->run_batch(*lane.state, lane.batch, batch_begin, vertex_pool, acc,
                        lane.radius_matrix);
    accumulate_edge_partials(point.edge_list_, lane.radius_matrix, batch_begin, batch_size, acc,
                             lane.edge_counts);
  }
  acc.edge_histogram = local::RadiusHistogram(std::move(lane.edge_counts));
  lane.edge_counts.clear();  // moved-from; leave it well-defined for the next call
  return acc;
}

PointAccumulator SweepDriver::run_trials(Point& point, std::size_t trial_begin,
                                         std::size_t trial_end) const {
  AVGLOCAL_EXPECTS(point.g_ != nullptr);
  // Lane states are backend-specific (run_batch downcasts them); a Point
  // prepared by a driver over a different backend must be rejected here,
  // not discovered as undefined behaviour inside the cast.
  AVGLOCAL_EXPECTS_MSG(point.backend_ == backend_,
                       "SweepDriver::Point used with a different backend than prepared it");
  AVGLOCAL_EXPECTS(trial_begin < trial_end);
  const std::size_t total = trial_end - trial_begin;

  const bool split_trials = backend_->parallel_granularity() == SweepBackend::Granularity::kTrials &&
                            pool_ != nullptr && pool_->size() > 1 && total > 1;
  if (!split_trials) {
    const bool share_vertices =
        backend_->parallel_granularity() == SweepBackend::Granularity::kVertices;
    if (point.lanes_.empty()) point.lanes_.resize(1);
    return run_lane(point, 0, trial_begin, trial_end, share_vertices ? pool_ : nullptr, 1);
  }

  // Parallel trial split: contiguous near-equal chunks (the first
  // total % chunks take one extra trial), one private lane - and hence one
  // private engine - per chunk, partials appended in trial order. Every
  // trial's stream derives from (seed, point, trial), so the merged
  // accumulator is bit-identical to the serial path for any worker count.
  const std::size_t chunks = std::min(pool_->size(), total);
  if (point.lanes_.size() < chunks) point.lanes_.resize(chunks);
  // Lane states are prepared on the calling thread, never inside the pool:
  // backend prepare() runs the caller's algorithm provider, which the
  // pre-driver sweep API never required to be thread-safe and which this
  // API does not either (run_batch, by contrast, runs on workers).
  for (std::size_t c = 0; c < chunks; ++c) {
    Point::Lane& lane = point.lanes_[c];
    if (lane.state == nullptr) lane.state = backend_->prepare(*point.g_, point.point_index_);
  }
  const std::size_t base = total / chunks;
  const std::size_t extra = total % chunks;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(chunks);
  std::size_t begin = trial_begin;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t size = base + (c < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + size);
    begin += size;
  }

  std::vector<PointAccumulator> partials(chunks);
  pool_->for_range(chunks, 1, [&](std::size_t /*worker*/, std::size_t chunk_begin,
                                  std::size_t chunk_end) {
    for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
      partials[c] = run_lane(point, c, ranges[c].first, ranges[c].second, nullptr, chunks);
    }
  });

  PointAccumulator acc = std::move(partials.front());
  for (std::size_t c = 1; c < chunks; ++c) acc.append(std::move(partials[c]));
  return acc;
}

std::vector<BatchedSweepPoint> SweepDriver::run(const std::vector<std::size_t>& ns,
                                                const GraphFactory& graphs) const {
  AVGLOCAL_EXPECTS(options_.trials >= 1);
  std::vector<BatchedSweepPoint> points;
  points.reserve(ns.size());
  for (std::size_t point_index = 0; point_index < ns.size(); ++point_index) {
    const graph::Graph g = graphs(ns[point_index]);
    AVGLOCAL_REQUIRE_MSG(g.vertex_count() == ns[point_index], "graph factory size mismatch");
    Point point = prepare(g, point_index);
    const PointAccumulator acc = run_trials(point, 0, options_.trials);
    points.push_back(finalize_point(acc, options_));
  }
  return points;
}

}  // namespace avglocal::core
