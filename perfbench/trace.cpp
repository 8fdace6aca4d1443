#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "support/alloc_hook.hpp"

namespace perfbench {

namespace {

thread_local std::int64_t t_open_span = -1;

bool matches(const Span& span, const char* name, const char* label) {
  return std::string_view(span.name) == name &&
         (label == nullptr || std::string_view(span.label) == label);
}

/// Length of the union of `intervals`, each clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      total += end - start;
      reach = end;
    }
  }
  return total;
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {
  // Reserved up front: recording a span must not allocate inside the
  // parent's window, or the allocation counts would charge the tracer.
  spans_.reserve(1 << 18);
}

std::int64_t Tracer::begin(const char* name, const char* label, std::int64_t parent,
                           std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.label = label;
  span.parent = parent;
  span.id = id;
  span.allocs = avglocal::support::alloc_counts().allocations;
  span.start = seconds_since(epoch_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t index) {
  const double now = seconds_since(epoch_);
  const std::uint64_t allocs = avglocal::support::alloc_counts().allocations;
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = now;
  span.allocs = allocs - span.allocs;
}

const char* Tracer::intern(const std::string& label) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& known : labels_) {
    if (known == label) return known.c_str();
  }
  return labels_.emplace_back(label).c_str();
}

std::map<std::uint64_t, double> Tracer::self_by_id(const char* name, const char* label) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start, span.end);
    }
  }
  std::map<std::uint64_t, double> self;
  for (std::size_t index = 0; index < spans_.size(); ++index) {
    const Span& span = spans_[index];
    if (!matches(span, name, label)) continue;
    self[span.id] += (span.end - span.start) - covered(children[index], span.start, span.end);
  }
  return self;
}

std::map<std::uint64_t, double> Tracer::total_by_id(const char* name, const char* label) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, double> total;
  for (const Span& span : spans_) {
    if (matches(span, name, label)) total[span.id] += span.end - span.start;
  }
  return total;
}

std::vector<double> Tracer::durations(const char* name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (matches(span, name, nullptr)) out.push_back(span.end - span.start);
  }
  return out;
}

std::uint64_t Tracer::self_allocs(const char* name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (std::size_t index = 0; index < spans_.size(); ++index) {
    if (matches(spans_[index], name, nullptr)) total += spans_[index].allocs;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0 && matches(spans_[static_cast<std::size_t>(span.parent)], name, nullptr)) {
      total -= span.allocs;
    }
  }
  return total;
}

void Tracer::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"label\":\"" << span.label
        << "\",\"start\":" << span.start << ",\"end\":" << span.end
        << ",\"parent\":" << span.parent << ",\"id\":" << span.id
        << ",\"allocs\":" << span.allocs << "}\n";
  }
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id, const char* label,
                       std::int64_t parent)
    : tracer_(tracer),
      index_(tracer.begin(name, label, t_open_span >= 0 ? t_open_span : parent, id)),
      saved_(t_open_span) {
  t_open_span = index_;
}

ScopedSpan::~ScopedSpan() {
  tracer_.end(index_);
  t_open_span = saved_;
}

TracingBackend::TracingBackend(std::unique_ptr<avglocal::core::SweepBackend> inner,
                               Tracer& tracer, const std::string& algorithm)
    : inner_(std::move(inner)), tracer_(tracer), label_(tracer.intern(algorithm)) {}

std::unique_ptr<avglocal::core::BackendPointState> TracingBackend::prepare(
    const avglocal::graph::Graph& g, std::size_t point_index) const {
  const ScopedSpan span(tracer_, "backend.prepare", id_, label_, parent_);
  return inner_->prepare(g, point_index);
}

void TracingBackend::run_batch(avglocal::core::BackendPointState& state,
                               std::span<const avglocal::graph::IdAssignment> batch,
                               std::size_t batch_begin, avglocal::support::ThreadPool* pool,
                               avglocal::core::PointAccumulator& acc,
                               std::span<std::uint32_t> radius_matrix) const {
  const ScopedSpan span(tracer_, "backend.run_batch", id_, label_, parent_);
  inner_->run_batch(state, batch, batch_begin, pool, acc, radius_matrix);
}

}  // namespace perfbench
