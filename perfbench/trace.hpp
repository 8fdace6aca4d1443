// In-memory span recorder for the traced run, plus the forwarding
// core::SweepBackend decorator that times the engine layer from outside
// the library.
//
// A span is one call into a layer's public function, recorded by the
// benchmark's own code around that call: name, start, end, parent span,
// and the id of the pass, request or work unit it served. Spans stay in
// memory until the run ends (Tracer::write_json dumps them). A layer's self
// time is its span's duration minus the part of that interval its child
// spans cover; children on other threads (run_batch on pool lanes) count
// towards the union once, however many overlap.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/sweep_backend.hpp"

namespace perfbench {

struct Span {
  const char* name = "";   ///< layer call, e.g. "backend.run_batch" (a literal)
  const char* label = "";  ///< algorithm or request kind (interned)
  double start = 0.0;      ///< seconds since the tracer's epoch
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;      ///< pass, request or unit id
  std::uint64_t allocs = 0;  ///< operator new calls inside (alloc hook; all threads)
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t begin(const char* name, const char* label, std::int64_t parent, std::uint64_t id);
  void end(std::int64_t span);

  /// Interns a label so spans can point at it without allocating later.
  const char* intern(const std::string& label);

  /// Per id: summed self time (seconds) of spans called `name` (and, when
  /// non-null, carrying `label`).
  std::map<std::uint64_t, double> self_by_id(const char* name, const char* label = nullptr) const;
  /// Per id: summed duration of spans called `name`.
  std::map<std::uint64_t, double> total_by_id(const char* name, const char* label = nullptr) const;
  /// Every duration of spans called `name`, in recording order.
  std::vector<double> durations(const char* name) const;
  /// Summed allocation count of spans called `name`, minus their children's.
  std::uint64_t self_allocs(const char* name) const;

  void write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::deque<std::string> labels_;
};

/// RAII span. The parent is the innermost open span on this thread unless
/// `parent` names one explicitly (spans opened on pool workers).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id = 0, const char* label = "",
             std::int64_t parent = -1);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  std::int64_t index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
  std::int64_t saved_;
};

/// Forwarding SweepBackend: every prepare and run_batch call becomes a span
/// (labelled with the algorithm), then runs the wrapped backend unchanged.
/// run_batch calls on pool lanes have no open span on their thread, so they
/// hang off the span set by set_context (the caller's run_trials span).
class TracingBackend final : public avglocal::core::SweepBackend {
 public:
  TracingBackend(std::unique_ptr<avglocal::core::SweepBackend> inner, Tracer& tracer,
                 const std::string& algorithm);

  void set_context(std::int64_t parent, std::uint64_t id) noexcept {
    parent_ = parent;
    id_ = id;
  }

  std::string_view name() const noexcept override { return inner_->name(); }
  bool supports_batching() const noexcept override { return inner_->supports_batching(); }
  Granularity parallel_granularity() const noexcept override {
    return inner_->parallel_granularity();
  }
  std::unique_ptr<avglocal::core::BackendPointState> prepare(const avglocal::graph::Graph& g,
                                                             std::size_t point_index) const override;
  void run_batch(avglocal::core::BackendPointState& state,
                 std::span<const avglocal::graph::IdAssignment> batch, std::size_t batch_begin,
                 avglocal::support::ThreadPool* pool, avglocal::core::PointAccumulator& acc,
                 std::span<std::uint32_t> radius_matrix) const override;
  avglocal::core::SweepMemoryModel memory_model(
      const avglocal::graph::Graph& g) const noexcept override {
    return inner_->memory_model(g);
  }

 private:
  std::unique_ptr<avglocal::core::SweepBackend> inner_;
  Tracer& tracer_;
  const char* label_;
  std::int64_t parent_ = -1;
  std::uint64_t id_ = 0;
};

}  // namespace perfbench
