// The bytes-per-trial model behind memory-budgeted batching.
//
// A sweep lane's resident footprint is affine in its batch width: a fixed
// part (edge lists, ball scratch, engine arenas - whatever one lane keeps
// alive regardless of how many assignments are in flight) plus a per-trial
// part (the id buffer, the radius-matrix row, and for the lockstep view
// engine the worst-case spill id buffer). Each backend reports its model
// through SweepBackend::memory_model; SweepDriver inverts it to pick the
// widest batch that keeps `lanes` concurrent lanes inside
// BatchedSweepOptions::memory_budget_bytes.
//
// The model is a prediction, not an accounting identity - allocator
// rounding sits on top - so it is validated where it can be measured:
// tests and bench_regression run a budgeted sweep under the alloc hook and
// assert the observed bytes stay within the predicted envelope. Batch
// width never changes results (driver contract), so a budget-derived
// width is automatically bit-identical to any other.
#pragma once

#include <cstddef>

namespace avglocal::core {

/// Affine footprint model of one sweep lane: predicted resident bytes for
/// batch width b are fixed_bytes + b * bytes_per_trial.
struct SweepMemoryModel {
  std::size_t fixed_bytes = 0;      ///< per lane, batch-width independent
  std::size_t bytes_per_trial = 0;  ///< per resident id-assignment

  /// Predicted resident bytes of one lane running `batch_width` trials.
  std::size_t predicted_lane_bytes(std::size_t batch_width) const noexcept {
    return fixed_bytes + batch_width * bytes_per_trial;
  }

  /// Widest batch keeping `lanes` concurrent lanes inside `budget_bytes`.
  /// Never returns 0: one resident trial per lane is the floor below which
  /// a sweep cannot run at all - a budget that cannot even cover that is
  /// reported as 1 and caught by the runtime envelope check, not by a
  /// silent refusal to sweep.
  std::size_t max_batch(std::size_t budget_bytes, std::size_t lanes) const noexcept {
    const std::size_t share = budget_bytes / (lanes == 0 ? 1 : lanes);
    if (bytes_per_trial == 0 || share <= fixed_bytes) return 1;
    const std::size_t width = (share - fixed_bytes) / bytes_per_trial;
    return width == 0 ? 1 : width;
  }
};

}  // namespace avglocal::core
