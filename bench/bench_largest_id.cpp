// E1 + E2: the recurrence table and the largest-ID measure gap, plus
// substrate timings of the view engine and the analytic radius formula.
#include <benchmark/benchmark.h>

#include "algo/largest_id.hpp"
#include "analysis/recurrence.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

void BM_LargestIdViewEngine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_cycle(n);
  support::Xoshiro256 rng(1);
  const auto ids = graph::IdAssignment::random(n, rng);
  for (auto _ : state) {
    const auto run = local::run_views(g, ids, algo::make_largest_id_view());
    benchmark::DoNotOptimize(run.radii.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LargestIdViewEngine)->RangeMultiplier(4)->Range(256, 1 << 14);

void BM_AnalyticRadiusFormula(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Xoshiro256 rng(2);
  const auto ids = graph::IdAssignment::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::largest_id_radius_sum_on_cycle(ids));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AnalyticRadiusFormula)->RangeMultiplier(4)->Range(1 << 10, 1 << 18);

void BM_RecurrenceDp(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const analysis::Recurrence rec(p);
    benchmark::DoNotOptimize(rec.a(p));
  }
}
BENCHMARK(BM_RecurrenceDp)->RangeMultiplier(4)->Range(1 << 8, 1 << 13);

void BM_WorstCaseConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const analysis::Recurrence rec(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::worst_case_cycle_ids(rec, n).ids().data());
  }
}
BENCHMARK(BM_WorstCaseConstruction)->RangeMultiplier(4)->Range(1 << 8, 1 << 13);

}  // namespace

int main(int argc, char** argv) {
  return avglocal::bench::run(argc, argv,
                              {avglocal::core::experiment_recurrence_table,
                               avglocal::core::experiment_largest_id_gap});
}
