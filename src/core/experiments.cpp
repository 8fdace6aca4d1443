#include "core/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>

#include "algo/cole_vishkin.hpp"
#include "algo/colour_reduction.hpp"
#include "algo/greedy_colouring.hpp"
#include "algo/largest_id.hpp"
#include "algo/local_colouring.hpp"
#include "algo/validity.hpp"
#include "analysis/a000788.hpp"
#include "analysis/adversary.hpp"
#include "analysis/chromatic.hpp"
#include "analysis/exhaustive.hpp"
#include "analysis/expectation.hpp"
#include "analysis/neighbourhood_graph.hpp"
#include "analysis/recurrence.hpp"
#include "core/scenario.hpp"
#include "core/sweep_driver.hpp"
#include "graph/family_registry.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "local/engine.hpp"
#include "local/full_info.hpp"
#include "local/view_engine.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace avglocal::core {

using support::Table;

std::size_t ExperimentScale::at_least(std::size_t value, std::size_t min_value) const {
  const auto scaled = static_cast<std::size_t>(static_cast<double>(value) * factor);
  return std::max(min_value, scaled);
}

namespace {

std::string fmt_double(double v, int precision = 3) { return Table::cell(v, precision); }

/// `trials` random-permutation runs of a view algorithm on the cycle of
/// every size in `ns`, through the one sweep driver.
std::vector<BatchedSweepPoint> cycle_sweep(const std::vector<std::size_t>& ns,
                                           const local::ViewAlgorithmFactory& factory,
                                           std::size_t trials, std::uint64_t seed) {
  BatchedSweepOptions options;
  options.trials = trials;
  options.seed = seed;
  const ViewBackend backend([&factory](std::size_t) { return factory; });
  const SweepPool pool(options);
  return SweepDriver(backend, options, pool.get())
      .run(ns, [](std::size_t n) { return graph::make_cycle(n); });
}

}  // namespace

// ---------------------------------------------------------------- E1 ------

ExperimentResult experiment_recurrence_table(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E1";
  result.title = "Recurrence a(p) vs OEIS A000788 and Theta(p log p)";

  const std::size_t dp_max = scale.at_least(1u << 14, 64);
  const analysis::Recurrence rec(dp_max);

  Table table({"p", "a(p) [DP]", "A000788(p)", "equal", "a(p)/(p*log2 p)", "best split k"});
  for (std::size_t p = 4; p <= dp_max; p *= 2) {
    const std::uint64_t a = rec.a(p);
    const std::uint64_t oeis = analysis::a000788(p);
    const double ratio =
        static_cast<double>(a) / (static_cast<double>(p) * std::log2(static_cast<double>(p)));
    table.add_row({Table::cell(p), Table::cell(a), Table::cell(oeis),
                   a == oeis ? "yes" : "NO", fmt_double(ratio), Table::cell(rec.best_k(p))});
  }
  result.tables.emplace_back("a(p) by dynamic programming (paper Section 2 recurrence)", table);

  Table closed({"p", "A000788(p)", "A000788(p)/(p*log2 p)"});
  for (std::size_t p = dp_max * 2; p <= scale.at_least(1u << 20, 256); p *= 4) {
    const std::uint64_t oeis = analysis::a000788(p);
    const double ratio = static_cast<double>(oeis) /
                         (static_cast<double>(p) * std::log2(static_cast<double>(p)));
    closed.add_row({Table::cell(p), Table::cell(oeis), fmt_double(ratio)});
  }
  result.tables.emplace_back("closed form beyond the DP range", closed);

  result.notes.push_back(
      "Expected: the `equal` column is all `yes` (a(p) = A000788(p) exactly) and the "
      "normalised column approaches 1/2, i.e. a(p) ~ (p log2 p)/2 = Theta(p log p).");
  return result;
}

// ---------------------------------------------------------------- E2 ------

ExperimentResult experiment_largest_id_gap(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E2";
  result.title = "Largest-ID on the cycle: average Theta(log n) vs worst case Theta(n)";

  const std::size_t n_max = scale.at_least(1u << 12, 32);
  const analysis::Recurrence rec(n_max);
  const auto factory = algo::make_largest_id_view();

  Table table({"n", "worst avg (pred)", "worst avg (sim)", "rand avg (mean)", "rand avg (sd)",
               "worst max", "log2 n", "gap max/avg"});
  std::vector<std::size_t> ns;
  for (std::size_t n = 16; n <= n_max; n *= 2) ns.push_back(n);

  const auto sweep =
      cycle_sweep(ns, factory, std::max<std::size_t>(8, scale.at_least(25, 8)), 2015);

  for (std::size_t i = 0; i < ns.size(); ++i) {
    const std::size_t n = ns[i];
    const double predicted =
        static_cast<double>(analysis::predicted_worst_cycle_sum(rec, n)) /
        static_cast<double>(n);
    const graph::Graph cycle = graph::make_cycle(n);
    const Measurement worst =
        measure(local::run_views(cycle, analysis::worst_case_cycle_ids(rec, n), factory));
    table.add_row({Table::cell(n), fmt_double(predicted), fmt_double(worst.avg_radius),
                   fmt_double(sweep[i].avg_mean), fmt_double(sweep[i].avg_sd),
                   Table::cell(worst.max_radius),
                   fmt_double(std::log2(static_cast<double>(n)), 2),
                   fmt_double(measure_gap(worst), 1)});
  }
  result.tables.emplace_back("both measures per size (worst = extremal construction)", table);

  // Closed-form extension of the series (worst case via a(n-1) = A000788(n-1),
  // random via the exact expectation): two more decades without the engine.
  Table closed({"n", "worst avg (closed form)", "E[rand avg] (closed form)", "worst max",
                "gap max/avg"});
  for (std::size_t n = n_max * 4; n <= scale.at_least(1u << 20, 64); n *= 4) {
    const double worst_avg =
        (static_cast<double>(n / 2) + static_cast<double>(analysis::a000788(n - 1))) /
        static_cast<double>(n);
    closed.add_row({Table::cell(n), fmt_double(worst_avg),
                    fmt_double(analysis::expected_largest_id_average(n)),
                    Table::cell(n / 2),
                    fmt_double(static_cast<double>(n / 2) / worst_avg, 1)});
  }
  result.tables.emplace_back(
      "closed-form series beyond engine scale (identities proven by E1/E6/E11)", closed);
  result.notes.push_back(
      "Expected: `worst avg (sim)` equals `worst avg (pred)` exactly; both average columns "
      "grow like log n (doubling n adds a constant) while `worst max` = ceil((n-1)/2) grows "
      "linearly: the paper's exponential separation between the measures.");
  return result;
}

// ---------------------------------------------------------------- E3 ------

ExperimentResult experiment_colouring_logstar(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E3";
  result.title = "3-colouring the ring: max = avg = Theta(log* n)";

  Table known({"n", "log*2(n)", "schedule T(n)", "max r", "avg r", "valid"});
  const std::size_t n_max = scale.at_least(1u << 18, 64);
  support::Xoshiro256 rng(7);
  for (std::size_t n = 8; n <= n_max; n *= 4) {
    const graph::Graph cycle = graph::make_cycle(n);
    const graph::IdAssignment ids = graph::IdAssignment::random(n, rng);
    const local::RunResult run =
        local::run_views(cycle, ids, algo::make_cole_vishkin_view(n));
    const bool valid = algo::is_valid_colouring(cycle, run.outputs, 3);
    known.add_row({Table::cell(n),
                   Table::cell(support::log_star(static_cast<double>(n))),
                   Table::cell(algo::cv_schedule_rounds(n)), Table::cell(run.max_radius()),
                   fmt_double(run.average_radius()), valid ? "yes" : "NO"});
  }
  result.tables.emplace_back("Cole-Vishkin, n known (ball formulation)", known);

  Table unknown({"n", "max round", "avg round", "p25", "median", "p75", "avg / T(n)",
                 "valid"});
  const std::size_t mn_max = scale.at_least(1u << 12, 32);
  for (std::size_t n = 8; n <= mn_max; n *= 4) {
    const graph::Graph cycle = graph::make_cycle(n);
    const graph::IdAssignment ids = graph::IdAssignment::random(n, rng);
    const local::RunResult run =
        local::run_messages(cycle, ids, algo::make_local_three_colouring());
    const bool valid = algo::is_valid_colouring(cycle, run.outputs, 3);
    std::vector<double> rounds;
    rounds.reserve(n);
    for (const std::size_t r : run.radii) rounds.push_back(static_cast<double>(r));
    const support::Summary summary = support::summarize(rounds);
    unknown.add_row({Table::cell(n), Table::cell(run.max_radius()),
                     fmt_double(run.average_radius()), fmt_double(summary.p25, 1),
                     fmt_double(summary.median, 1), fmt_double(summary.p75, 1),
                     fmt_double(run.average_radius() /
                                static_cast<double>(algo::cv_schedule_rounds(n))),
                     valid ? "yes" : "NO"});
  }
  result.tables.emplace_back(
      "freeze/repair colouring, n unknown (message formulation); round percentiles show "
      "the early stoppers",
      unknown);
  result.notes.push_back(
      "Expected: `max r` and `avg r` coincide for the known-n schedule and track log* n "
      "(flat, with occasional +1 steps); the unknown-n variant pays a small constant "
      "factor but keeps the log* shape. Theorem 1 of the paper explains why no algorithm "
      "can push the average below Omega(log* n).");
  return result;
}

// ---------------------------------------------------------------- E4 ------

ExperimentResult experiment_neighbourhood_chi(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E4";
  result.title = "Linial lower-bound machinery: chi of neighbourhood graphs B_t(n)";

  Table b0({"n", "vertices", "chi(B_0(n))", "expected n"});
  for (std::size_t n = 4; n <= scale.at_least(8, 5); ++n) {
    const graph::Graph g = analysis::build_neighbourhood_graph(n, 0);
    const auto chi = analysis::chromatic_number(g);
    b0.add_row({Table::cell(n), Table::cell(g.vertex_count()),
                chi ? Table::cell(*chi) : "budget", Table::cell(n)});
  }
  result.tables.emplace_back("radius 0 (B_0(n) is the complete graph K_n)", b0);

  Table b1({"n", "vertices", "edges", "clique LB", "chi(B_1(n))", "greedy UB",
            "3-colourable"});
  const std::size_t n1_max = scale.at_least(11, 5);
  bool three_failed = false;  // B_1(n) is a subgraph of B_1(n+1): once
                              // 3-colouring fails it fails for all larger n,
                              // and chi is non-decreasing in n.
  std::size_t chi_floor = 1;
  for (std::size_t n = 4; n <= n1_max; ++n) {
    const graph::Graph g = analysis::build_neighbourhood_graph(n, 1);
    // Exact chi is kept to sizes where the branch-and-bound settles within
    // seconds, starting the search at the previous size's chi (monotone);
    // 3-colourability (the question the lower bound asks) is decided
    // directly until the first failure and by monotonicity after.
    std::optional<std::size_t> chi;
    if (n <= 8) {
      for (std::size_t k = chi_floor; k <= analysis::greedy_chromatic_upper(g); ++k) {
        const auto feasible = analysis::k_colourable(g, k, 50'000'000);
        if (!feasible.has_value()) break;  // budget
        if (*feasible) {
          chi = k;
          break;
        }
      }
      if (chi) chi_floor = *chi;
    }
    std::string three_cell;
    if (three_failed) {
      three_cell = "no (monotone)";
    } else if (chi.has_value()) {
      // The chi search already settled 3-colourability.
      three_cell = *chi <= 3 ? "yes" : "no";
      if (*chi > 3) three_failed = true;
    } else {
      const auto three = analysis::k_colourable(g, 3, 100'000'000);
      three_cell = three.has_value() ? (*three ? "yes" : "no") : "budget";
      if (three.has_value() && !*three) three_failed = true;
    }
    b1.add_row({Table::cell(n), Table::cell(g.vertex_count()), Table::cell(g.edge_count()),
                Table::cell(analysis::greedy_clique_lower(g)),
                chi ? Table::cell(*chi) : (n <= 8 ? "budget" : "-"),
                Table::cell(analysis::greedy_chromatic_upper(g)), three_cell});
  }
  result.tables.emplace_back("radius 1", b1);
  result.notes.push_back(
      "chi(B_t(n)) <= 3 iff t rounds suffice to 3-colour rings with identifiers from "
      "{1..n}. Expected: chi(B_0(n)) = n; chi(B_1(n)) exceeds 3 already for small n, so "
      "one round is not enough - the concrete base of Linial's Omega(log* n) bound, which "
      "Theorem 1 lifts to the average measure.");
  return result;
}

// ---------------------------------------------------------------- E5 ------

ExperimentResult experiment_adversaries(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E5";
  result.title = "Theorem-1 slice adversary vs random and exact worst case";

  const std::size_t n_max = scale.at_least(512, 64);
  const analysis::Recurrence rec(n_max);
  const auto factory = algo::make_largest_id_view();

  Table table({"n", "rand avg", "slice-adv avg", "hill-climb avg", "exact worst avg",
               "slice/exact", "hill/exact"});
  for (std::size_t n = 64; n <= n_max; n *= 2) {
    const graph::Graph cycle = graph::make_cycle(n);

    const auto sweep =
        cycle_sweep({n}, factory, std::max<std::size_t>(4, scale.at_least(10, 4)), 99);

    analysis::SliceAdversaryOptions slice_options;
    slice_options.seed = 4;
    slice_options.probes = std::max<std::size_t>(2, scale.at_least(4, 2));
    const Measurement slice = measure(local::run_views(
        cycle, analysis::build_slice_adversary(n, factory, slice_options), factory));

    analysis::HillClimbOptions hill_options;
    hill_options.seed = 5;
    hill_options.iterations = std::max<std::size_t>(50, scale.at_least(400, 50));
    const Measurement hill = measure(local::run_views(
        cycle, analysis::hill_climb_adversary(n, factory, hill_options), factory));

    const double exact = static_cast<double>(analysis::predicted_worst_cycle_sum(rec, n)) /
                         static_cast<double>(n);
    table.add_row({Table::cell(n), fmt_double(sweep[0].avg_mean),
                   fmt_double(slice.avg_radius), fmt_double(hill.avg_radius),
                   fmt_double(exact), fmt_double(slice.avg_radius / exact, 2),
                   fmt_double(hill.avg_radius / exact, 2)});
  }
  result.tables.emplace_back("largest-ID under adversarial permutations", table);
  result.notes.push_back(
      "Expected: hill-climb approaches the exact worst case; the slice construction (the "
      "proof device of Theorem 1) deterministically plants high-radius slice centres - its "
      "average sits near the random baseline for largest-ID because this problem's "
      "extremal structure is recursive (captured exactly by the recurrence), whereas for "
      "the colouring lower bound planting per-vertex cost is precisely what the proof "
      "needs (Lemma 3 then spreads it over each slice).");
  return result;
}

// ---------------------------------------------------------------- E6 ------

ExperimentResult experiment_exact_small_n(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E6";
  result.title = "Exact small-n validation and pointwise minimality";

  const std::size_t brute_max = scale.factor >= 1.0 ? 9 : 7;
  const analysis::Recurrence rec(brute_max);

  Table table({"n", "exhaustive worst sum", "predicted n/2 + a(n-1)", "match",
               "permutations"});
  for (std::size_t n = 4; n <= brute_max; ++n) {
    const auto brute = analysis::exhaustive_worst_largest_id_cycle(n);
    const std::uint64_t predicted = analysis::predicted_worst_cycle_sum(rec, n);
    table.add_row({Table::cell(n), Table::cell(brute.max_sum), Table::cell(predicted),
                   brute.max_sum == predicted ? "yes" : "NO",
                   Table::cell(brute.permutations_checked)});
  }
  result.tables.emplace_back("brute force over all cyclic permutations", table);

  Table minimality({"n", "pointwise-minimality violations"});
  for (std::size_t n = 4; n <= std::min<std::size_t>(brute_max, 7); ++n) {
    minimality.add_row(
        {Table::cell(n), Table::cell(analysis::count_pointwise_minimality_violations(n))});
  }
  result.tables.emplace_back("engine radii vs information-theoretic minimum", minimality);

  Table universe({"n", "paper alg rand avg", "universe-aware rand avg", "paper worst avg",
                  "universe-aware on same ids"});
  const std::size_t un_max = scale.at_least(1024, 64);
  const analysis::Recurrence rec_big(un_max);
  for (std::size_t n = 64; n <= un_max; n *= 4) {
    const graph::Graph cycle = graph::make_cycle(n);
    const std::size_t trials = std::max<std::size_t>(4, scale.at_least(16, 4));
    const auto paper = cycle_sweep({n}, algo::make_largest_id_view(), trials, 31);
    const auto aware = cycle_sweep({n}, algo::make_largest_id_universe_aware_view(), trials, 31);
    const graph::IdAssignment worst_ids = analysis::worst_case_cycle_ids(rec_big, n);
    const Measurement worst_paper =
        measure(local::run_views(cycle, worst_ids, algo::make_largest_id_view()));
    const Measurement worst_aware =
        measure(local::run_views(cycle, worst_ids, algo::make_largest_id_universe_aware_view()));
    universe.add_row({Table::cell(n), fmt_double(paper[0].avg_mean),
                      fmt_double(aware[0].avg_mean), fmt_double(worst_paper.avg_radius),
                      fmt_double(worst_aware.avg_radius)});
  }
  result.tables.emplace_back(
      "ablation: universe-aware refinement (identifiers known to be a permutation)",
      universe);
  result.notes.push_back(
      "Expected: exhaustive == predicted for every n (four independent computations of the "
      "same number agree); zero minimality violations (no correct algorithm can stop "
      "earlier at any vertex under unknown-universe semantics); the universe-aware variant "
      "shaves a constant factor but stays Theta(log n) on average.");
  return result;
}

// ---------------------------------------------------------------- E7 ------

ExperimentResult experiment_dynamic_update(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E7";
  result.title = "Application: label update cost in a dynamic ring";

  Table table({"n", "mean affected", "mean update cost", "full recompute cost",
               "update/full"});
  const std::size_t n_max = scale.at_least(4096, 256);
  const std::size_t trials = std::max<std::size_t>(4, scale.at_least(24, 4));
  support::Xoshiro256 rng(1234);
  for (std::size_t n = 256; n <= n_max; n *= 4) {
    support::RunningStats affected_stats;
    support::RunningStats cost_stats;
    support::RunningStats full_stats;
    for (std::size_t t = 0; t < trials; ++t) {
      const graph::IdAssignment before = graph::IdAssignment::random(n, rng);
      const auto u = support::checked_u32(rng.below(n));
      auto v = support::checked_u32(rng.below(n));
      while (v == u) v = support::checked_u32(rng.below(n));
      const graph::IdAssignment after = before.with_swapped(u, v);
      const auto r_before = algo::largest_id_radii_on_cycle(before);
      const auto r_after = algo::largest_id_radii_on_cycle(after);
      std::uint64_t affected = 0, cost = 0, full = 0;
      for (std::size_t w = 0; w < n; ++w) {
        full += r_after[w];
        if (r_before[w] != r_after[w]) {
          ++affected;
          cost += r_after[w];
        }
      }
      // The changed vertices always re-examine their own neighbourhood.
      affected_stats.add(static_cast<double>(affected));
      cost_stats.add(static_cast<double>(cost));
      full_stats.add(static_cast<double>(full));
    }
    table.add_row({Table::cell(n), fmt_double(affected_stats.mean(), 1),
                   fmt_double(cost_stats.mean(), 1), fmt_double(full_stats.mean(), 1),
                   fmt_double(cost_stats.mean() / full_stats.mean(), 4)});
  }
  result.tables.emplace_back("single random identifier swap, largest-ID labels", table);
  result.notes.push_back(
      "The paper's first motivation: after a change at a random node, the expected "
      "re-labelling work tracks the average measure, not the worst case. Expected: the "
      "affected set and update cost grow polylogarithmically while full recomputation "
      "grows like n log n.");
  return result;
}

// ---------------------------------------------------------------- E8 ------

ExperimentResult experiment_parallel_makespan(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E8";
  result.title = "Application: parallel simulation throughput from early outputs";

  const std::size_t workers = 16;
  Table table({"n", "P", "sum r", "max r", "makespan (list sched)", "makespan (worst-case "
               "budget)", "speedup"});
  const std::size_t n_max = scale.at_least(16384, 1024);
  support::Xoshiro256 rng(77);
  for (std::size_t n = 1024; n <= n_max; n *= 4) {
    const graph::IdAssignment ids = graph::IdAssignment::random(n, rng);
    const auto radii = algo::largest_id_radii_on_cycle(ids);
    std::uint64_t sum = 0, max_r = 0;
    for (std::size_t r : radii) {
      sum += r;
      max_r = std::max<std::uint64_t>(max_r, r);
    }
    // Greedy list scheduling of per-node jobs costing r(v)+1 time units
    // (every node does at least one unit of work).
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> loads;
    for (std::size_t p = 0; p < workers; ++p) loads.push(0);
    for (std::size_t r : radii) {
      std::uint64_t load = loads.top();
      loads.pop();
      loads.push(load + r + 1);
    }
    std::uint64_t makespan = 0;
    while (!loads.empty()) {
      makespan = std::max(makespan, loads.top());
      loads.pop();
    }
    // Worst-case provisioning: every job is budgeted max r(v)+1.
    const std::uint64_t budget =
        ((n + workers - 1) / workers) * (max_r + 1);
    table.add_row({Table::cell(n), Table::cell(workers), Table::cell(sum),
                   Table::cell(max_r), Table::cell(makespan), Table::cell(budget),
                   fmt_double(static_cast<double>(budget) / static_cast<double>(makespan),
                              1)});
  }
  result.tables.emplace_back("per-node jobs of duration r(v)+1 on P workers", table);
  result.notes.push_back(
      "The paper's second motivation: a parallel machine simulating the distributed "
      "computation can reuse a worker as soon as a node outputs. Expected: list-scheduling "
      "makespan ~ sum r / P (driven by the average measure), worst-case provisioning ~ "
      "(n/P) * max r; the speedup column grows roughly like n / (P log n) ... max r/avg r.");
  return result;
}

// ---------------------------------------------------------------- E9 ------

ExperimentResult experiment_engine_agreement(const ExperimentScale& /*scale*/) {
  ExperimentResult result;
  result.id = "E9";
  result.title = "Engine cross-validation";

  // Fixed small rings at every scale: the full-information adapter
  // reconstructs every view by gossip, so this table is about agreement,
  // not size.
  Table table({"n", "seed", "view==message radii", "view==adapter radii", "outputs agree"});
  support::Xoshiro256 seed_rng(123);
  for (const std::size_t n : {6u, 9u, 13u, 17u, 24u}) {
    const std::uint64_t seed = seed_rng.next();
    support::Xoshiro256 rng(seed);
    const auto g = graph::make_cycle(n);
    const auto ids = graph::IdAssignment::random(n, rng);

    local::ViewEngineOptions flooding;
    flooding.semantics = local::ViewSemantics::kFloodingKnowledge;
    const auto views = local::run_views(g, ids, algo::make_largest_id_view(), flooding);
    const auto native = local::run_messages(g, ids, algo::make_largest_id_messages());
    const auto adapter = local::run_views_by_messages(g, ids, algo::make_largest_id_view());

    bool radii_native = true, radii_adapter = true, outputs = true;
    for (std::size_t v = 0; v < n; ++v) {
      radii_native &= views.radii[v] == native.radii[v];
      radii_adapter &= views.radii[v] == adapter.radii[v];
      outputs &= views.outputs[v] == native.outputs[v] && views.outputs[v] == adapter.outputs[v];
    }
    table.add_row({Table::cell(n), Table::cell(seed % 1000), radii_native ? "yes" : "NO",
                   radii_adapter ? "yes" : "NO", outputs ? "yes" : "NO"});
  }
  result.tables.emplace_back(
      "largest-id on random-permutation cycles: view engine (flooding knowledge) vs native "
      "message algorithm vs full-information adapter",
      table);
  result.notes.push_back(
      "The substrate check behind every other table: a node's output round in the message "
      "formulation equals its ball radius in the view formulation under flooding knowledge. "
      "Expected: every cell reads yes.");
  return result;
}

// ---------------------------------------------------------------- E10 -----

ExperimentResult experiment_general_graphs(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E10";
  result.title = "Further work: largest-ID beyond the cycle";

  const std::size_t n = scale.at_least(1024, 64);
  support::Xoshiro256 rng(2718);
  Table table({"family", "n", "m", "avg r", "max r", "avg/log2 n"});
  const auto add = [&](const std::string& name, const graph::Graph& g) {
    const graph::IdAssignment ids = graph::IdAssignment::random(g.vertex_count(), rng);
    const Measurement m = measure(local::run_views(g, ids, algo::make_largest_id_view()));
    table.add_row({name, Table::cell(g.vertex_count()), Table::cell(g.edge_count()),
                   fmt_double(m.avg_radius), Table::cell(m.max_radius),
                   fmt_double(m.avg_radius /
                              std::log2(static_cast<double>(g.vertex_count())))});
  };
  // Every family the registry knows, not a hand-picked subset: new
  // generators join this table by registration alone.
  for (const std::string& name : graph::FamilyRegistry::global().names()) {
    const graph::FamilySpec spec{name, {}};
    // Dense families would dominate the run at full scale for no extra
    // insight; their diameter pins both measures already at small n.
    const std::size_t requested =
        name == "complete" || name == "star" ? std::min<std::size_t>(n, 256) : n;
    add(name, graph::FamilyRegistry::global().build(spec, requested, rng));
  }
  result.tables.emplace_back("random identifiers, one run per family", table);
  result.notes.push_back(
      "The paper only treats the cycle and asks about general graphs. Observed shape: "
      "low-diameter families (gnp, complete) pin both measures at the diameter; "
      "path/cycle keep the logarithmic average; trees and grids sit between.");
  return result;
}

// ---------------------------------------------------------------- E11 -----

ExperimentResult experiment_expected_complexity(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E11";
  result.title = "Further work: expected complexity over random permutations";

  Table table({"n", "E[avg] exact", "simulated mean", "sd", "E[avg]/ln n",
               "E[avg] universe-aware", "max (every perm)"});
  const std::size_t n_max = scale.at_least(1u << 14, 64);
  for (std::size_t n = 16; n <= n_max; n *= 4) {
    const auto sweep = cycle_sweep({n}, algo::make_largest_id_view(),
                                   std::max<std::size_t>(6, scale.at_least(30, 6)), 515);
    const double exact = analysis::expected_largest_id_average(n);
    table.add_row({Table::cell(n), fmt_double(exact), fmt_double(sweep[0].avg_mean),
                   fmt_double(sweep[0].avg_sd),
                   fmt_double(exact / std::log(static_cast<double>(n))),
                   fmt_double(analysis::expected_universe_aware_average(n)),
                   Table::cell(analysis::deterministic_largest_id_max(n))});
  }
  result.tables.emplace_back("largest-ID on the cycle, uniform permutation", table);
  result.notes.push_back(
      "The paper's conclusion asks for the expectation over a uniformly random identifier "
      "permutation, for both measures. For this algorithm the classic measure is the same "
      "for every permutation (the leader always pays the closure radius), while the "
      "average measure has the exact closed form sum 1/(2d-1) ~ (ln n)/2: expected and "
      "worst-case averages differ only by a constant factor. Expected: `simulated mean` "
      "within a few sd of `E[avg] exact`, and the normalised column approaching 0.5.");
  return result;
}

// ---------------------------------------------------------------- E12 -----

ExperimentResult experiment_greedy_colouring(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E12";
  result.title = "Extension: greedy (Delta+1)-colouring - a second measure gap, on "
                 "every topology";

  const std::size_t n = scale.at_least(1024, 60);
  support::Xoshiro256 rng(606);
  Table table({"family", "n", "Delta+1", "colours used", "avg r (random ids)", "max r",
               "avg r (monotone ids)"});
  const auto add = [&](const std::string& name, const graph::Graph& g,
                       const graph::IdAssignment& monotone_ids) {
    const std::size_t count = g.vertex_count();
    const auto ids = graph::IdAssignment::random(count, rng);
    const local::RunResult random_run =
        local::run_views(g, ids, algo::make_greedy_colouring_view());
    AVGLOCAL_REQUIRE(algo::is_valid_colouring(
        g, random_run.outputs, static_cast<std::int64_t>(graph::max_degree(g)) + 1));
    std::int64_t colours_used = 0;
    for (const std::int64_t c : random_run.outputs) {
      colours_used = std::max(colours_used, c + 1);
    }
    const local::RunResult monotone_run =
        local::run_views(g, monotone_ids, algo::make_greedy_colouring_view());
    table.add_row({name, Table::cell(count),
                   Table::cell(graph::max_degree(g) + 1), Table::cell(colours_used),
                   fmt_double(random_run.average_radius()),
                   Table::cell(random_run.max_radius()),
                   fmt_double(monotone_run.average_radius())});
  };
  add("cycle", graph::make_cycle(n), graph::IdAssignment::identity(n));
  add("path", graph::make_path(n), graph::IdAssignment::identity(n));
  {
    const graph::Graph tree = graph::make_random_tree(n, rng);
    add("random tree", tree, graph::IdAssignment::identity(n));
  }
  {
    const auto side = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    add("grid", graph::make_grid(side, side),
        graph::IdAssignment::identity(side * side));
  }
  result.tables.emplace_back(
      "greedy colouring by identifier order (vertex waits for higher-id neighbours)",
      table);
  result.notes.push_back(
      "Extends the paper's further-work question beyond largest-ID: greedy colouring's "
      "radius is the longest increasing identifier path, so monotone identifiers force a "
      "linear average on paths/cycles while random identifiers keep it logarithmic - the "
      "same exponential gap phenomenology on every long-geodesic topology, for a problem "
      "(colouring) where the paper's ring lower bound says the gap cannot appear in the "
      "worst case over permutations with respect to log* alone.");
  return result;
}

// ---------------------------------------------------------------- E13 -----

ExperimentResult experiment_topology_matrix(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E13";
  result.title = "Scenario matrix: node-averaged measures across every registered family";

  const std::size_t n = scale.at_least(512, 48);
  const std::size_t cap = std::max<std::size_t>(8, scale.at_least(48, 8));

  Table table({"family", "algorithm", "n", "trials", "converged", "avg_mean", "ci_hw",
               "p90", "node_mean_max"});
  // The cross-product the registries make reachable: every family against
  // every any-topology view algorithm, through one declarative spec per
  // cell. The adaptive schedule sizes the trial budget per cell - flat
  // radius profiles (complete, star) converge after min_trials, heavy
  // tails spend the cap.
  for (const std::string& family : graph::FamilyRegistry::global().names()) {
    for (const std::string algorithm : {"largest-id", "greedy"}) {
      ScenarioSpec spec;
      spec.family = {family, {}};
      spec.algorithm = algorithm;
      spec.ns = {family == "complete" || family == "star" ? std::min<std::size_t>(n, 128) : n};
      spec.seed = 909;
      spec.schedule.max_trials = cap;
      spec.schedule.min_trials = 8;
      spec.schedule.batch = 8;
      spec.schedule.target_half_width = 0.05;
      const ScenarioResult run = run_scenario(spec);
      const ScenarioPoint& sp = run.points.front();
      table.add_row({family, algorithm, Table::cell(sp.point.n), Table::cell(sp.point.trials),
                     sp.converged ? "yes" : "cap", fmt_double(sp.point.avg_mean),
                     fmt_double(sp.half_width),
                     Table::cell(sp.point.radius.quantiles.size() > 1
                                     ? sp.point.radius.quantiles[1]
                                     : 0),
                     fmt_double(sp.point.node_mean_max)});
    }
  }
  result.tables.emplace_back(
      "adaptive sweeps (target half-width 0.05) per (family, algorithm) scenario", table);
  result.notes.push_back(
      "One ScenarioSpec per cell drives the whole matrix - the topology landscape of "
      "arXiv:2202.04724 against the paper's average measure and the greedy-colouring "
      "extension. Expected shape: low-diameter families converge at min_trials with "
      "avg_mean pinned near the diameter; long-geodesic families (path, cycle, trees, "
      "grid) show the logarithmic averages and spend more of the trial budget.");
  return result;
}

// ---------------------------------------------------------------- E14 -----

ExperimentResult experiment_message_vs_view(const ExperimentScale& scale) {
  ExperimentResult result;
  result.id = "E14";
  result.title = "Message vs view engine: the same problems under both formulations";

  const std::size_t n = scale.at_least(256, 32);
  const std::size_t trials = std::max<std::size_t>(4, scale.at_least(24, 4));

  // One scenario per (problem, formulation) cell; resolve_scenario routes
  // each to its engine, and both engines fill the same accumulators, so
  // every column is directly comparable. The message rows measure output
  // *rounds*; the view rows measure ball radii - for largest-id under
  // flooding knowledge the cross-engine oracle tests pin them equal, for
  // the colourings the gap between the two formulations is the point of
  // the table.
  struct Cell {
    const char* algorithm;
    const char* family;
  };
  const Cell cells[] = {
      {"largest-id", "cycle"},  {"largest-id-msg", "cycle"}, {"cv3", "cycle"},
      {"cv3-msg", "cycle"},     {"local3", "cycle"},         {"greedy", "gnp"},
      {"greedy-msg", "gnp"},
  };

  Table table({"algorithm", "engine", "family", "n", "trials", "avg_mean", "edge_avg_mean",
               "p90", "max_worst"});
  for (const Cell& cell : cells) {
    ScenarioSpec spec;
    spec.family = {cell.family, {}};
    spec.algorithm = cell.algorithm;
    spec.ns = {n};
    spec.seed = 1414;
    spec.schedule.max_trials = trials;
    const ScenarioResult run = run_scenario(spec);
    const ScenarioPoint& sp = run.points.front();
    table.add_row({cell.algorithm, run.spec.engine, cell.family, Table::cell(sp.point.n),
                   Table::cell(sp.point.trials), fmt_double(sp.point.avg_mean),
                   fmt_double(sp.point.edge_avg_mean),
                   Table::cell(sp.point.radius.quantiles.size() > 1
                                   ? sp.point.radius.quantiles[1]
                                   : 0),
                   Table::cell(sp.point.max_worst)});
  }
  result.tables.emplace_back("fixed trial budget per (algorithm, engine) scenario", table);
  result.notes.push_back(
      "Both engines run the identical id permutations (trial streams derive from "
      "(seed, point, trial)), so rows differ only in the formulation. Expected shape: "
      "largest-id agrees across engines on the cycle; cv3-msg pays its fixed known-n "
      "schedule where the view formulation stops per vertex; edge averages "
      "(arXiv:2208.08213) sit between the node average and the worst case.");
  return result;
}

// --------------------------------------------------------------------------

std::vector<std::function<ExperimentResult(const ExperimentScale&)>> all_experiments() {
  return {
      experiment_recurrence_table, experiment_largest_id_gap, experiment_colouring_logstar,
      experiment_neighbourhood_chi, experiment_adversaries, experiment_exact_small_n,
      experiment_dynamic_update, experiment_parallel_makespan, experiment_engine_agreement,
      experiment_general_graphs, experiment_expected_complexity, experiment_greedy_colouring,
      experiment_topology_matrix, experiment_message_vs_view,
  };
}

std::string render(const ExperimentResult& result) {
  std::ostringstream out;
  out << "# [" << result.id << "] " << result.title << "\n";
  for (const auto& [caption, table] : result.tables) {
    out << "\n## " << caption << "\n\n" << table.to_markdown();
  }
  for (const auto& note : result.notes) {
    out << "\nNote: " << note << "\n";
  }
  return out.str();
}

}  // namespace avglocal::core
