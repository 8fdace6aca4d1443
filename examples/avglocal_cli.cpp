// avglocal_cli: every bundled LOCAL algorithm on every graph family, by
// name, through the scenario registries - single runs, batched/adaptive
// sweeps, sharded sweeps across processes and a local multi-process fabric.
//
// Discover the workload space:
//   avglocal_cli list
//
// Single runs (the default subcommand; message algorithms included):
//   avglocal_cli --algo largest-id --graph cycle --n 1024 --seed 7
//   avglocal_cli --algo greedy --graph random-regular:degree=4 --n 4096
//   avglocal_cli --algo local3 --graph cycle --n 256 --csv radii.csv
//
// Batched sweeps (many id-assignments per graph in one pass); --target-hw
// turns on the adaptive trial schedule, which grows the trial count in
// batches until the avg-mean confidence interval closes:
//   avglocal_cli sweep --algo largest-id --graph torus --ns 256,1024,4096
//                      --trials 200 --seed 42 --json sweep.json
//   avglocal_cli sweep --algo cv3 --graph cycle --ns 4096 --trials 5000
//                      --target-hw 0.05 --min-trials 32 --adaptive-batch 64
//   avglocal_cli sweep --algo largest-id-msg --graph cycle --ns 1024 --trials 100
//                      (message algorithms sweep too; the registry picks the engine,
//                       and --threads parallelises trial ranges across worker engines)
//
// Sharded sweeps (run shard i of k anywhere, then merge the artefacts;
// the merge is bit-identical to the monolithic sweep):
//   avglocal_cli sweep --ns 1024,4096 --trials 1000 --shard 0/4 --out s0.json
//   ... shards 1/4, 2/4, 3/4 on other hosts ...
//   avglocal_cli merge --json sweep.json s0.json s1.json s2.json s3.json
//
// Or let drive run the fabric below on one machine: an in-process
// coordinator plus local fabric-worker processes (failed workers are
// respawned, the report is byte-identical to the monolithic sweep's):
//   avglocal_cli drive --algo largest-id --graph gnp:avg-degree=6
//                      --ns 1024,4096 --trials 1000 --shards 4 --json sweep.json
//
// Or keep the engines resident: `serve` runs a daemon over a Unix-domain
// socket with a content-addressed result cache (repeat requests are free,
// trial extensions compute only the missing range), `request` is its
// client - the saved report is byte-identical to a one-shot sweep's:
//   avglocal_cli serve --socket /tmp/avglocal.sock --threads 4 &
//   avglocal_cli request --socket /tmp/avglocal.sock --algo largest-id
//                        --graph cycle --ns 1024 --trials 500 --json sweep.json
//   avglocal_cli request --socket /tmp/avglocal.sock --op shutdown
//
// Or stream the sweep across machines: `fabric-serve` is a coordinator
// that decomposes the sweep into (point, trial-range) work units pulled
// by `fabric-worker` processes over Unix-domain or TCP sockets, with
// work stealing and straggler re-dispatch - the merged report is
// byte-identical to the monolithic sweep's for any worker count:
//   avglocal_cli fabric-serve --listen tcp:0.0.0.0:7440 --algo largest-id
//                             --graph cycle --ns 1024 --trials 1000 --json sweep.json &
//   avglocal_cli fabric-worker --connect tcp:host:7440 --threads 4   (xN, any hosts)
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "core/fabric.hpp"
#include "core/measure.hpp"
#include "core/remote_backend.hpp"
#include "core/scenario.hpp"
#include "core/serve.hpp"
#include "core/shard.hpp"
#include "graph/family_registry.hpp"
#include "graph/ids.hpp"
#include "local/engine.hpp"
#include "local/view_engine.hpp"
#include "support/csv.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"

extern char** environ;

namespace {

using namespace avglocal;

// ------------------------------------------------------------- helpers ----

local::ViewSemantics parse_semantics(const std::string& name) {
  const auto semantics = local::view_semantics_from_name(name);
  if (!semantics) throw std::invalid_argument("unknown semantics '" + name + "' (induced|flooding)");
  return *semantics;
}

// Checked numeric flag parsing. Bare std::stoull would throw an uncaught
// exception on garbage and - worse - silently wrap "-1" to 2^64-1, so
// every numeric flag goes through these: strict syntax (digits only /
// full-string doubles), overflow rejected, and on failure the offending
// flag is named on stderr and the parser bails with the usage exit (2).

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

std::optional<double> parse_f64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

bool flag_error(const std::string& text, const char* flag) {
  std::cerr << "invalid value '" << text << "' for " << flag << "\n";
  return false;
}

bool u64_flag(const std::string& text, const char* flag, std::uint64_t& out) {
  const auto parsed = parse_u64(text);
  if (!parsed) return flag_error(text, flag);
  out = *parsed;
  return true;
}

bool size_flag(const std::string& text, const char* flag, std::size_t& out) {
  // size_t and uint64_t coincide on every platform this CLI targets.
  const auto parsed = parse_u64(text);
  if (!parsed) return flag_error(text, flag);
  out = static_cast<std::size_t>(*parsed);
  return true;
}

bool f64_flag(const std::string& text, const char* flag, double& out) {
  const auto parsed = parse_f64(text);
  if (!parsed) return flag_error(text, flag);
  out = *parsed;
  return true;
}

std::optional<std::vector<std::size_t>> parse_size_list(const std::string& text) {
  std::vector<std::size_t> values;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const auto parsed = parse_u64(item);
    if (!parsed) return std::nullopt;
    values.push_back(static_cast<std::size_t>(*parsed));
  }
  if (values.empty()) return std::nullopt;
  return values;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  file << text << "\n";
  return true;
}

std::string read_text_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void print_points(const std::vector<core::ScenarioPoint>& points, bool adaptive) {
  std::cout << "      n   trials   avg_mean     avg_sd      ci_hw   max_mean  max_worst   "
               "p50  p90  p99   node_mean_max  edge_avg_mean\n";
  for (const auto& sp : points) {
    const auto& p = sp.point;
    std::printf("%7zu  %7zu  %9.4f  %9.4f  %9.4f  %9.2f  %9zu  %4zu %4zu %4zu   %13.4f  %13.4f\n",
                p.n, p.trials, p.avg_mean, p.avg_sd, sp.half_width, p.max_mean, p.max_worst,
                p.radius.quantiles.size() > 0 ? p.radius.quantiles[0] : 0,
                p.radius.quantiles.size() > 1 ? p.radius.quantiles[1] : 0,
                p.radius.quantiles.size() > 2 ? p.radius.quantiles[2] : 0, p.node_mean_max,
                p.edge_avg_mean);
  }
  if (adaptive) {
    for (const auto& sp : points) {
      std::cout << "  n=" << sp.point.n << ": "
                << (sp.converged ? "converged after " : "hit the trial cap at ")
                << sp.point.trials << " trials (half-width " << sp.half_width << ")\n";
    }
  }
}

// ---------------------------------------------------------------- list ----

int run_list_command() {
  const auto& families = graph::FamilyRegistry::global();
  std::cout << "graph families (--graph NAME or NAME:param=value,...):\n";
  for (const std::string& name : families.names()) {
    const graph::GraphFamily& family = families.at(name);
    std::printf("  %-16s %s%s\n", family.name.c_str(), family.randomised ? "[random] " : "",
                family.description.c_str());
    for (const auto& param : family.params) {
      std::printf("  %-16s   param %s=%g: %s\n", "", param.name.c_str(), param.default_value,
                  param.description.c_str());
    }
  }

  const auto& algorithms = algo::AlgorithmRegistry::global();
  std::cout << "\nview algorithms (--algo; single runs and sweeps):\n";
  for (const std::string& name : algorithms.names(algo::AlgorithmKind::kView)) {
    const algo::AlgorithmInfo& info = algorithms.at(name);
    const algo::ViewCapabilities caps = algo::AlgorithmRegistry::probe(info, 256);
    std::printf("  %-16s %s (%s; batched mode: %s%s)\n", info.name.c_str(),
                info.description.c_str(), info.constraint.c_str(),
                caps.ids_only_view ? "sequential/ids-only" : "lockstep",
                caps.min_radius > 0
                    ? (", skips radii < " + std::to_string(caps.min_radius) + " at n=256").c_str()
                    : "");
  }
  std::cout << "\nmessage algorithms (--algo; single runs and message-engine sweeps):\n";
  for (const std::string& name : algorithms.names(algo::AlgorithmKind::kMessage)) {
    const algo::AlgorithmInfo& info = algorithms.at(name);
    std::printf("  %-16s %s (%s)\n", info.name.c_str(), info.description.c_str(),
                info.constraint.c_str());
  }
  return 0;
}

// ----------------------------------------------------------------- run ----

struct RunOptions {
  std::string algo = "largest-id";
  std::string graph = "cycle";
  std::size_t n = 256;
  std::uint64_t seed = 1;
  std::string semantics = "induced";
  std::string csv_path;
};

void usage() {
  std::cout << "usage: avglocal_cli [--algo A] [--graph G] [--n N] [--seed S]\n"
               "                    [--semantics induced|flooding] [--csv FILE]\n"
               "       avglocal_cli list          (enumerate graph families and algorithms)\n"
               "       avglocal_cli sweep ...     (batched/adaptive/sharded sweeps; --help)\n"
               "       avglocal_cli merge ...     (recombine shard artefacts; --help)\n"
               "       avglocal_cli drive ...     (sweep on a local coordinator + workers; --help)\n"
               "       avglocal_cli serve ...     (resident sweep daemon + result cache; --help)\n"
               "       avglocal_cli request ...   (client for a running daemon; --help)\n"
               "       avglocal_cli fabric-serve ...  (distributed sweep coordinator; --help)\n"
               "       avglocal_cli fabric-worker ... (worker for a coordinator; --help)\n"
               "  names resolve through the scenario registries; `list` prints them.\n";
}

std::optional<RunOptions> parse_run(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") return std::nullopt;
    std::optional<std::string> value;
    if (arg == "--algo" && (value = next())) {
      options.algo = *value;
    } else if (arg == "--graph" && (value = next())) {
      options.graph = *value;
    } else if (arg == "--n" && (value = next())) {
      if (!size_flag(*value, "--n", options.n)) return std::nullopt;
    } else if (arg == "--seed" && (value = next())) {
      if (!u64_flag(*value, "--seed", options.seed)) return std::nullopt;
    } else if (arg == "--semantics" && (value = next())) {
      options.semantics = *value;
    } else if (arg == "--csv" && (value = next())) {
      options.csv_path = *value;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  return options;
}

int run_single_impl(const RunOptions& options) {
  const graph::FamilySpec family = graph::parse_family_spec(options.graph);
  const auto& families = graph::FamilyRegistry::global();
  const algo::AlgorithmInfo& info = algo::AlgorithmRegistry::global().at(options.algo);

  support::Xoshiro256 rng(options.seed);
  const graph::Graph g = families.build(family, options.n, rng);
  const std::size_t n = g.vertex_count();
  const graph::IdAssignment ids = graph::IdAssignment::random(n, rng);

  local::RunResult run;
  if (info.kind == algo::AlgorithmKind::kView) {
    local::ViewEngineOptions view_options;
    view_options.semantics = parse_semantics(options.semantics);
    run = local::run_views(g, ids, info.view(n), view_options);
  } else {
    local::EngineOptions engine_options;
    engine_options.knowledge = info.knowledge;
    engine_options.max_rounds = 1'000'000;
    run = local::run_messages(g, ids, info.messages(n), engine_options);
  }
  const std::string validity =
      info.validate ? (info.validate(g, ids, run.outputs) ? "valid" : "INVALID") : "n/a";

  const core::Measurement m = core::measure(run);
  const core::EdgeMeasurement em = core::measure_edges(g, run.radii);
  std::cout << options.algo << " on " << options.graph << " n=" << n
            << " seed=" << options.seed << " (" << options.semantics << ")\n"
            << "  outputs       : " << validity << "\n"
            << "  max radius    : " << m.max_radius << "\n"
            << "  avg radius    : " << m.avg_radius << "\n"
            << "  sum radius    : " << m.sum_radius << "\n"
            << "  gap max/avg   : " << core::measure_gap(m) << "\n"
            << "  edge avg time : " << em.avg_time << " over " << em.edges << " edges\n";
  if (run.messages > 0) {
    std::cout << "  messages/words: " << run.messages << " / " << run.words << "\n";
  }

  if (!options.csv_path.empty()) {
    std::ofstream file(options.csv_path);
    if (!file) {
      std::cerr << "cannot open " << options.csv_path << "\n";
      return 1;
    }
    support::CsvWriter csv(file);
    csv.write_row({"vertex", "id", "radius", "output"});
    for (std::size_t v = 0; v < n; ++v) {
      csv.write_row({std::to_string(v),
                     std::to_string(ids.id_of(static_cast<graph::Vertex>(v))),
                     std::to_string(run.radii[v]), std::to_string(run.outputs[v])});
    }
    std::cout << "  per-vertex CSV written to " << options.csv_path << "\n";
  }
  return 0;
}

// ------------------------------------------------------- sweep / drive ----

struct SweepCliOptions {
  core::ScenarioSpec spec;
  std::size_t threads = 0;
  std::size_t batch = 0;
  std::optional<std::pair<std::size_t, std::size_t>> shard;  ///< (index, count)
  std::string out_path;   ///< shard artefact destination (sweep --shard)
  std::string json_path;  ///< full-report destination (sweep / merge / drive)

  // drive only
  std::size_t shards = 2;   ///< work units per point: trials/shards each (rounded up)
  std::size_t jobs = 0;     ///< worker processes; 0 = min(units, cores)
  std::size_t retries = 2;  ///< respawns of a failed worker before giving up
  std::string workdir;
};

void sweep_usage() {
  std::cout
      << "usage: avglocal_cli sweep [--algo A] [--graph G[:param=v,...]] [--ns N1,N2,...]\n"
         "                          [--trials T] [--seed S] [--semantics induced|flooding]\n"
         "                          [--threads W] [--batch B] [--node-profile] [--json FILE]\n"
         "                          [--target-hw H [--min-trials M] [--adaptive-batch B]\n"
         "                          [--z Z]] [--shard I/K --out FILE]\n"
         "       avglocal_cli merge [--json FILE] SHARD.json...\n"
         "       avglocal_cli drive ...sweep flags... --shards K [--jobs J] [--retries R]\n"
         "                          [--workdir DIR]\n"
         "  `list` enumerates the algorithm and graph-family names. View and message\n"
         "  algorithms both sweep; the registry picks the engine. --threads parallelises\n"
         "  both: view sweeps share vertices across workers, message sweeps run one\n"
         "  engine per worker over disjoint trial ranges - results are byte-identical\n"
         "  for every thread count (message sweeps ignore --semantics).\n"
         "  --trials is the trial count - or, with --target-hw, the adaptive cap: trials\n"
         "  grow in batches until the avg-mean confidence half-width closes below H.\n"
         "  --shard I/K runs trial range I of K and writes a mergeable artefact; merge\n"
         "  recombines artefacts bit-identically to the monolithic sweep.\n"
         "  drive runs a fabric coordinator in-process on DIR/drive.sock (DIR defaults\n"
         "  to a fresh avglocal-drive-XXXXXX) and forks J fabric-worker processes\n"
         "  (0 = one per core) with cores/J threads each unless --threads is given;\n"
         "  work units hold ceil(T/K) trials of one point. A worker that fails before\n"
         "  the sweep completes is respawned up to R times; with no worker left the\n"
         "  drive gives up (exit 1, no report). The report is byte-identical to sweep's.\n";
}

std::optional<SweepCliOptions> parse_sweep(int argc, char** argv, int first, bool drive) {
  SweepCliOptions options;
  options.spec.schedule.max_trials = 100;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") return std::nullopt;
    if (arg == "--algo" && (value = next())) {
      options.spec.algorithm = *value;
    } else if (arg == "--graph" && (value = next())) {
      options.spec.family = graph::parse_family_spec(*value);
    } else if (arg == "--ns" && (value = next())) {
      const auto sizes = parse_size_list(*value);
      if (!sizes) {
        flag_error(*value, "--ns");
        return std::nullopt;
      }
      options.spec.ns = *sizes;
    } else if (arg == "--trials" && (value = next())) {
      if (!size_flag(*value, "--trials", options.spec.schedule.max_trials)) return std::nullopt;
    } else if (arg == "--seed" && (value = next())) {
      if (!u64_flag(*value, "--seed", options.spec.seed)) return std::nullopt;
    } else if (arg == "--semantics" && (value = next())) {
      options.spec.semantics = parse_semantics(*value);
    } else if (arg == "--threads" && (value = next())) {
      if (!size_flag(*value, "--threads", options.threads)) return std::nullopt;
    } else if (arg == "--batch" && (value = next())) {
      if (!size_flag(*value, "--batch", options.batch)) return std::nullopt;
    } else if (arg == "--node-profile") {
      options.spec.node_profile = true;
    } else if (arg == "--target-hw" && (value = next())) {
      if (!f64_flag(*value, "--target-hw", options.spec.schedule.target_half_width)) {
        return std::nullopt;
      }
    } else if (arg == "--min-trials" && (value = next())) {
      if (!size_flag(*value, "--min-trials", options.spec.schedule.min_trials)) {
        return std::nullopt;
      }
    } else if (arg == "--adaptive-batch" && (value = next())) {
      if (!size_flag(*value, "--adaptive-batch", options.spec.schedule.batch)) {
        return std::nullopt;
      }
    } else if (arg == "--z" && (value = next())) {
      if (!f64_flag(*value, "--z", options.spec.schedule.z)) return std::nullopt;
    } else if (arg == "--json" && (value = next())) {
      options.json_path = *value;
    } else if (!drive && arg == "--shard" && (value = next())) {
      const auto slash = value->find('/');
      std::size_t index = 0;
      std::size_t count = 0;
      if (slash == std::string::npos || !parse_u64(value->substr(0, slash)) ||
          !parse_u64(value->substr(slash + 1))) {
        std::cerr << "invalid value '" << *value << "' for --shard (expects I/K)\n";
        return std::nullopt;
      }
      index = static_cast<std::size_t>(*parse_u64(value->substr(0, slash)));
      count = static_cast<std::size_t>(*parse_u64(value->substr(slash + 1)));
      options.shard = {{index, count}};
    } else if (!drive && arg == "--out" && (value = next())) {
      options.out_path = *value;
    } else if (drive && arg == "--shards" && (value = next())) {
      if (!size_flag(*value, "--shards", options.shards)) return std::nullopt;
    } else if (drive && arg == "--jobs" && (value = next())) {
      if (!size_flag(*value, "--jobs", options.jobs)) return std::nullopt;
    } else if (drive && arg == "--retries" && (value = next())) {
      if (!size_flag(*value, "--retries", options.retries)) return std::nullopt;
    } else if (drive && arg == "--workdir" && (value = next())) {
      options.workdir = *value;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  return options;
}

int run_sweep_command_impl(int argc, char** argv) {
  const auto parsed = parse_sweep(argc, argv, 2, /*drive=*/false);
  if (!parsed) {
    sweep_usage();
    return 2;
  }
  const SweepCliOptions& options = *parsed;
  // Validate the whole workload - family, parameters, algorithm, schedule -
  // before any sweep work starts or any artefact file is opened.
  const core::ResolvedScenario resolved = core::resolve_scenario(options.spec);

  if (options.shard) {
    const auto [index, count] = *options.shard;
    if (options.out_path.empty()) {
      std::cerr << "--shard needs --out FILE for the artefact\n";
      return 2;
    }
    if (resolved.spec.schedule.adaptive()) {
      std::cerr << "adaptive schedules cannot be sharded: the trial count is decided by the\n"
                << "monolithic driver; drop --target-hw or run `sweep`/`drive` without --shard\n";
      return 2;
    }
    core::BatchedSweepOptions sweep = resolved.sweep_options();
    sweep.threads = options.threads;
    sweep.batch_size = options.batch;
    const auto plan =
        core::plan_shards(resolved.spec.ns.size(), sweep.trials, count);
    if (index >= plan.size()) {
      std::cerr << "shard " << index << " is empty: only " << plan.size()
                << " non-empty shards in this plan\n";
      return 2;
    }
    core::ShardDocument doc;
    doc.meta = core::scenario_plan_meta(resolved);
    doc.shard = plan[index];
    doc.points = core::run_scenario_shard(resolved, sweep, doc.shard);
    if (!write_text_file(options.out_path, core::shard_to_json(doc))) return 1;
    std::cout << "shard " << index << "/" << count << " (trials [" << doc.shard.trial_begin
              << ", " << doc.shard.trial_end << ")) written to " << options.out_path << "\n";
    return 0;
  }

  core::ScenarioExecution execution;
  execution.threads = options.threads;
  execution.batch_size = options.batch;
  const core::ScenarioResult result = core::run_scenario(resolved.spec, execution);
  print_points(result.points, result.spec.schedule.adaptive());
  if (!options.json_path.empty()) {
    if (!write_text_file(options.json_path, core::sweep_report_json(result.spec, result.points))) {
      return 1;
    }
    std::cout << "sweep report written to " << options.json_path << "\n";
  }
  return 0;
}

// --------------------------------------------------------------- merge ----

/// Rebuilds the report spec from a shard artefact: the embedded scenario
/// block when present, else a best-effort spec from the plan header (for
/// artefacts produced below the scenario layer).
core::ScenarioSpec spec_from_meta(const core::SweepPlanMeta& meta) {
  if (!meta.scenario.empty()) {
    core::ScenarioSpec spec = core::scenario_from_json(meta.scenario);
    // Version-2 scenario blocks predate the engine field; the meta default
    // ("view" - v2 artefacts had no other engine) keeps the re-emitted
    // report's scenario block self-describing.
    if (spec.engine.empty()) spec.engine = meta.engine;
    return spec;
  }
  core::ScenarioSpec spec;
  spec.family = meta.graph.empty() ? graph::FamilySpec{"unknown", {}}
                                   : graph::parse_family_spec(meta.graph);
  spec.algorithm = meta.algorithm;
  spec.engine = meta.engine;
  spec.ns = meta.ns;
  spec.semantics = meta.semantics;
  spec.seed = meta.seed;
  spec.schedule.max_trials = meta.trials;
  spec.quantile_probs = meta.quantile_probs;
  spec.node_profile = meta.node_profile;
  return spec;
}

std::vector<core::ScenarioPoint> wrap_merged_points(const core::ScenarioSpec& spec,
                                                    std::vector<core::BatchedSweepPoint> merged) {
  std::vector<core::ScenarioPoint> points;
  points.reserve(merged.size());
  for (auto& p : merged) {
    core::ScenarioPoint sp;
    // The shared TrialSchedule::half_width keeps this reconstruction
    // bit-identical to the monolithic run's reported value.
    sp.half_width = spec.schedule.half_width(p.avg_sd, p.trials);
    sp.converged = true;  // sharded plans are fixed-trial by construction
    sp.point = std::move(p);
    points.push_back(std::move(sp));
  }
  return points;
}

int run_merge_command_impl(int argc, char** argv) {
  std::string json_path;
  std::vector<std::string> artefacts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      sweep_usage();
      return 2;
    }
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown argument: " << arg << "\n";
      sweep_usage();
      return 2;
    } else {
      artefacts.push_back(arg);
    }
  }
  if (artefacts.empty()) {
    std::cerr << "merge needs at least one shard artefact\n";
    sweep_usage();
    return 2;
  }

  std::vector<core::ShardDocument> docs;
  docs.reserve(artefacts.size());
  for (const std::string& path : artefacts) {
    docs.push_back(core::parse_shard_json(read_text_file(path)));
  }
  const core::SweepPlanMeta meta = docs.front().meta;
  const core::ScenarioSpec spec = spec_from_meta(meta);
  const auto points = wrap_merged_points(spec, core::merge_shards(std::move(docs)));
  std::cout << "merged " << artefacts.size() << " shard(s): " << meta.algorithm << " on "
            << meta.graph << ", seed " << meta.seed << ", " << meta.trials << " trials\n";
  print_points(points, /*adaptive=*/false);
  if (!json_path.empty()) {
    if (!write_text_file(json_path, core::sweep_report_json(spec, points))) return 1;
    std::cout << "merged report written to " << json_path << "\n";
  }
  return 0;
}

// --------------------------------------------------------------- drive ----

std::string self_executable(const char* argv0) {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len > 0) {
    buf[len] = '\0';
    return std::string(buf);
  }
  return std::string(argv0);
}

pid_t spawn_process(const std::string& exe, const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execve(exe.c_str(), argv.data(), environ);
    std::perror("execve");
    std::_Exit(127);
  }
  return pid;
}

/// The daemon (serve) or the fabric coordinator (fabric-serve, drive)
/// under the signal handler's hand. request_stop() is the only call the
/// handler makes - an atomic store plus shutdown(2), both async-signal-
/// safe. At most one of the two is non-null in any given process.
core::Server* g_server = nullptr;
core::RemoteBackend* g_fabric = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
  if (g_fabric != nullptr) g_fabric->request_stop();
}

/// No SA_RESTART: the blocked accept() must return (EINTR) so the accept
/// loop observes the stop flag the handler just set.
void install_stop_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

/// One of drive's fabric-worker children.
struct DriveWorker {
  std::string name;
  pid_t pid = -1;  ///< > 0 while running
  std::size_t attempts = 0;
  bool retired = false;  ///< exited cleanly or out of attempts
};

/// Launches drive's workers (`args` plus --name) and watches them until
/// the sweep completes or stops. A worker that fails first is respawned
/// while its attempts are <= `retries`; with none left running, the
/// coordinator is stopped. Live children are ended before returning.
void run_drive_workers(core::RemoteBackend& backend, std::vector<DriveWorker>& workers,
                       const std::vector<std::string>& args, std::size_t retries) {
  const auto launch = [&](DriveWorker& worker) {
    std::vector<std::string> named = args;
    named.insert(named.end(), {"--name", worker.name});
    ++worker.attempts;
    worker.pid = spawn_process(args.front(), named);
    if (worker.pid < 0) {
      std::cerr << "cannot fork worker " << worker.name << ": " << std::strerror(errno) << "\n";
    }
  };
  const auto relaunch = [&](DriveWorker& worker, const char* what) {
    if (worker.attempts > retries) {
      std::cerr << "worker " << worker.name << " " << what << " after " << worker.attempts
                << " attempts\n";
      worker.retired = true;
      return;
    }
    std::cerr << "worker " << worker.name << " " << what << " (attempt " << worker.attempts
              << "); retrying\n";
    launch(worker);
  };
  for (DriveWorker& worker : workers) launch(worker);

  // Watch exactly OUR children: waitpid(-1) would also collect children
  // the caller of this code happens to own, so poll the tracked pids with
  // WNOHANG, napping between rounds. EINTR is a retry, never a failure.
  // A stop (a signal, or giving up below) ends the watch like completion.
  while (!backend.coordinator().complete() && !backend.coordinator().stopping()) {
    bool live = false;
    for (DriveWorker& worker : workers) {
      if (worker.retired) continue;
      if (worker.pid < 0) {
        relaunch(worker, "could not be forked");
      } else {
        int status = 0;
        const pid_t got = ::waitpid(worker.pid, &status, WNOHANG);
        if (got == 0 || (got < 0 && errno == EINTR)) {
          live = true;
          continue;
        }
        // ECHILD means someone else reaped it: status unknown, a failure.
        worker.pid = -1;
        if (got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          worker.retired = true;
          continue;
        }
        relaunch(worker, WIFSIGNALED(status) ? "was killed" : "failed");
      }
      live = live || worker.pid > 0;
    }
    if (!live && !backend.coordinator().complete()) {
      std::cerr << "no worker left to finish the sweep; giving up\n";
      backend.request_stop();
      break;
    }
    const timespec nap{0, 20'000'000};
    ::nanosleep(&nap, nullptr);
  }
  // Done either way: children still connecting would spin out their
  // connect timeout against a closed socket, so end them; their status no
  // longer matters.
  for (const DriveWorker& worker : workers) {
    if (worker.pid <= 0) continue;
    ::kill(worker.pid, SIGTERM);
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

/// drive = a fabric coordinator in this process plus --jobs forked
/// `fabric-worker` children on a Unix socket in the work directory. The
/// fabric's dynamic stealing and unit-order merge do the rest, so the
/// report is byte-identical to `sweep --json`.
int run_drive_command_impl(int argc, char** argv) {
  const auto parsed = parse_sweep(argc, argv, 2, /*drive=*/true);
  if (!parsed) {
    sweep_usage();
    return 2;
  }
  const SweepCliOptions& options = *parsed;
  const core::ResolvedScenario resolved = core::resolve_scenario(options.spec);
  if (resolved.spec.schedule.adaptive()) {
    std::cerr << "drive runs fixed plans; drop --target-hw (adaptive sweeps are monolithic)\n";
    return 2;
  }
  if (options.shards < 1) {
    std::cerr << "--shards must be at least 1\n";
    return 2;
  }

  bool created_workdir = false;
  std::string workdir = options.workdir;
  if (workdir.empty()) {
    std::string tmpl = "avglocal-drive-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::cerr << "cannot create work directory: " << std::strerror(errno) << "\n";
      return 1;
    }
    workdir = tmpl;
    created_workdir = true;
  } else if (::mkdir(workdir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::cerr << "cannot create work directory " << workdir << ": " << std::strerror(errno)
              << "\n";
    return 1;
  }

  const std::size_t trials = resolved.spec.schedule.max_trials;
  core::FabricOptions fabric;
  fabric.endpoint = support::parse_endpoint("unix:" + workdir + "/drive.sock");
  fabric.unit_trials = (trials + options.shards - 1) / options.shards;
  core::RemoteBackend backend(resolved.spec, fabric);
  const std::size_t units = backend.coordinator().work_units().size();

  const std::size_t cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t jobs =
      std::max<std::size_t>(1, std::min(options.jobs == 0 ? cores : options.jobs, units));
  std::vector<DriveWorker> workers(jobs);
  for (std::size_t i = 0; i < jobs; ++i) workers[i].name = "w" + std::to_string(i);
  // The workers share the machine: split the cores across them unless the
  // user pinned a per-worker thread count.
  const std::size_t worker_threads =
      options.threads != 0 ? options.threads : std::max<std::size_t>(1, cores / jobs);
  std::vector<std::string> args = {self_executable(argv[0]), "fabric-worker", "--connect",
                                   fabric.endpoint.to_string(), "--threads",
                                   std::to_string(worker_threads)};
  if (options.batch != 0) args.insert(args.end(), {"--batch", std::to_string(options.batch)});

  backend.start();
  g_fabric = &backend;
  install_stop_handlers();
  core::RemoteSweepOutcome outcome;
  std::thread coordinator([&] { outcome = backend.run(); });
  try {
    run_drive_workers(backend, workers, args, options.retries);
  } catch (...) {
    backend.request_stop();  // or the join below could wait forever
    coordinator.join();
    throw;
  }
  coordinator.join();
  g_fabric = nullptr;
  if (created_workdir) ::rmdir(workdir.c_str());
  if (!outcome.complete) {
    std::cerr << "drive stopped before completion\n";
    return 1;
  }

  std::cout << "drive: " << jobs << " worker(s), " << units << " unit(s), "
            << outcome.stats.redispatches << " re-dispatch(es)\n";
  for (const DriveWorker& worker : workers) {
    std::cout << "  worker " << worker.name << ": " << worker.attempts << " attempt"
              << (worker.attempts == 1 ? "" : "s") << "\n";
  }
  print_points(outcome.result.points, /*adaptive=*/false);
  if (!options.json_path.empty()) {
    if (!write_text_file(options.json_path, outcome.report)) return 1;
    std::cout << "sweep report written to " << options.json_path << "\n";
  }
  return 0;
}

// ------------------------------------------------------- serve / request ----

void serve_usage() {
  std::cout
      << "usage: avglocal_cli serve --socket PATH [--threads W] [--batch B]\n"
         "                          [--max-clients C]\n"
         "       avglocal_cli request --socket PATH [--op sweep|ping|stats|shutdown]\n"
         "                            [--connect-timeout-ms MS] ...sweep flags... [--json FILE]\n"
         "  serve keeps sweep engines resident behind a Unix-domain socket with a\n"
         "  content-addressed result cache: a repeated request is served from cache\n"
         "  with zero recomputation, a request for more trials of a cached workload\n"
         "  computes only the missing trial range, and every report is byte-identical\n"
         "  to a one-shot `sweep --json` run. Fixed trial schedules only (--target-hw\n"
         "  requests are rejected). SIGTERM/SIGINT shut the daemon down cleanly.\n"
         "  request sends one op and prints the response; for sweeps, --json FILE\n"
         "  saves the returned report (cmp-identical to the monolithic file).\n";
}

int run_serve_command_impl(int argc, char** argv) {
  core::ServeOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") {
      serve_usage();
      return 2;
    }
    if (arg == "--socket" && (value = next())) {
      options.socket_path = *value;
    } else if (arg == "--threads" && (value = next())) {
      if (!size_flag(*value, "--threads", options.threads)) return 2;
    } else if (arg == "--batch" && (value = next())) {
      if (!size_flag(*value, "--batch", options.batch_size)) return 2;
    } else if (arg == "--max-clients" && (value = next())) {
      if (!size_flag(*value, "--max-clients", options.max_clients)) return 2;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      serve_usage();
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    std::cerr << "serve needs --socket PATH\n";
    serve_usage();
    return 2;
  }
  if (options.max_clients < 1) {
    std::cerr << "--max-clients must be at least 1\n";
    return 2;
  }

  core::Server server(options);
  server.start();
  g_server = &server;
  install_stop_handlers();

  std::cout << "serving on " << options.socket_path << "\n" << std::flush;
  server.run();
  g_server = nullptr;
  const core::ResultCacheStats stats = server.cache().stats();
  std::cout << "server stopped: " << stats.requests << " request(s), " << stats.full_hits
            << " full hit(s), " << stats.extensions << " extension(s), "
            << stats.trials_computed << " trial(s) computed\n";
  return 0;
}

// -------------------------------------------------------------- fabric ----

void fabric_usage() {
  std::cout
      << "usage: avglocal_cli fabric-serve --listen ENDPOINT ...sweep flags...\n"
         "                                 [--unit-trials U] [--straggler-ms MS]\n"
         "                                 [--max-workers W] [--json FILE]\n"
         "                                 [--endpoint-file FILE]\n"
         "       avglocal_cli fabric-worker --connect ENDPOINT [--threads W] [--batch B]\n"
         "                                  [--name NAME] [--connect-timeout-ms MS]\n"
         "  ENDPOINT is unix:PATH (or a bare path) or tcp:HOST:PORT (or HOST:PORT);\n"
         "  tcp port 0 binds an ephemeral port, reported on stdout and via\n"
         "  --endpoint-file. The coordinator decomposes the sweep into (point,\n"
         "  trial-range) units of --unit-trials trials (0 = trials/8) that idle\n"
         "  workers pull; a unit unfinished --straggler-ms after its grant is\n"
         "  re-dispatched, first result per unit wins, duplicates are discarded.\n"
         "  The merged report is byte-identical to `sweep --json` for any worker\n"
         "  count, steal order or mid-run worker death. Fixed schedules only.\n"
         "  SIGTERM/SIGINT drain the fabric: workers exit cleanly, the\n"
         "  coordinator reports `stopped before completion` and exits 1.\n";
}

int run_fabric_serve_command_impl(int argc, char** argv) {
  core::ScenarioSpec spec;
  spec.schedule.max_trials = 100;
  core::FabricOptions fabric;
  std::string listen;
  std::string json_path;
  std::string endpoint_file;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") {
      fabric_usage();
      return 2;
    }
    if (arg == "--listen" && (value = next())) {
      listen = *value;
    } else if (arg == "--unit-trials" && (value = next())) {
      if (!size_flag(*value, "--unit-trials", fabric.unit_trials)) return 2;
    } else if (arg == "--straggler-ms" && (value = next())) {
      if (!u64_flag(*value, "--straggler-ms", fabric.straggler_ms)) return 2;
    } else if (arg == "--max-workers" && (value = next())) {
      if (!size_flag(*value, "--max-workers", fabric.max_workers)) return 2;
    } else if (arg == "--json" && (value = next())) {
      json_path = *value;
    } else if (arg == "--endpoint-file" && (value = next())) {
      endpoint_file = *value;
    } else if (arg == "--algo" && (value = next())) {
      spec.algorithm = *value;
    } else if (arg == "--graph" && (value = next())) {
      spec.family = graph::parse_family_spec(*value);
    } else if (arg == "--ns" && (value = next())) {
      const auto sizes = parse_size_list(*value);
      if (!sizes) {
        flag_error(*value, "--ns");
        return 2;
      }
      spec.ns = *sizes;
    } else if (arg == "--trials" && (value = next())) {
      if (!size_flag(*value, "--trials", spec.schedule.max_trials)) return 2;
    } else if (arg == "--seed" && (value = next())) {
      if (!u64_flag(*value, "--seed", spec.seed)) return 2;
    } else if (arg == "--semantics" && (value = next())) {
      spec.semantics = parse_semantics(*value);
    } else if (arg == "--node-profile") {
      spec.node_profile = true;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      fabric_usage();
      return 2;
    }
  }
  if (listen.empty()) {
    std::cerr << "fabric-serve needs --listen ENDPOINT\n";
    fabric_usage();
    return 2;
  }
  if (fabric.max_workers < 1) {
    std::cerr << "--max-workers must be at least 1\n";
    return 2;
  }
  fabric.endpoint = support::parse_endpoint(listen);

  core::RemoteBackend backend(spec, fabric);
  backend.start();
  g_fabric = &backend;
  install_stop_handlers();

  // The resolved endpoint (TCP port 0 becomes the real port) goes to
  // stdout and, for launcher scripts, to --endpoint-file.
  const std::string endpoint = backend.endpoint().to_string();
  if (!endpoint_file.empty() && !write_text_file(endpoint_file, endpoint)) return 1;
  std::cout << "fabric serving on " << endpoint << "\n" << std::flush;

  const core::RemoteSweepOutcome outcome = backend.run();
  g_fabric = nullptr;
  std::cout << "fabric: " << outcome.stats.workers_seen << " worker(s), "
            << outcome.stats.units_granted << " grant(s), " << outcome.stats.redispatches
            << " re-dispatch(es), " << outcome.stats.duplicates_discarded
            << " duplicate(s) discarded\n";
  if (!outcome.complete) {
    std::cerr << "fabric stopped before completion\n";
    return 1;
  }
  print_points(outcome.result.points, /*adaptive=*/false);
  if (!json_path.empty()) {
    // write_text_file appends the same trailing newline the sweep path
    // does, so the saved file is cmp-identical to `sweep --json`'s.
    if (!write_text_file(json_path, outcome.report)) return 1;
    std::cout << "sweep report written to " << json_path << "\n";
  }
  return 0;
}

int run_fabric_worker_command_impl(int argc, char** argv) {
  core::FabricWorkerOptions options;
  std::string connect;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") {
      fabric_usage();
      return 2;
    }
    if (arg == "--connect" && (value = next())) {
      connect = *value;
    } else if (arg == "--threads" && (value = next())) {
      if (!size_flag(*value, "--threads", options.threads)) return 2;
    } else if (arg == "--batch" && (value = next())) {
      if (!size_flag(*value, "--batch", options.batch)) return 2;
    } else if (arg == "--name" && (value = next())) {
      options.name = *value;
    } else if (arg == "--connect-timeout-ms" && (value = next())) {
      std::uint64_t ms = 0;
      if (!u64_flag(*value, "--connect-timeout-ms", ms)) return 2;
      options.connect_timeout_ms = static_cast<long>(ms);
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      fabric_usage();
      return 2;
    }
  }
  if (connect.empty()) {
    std::cerr << "fabric-worker needs --connect ENDPOINT\n";
    fabric_usage();
    return 2;
  }
  options.endpoint = support::parse_endpoint(connect);

  // Test-only failure injection for the straggler re-dispatch and drive
  // respawn paths (exercised by tests/test_cli_process.cpp and the cli-e2e
  // and fabric-e2e CI jobs): with AVGLOCAL_TEST_FAIL_MARKER set, this
  // worker's first granted unit drops a marker file and dies mid-unit -
  // after the grant, before any artefact - which is exactly the straggler
  // the coordinator must re-dispatch. MODE=kill dies by SIGKILL, anything
  // else by exit 33; MODE=always dies on every grant (the worker is then
  // useless and the others must carry the sweep).
  if (const char* marker = std::getenv("AVGLOCAL_TEST_FAIL_MARKER")) {
    const std::string marker_path = std::string(marker) + ".worker-" + options.name;
    const char* mode_env = std::getenv("AVGLOCAL_TEST_FAIL_MODE");
    const std::string mode = mode_env ? mode_env : "";
    options.on_grant = [marker_path, mode](const core::WorkUnit&) {
      bool fail = mode == "always";
      if (!fail) {
        struct stat info;
        if (::stat(marker_path.c_str(), &info) != 0) {
          std::ofstream(marker_path).put('x');
          fail = true;
        }
      }
      if (!fail) return;
      if (mode == "kill") ::kill(::getpid(), SIGKILL);
      std::_Exit(33);
    };
  }

  const core::FabricWorkerOutcome outcome = core::run_fabric_worker(options);
  std::cout << "worker " << options.name << ": " << outcome.units << " unit(s), "
            << outcome.trials << " trial(s)"
            << (outcome.drained ? " (drained by coordinator)" : "") << "\n";
  return 0;
}

int run_request_command_impl(int argc, char** argv) {
  std::string socket_path;
  std::string op = "sweep";
  std::string json_path;
  std::uint64_t connect_timeout_ms = 5000;
  core::ScenarioSpec spec;
  spec.schedule.max_trials = 100;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") {
      serve_usage();
      return 2;
    }
    if (arg == "--socket" && (value = next())) {
      socket_path = *value;
    } else if (arg == "--connect-timeout-ms" && (value = next())) {
      if (!u64_flag(*value, "--connect-timeout-ms", connect_timeout_ms)) return 2;
    } else if (arg == "--op" && (value = next())) {
      op = *value;
    } else if (arg == "--json" && (value = next())) {
      json_path = *value;
    } else if (arg == "--algo" && (value = next())) {
      spec.algorithm = *value;
    } else if (arg == "--graph" && (value = next())) {
      spec.family = graph::parse_family_spec(*value);
    } else if (arg == "--ns" && (value = next())) {
      const auto sizes = parse_size_list(*value);
      if (!sizes) {
        flag_error(*value, "--ns");
        return 2;
      }
      spec.ns = *sizes;
    } else if (arg == "--trials" && (value = next())) {
      if (!size_flag(*value, "--trials", spec.schedule.max_trials)) return 2;
    } else if (arg == "--seed" && (value = next())) {
      if (!u64_flag(*value, "--seed", spec.seed)) return 2;
    } else if (arg == "--semantics" && (value = next())) {
      spec.semantics = parse_semantics(*value);
    } else if (arg == "--node-profile") {
      spec.node_profile = true;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      serve_usage();
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::cerr << "request needs --socket PATH\n";
    serve_usage();
    return 2;
  }
  if (op != "sweep" && op != "ping" && op != "stats" && op != "shutdown") {
    std::cerr << "unknown op '" << op << "' (sweep|ping|stats|shutdown)\n";
    return 2;
  }

  support::JsonWriter json;
  json.begin_object();
  json.key("op").value(op);
  if (op == "sweep") {
    json.key("scenario");
    core::write_scenario_json(json, spec);
  }
  json.end_object();

  // A request that raced its daemon's startup used to need a caller-side
  // poll loop; connect_with_retry rides out the ENOENT / ECONNREFUSED
  // window with bounded backoff instead, and throws (-> exit 1) only once
  // --connect-timeout-ms has elapsed with nothing listening.
  support::Stream stream = support::Stream::connect_with_retry(
      support::parse_endpoint(socket_path), static_cast<long>(connect_timeout_ms));
  if (!stream.write_line(json.str())) {
    std::cerr << "cannot send request to " << socket_path << "\n";
    return 1;
  }
  std::string line;
  if (!stream.read_line(line)) {
    std::cerr << "daemon closed the connection without a response\n";
    return 1;
  }
  const support::JsonValue response = support::parse_json(line);
  if (!response.at("ok").as_bool()) {
    std::cerr << "error: " << response.at("error").as_string() << "\n";
    return 1;
  }
  if (op != "sweep") {
    std::cout << line << "\n";
    return 0;
  }
  const std::string& report = response.at("report").as_string();
  std::cout << "key " << response.at("key").as_string() << " "
            << (response.at("warm").as_bool() ? "warm (served from cache)" : "computed") << ", "
            << response.at("trials_computed").as_u64() << " trial(s) computed\n";
  if (!json_path.empty()) {
    // write_text_file appends the same trailing newline the sweep path
    // does, so the saved file is cmp-identical to `sweep --json`'s.
    if (!write_text_file(json_path, report)) return 1;
    std::cout << "sweep report written to " << json_path << "\n";
  } else {
    std::cout << report << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------- main ----

/// Sweep plans assemble many moving parts (size lists, graph families,
/// shard artefacts), so configuration errors surface as exceptions from
/// deep inside the library; report them as errors, not aborts.
int run_guarded(int (*command)(int, char**), int argc, char** argv) {
  try {
    return command(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

int run_single_guarded(int argc, char** argv) {
  const auto parsed = parse_run(argc, argv);
  if (!parsed) {
    usage();
    return 2;
  }
  try {
    return run_single_impl(*parsed);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "list") == 0) return run_list_command();
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
    return run_guarded(run_sweep_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0) {
    return run_guarded(run_merge_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "drive") == 0) {
    return run_guarded(run_drive_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return run_guarded(run_serve_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "request") == 0) {
    return run_guarded(run_request_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "fabric-serve") == 0) {
    return run_guarded(run_fabric_serve_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "fabric-worker") == 0) {
    return run_guarded(run_fabric_worker_command_impl, argc, argv);
  }
  return run_single_guarded(argc, argv);
}
