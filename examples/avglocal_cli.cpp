// avglocal_cli: every bundled LOCAL algorithm on every graph family, by
// name, through the scenario registries - single runs, batched/adaptive
// sweeps, sharded sweeps across processes and a local multi-process fabric.
//
// Discover the workload space:
//   avglocal_cli list
//
// Print the reproduction's tables (all of E1..E14 in order, or the listed
// ones), at full scale:
//   avglocal_cli experiments
//   avglocal_cli experiments E1 E2 E9
//
// Single runs (the default subcommand; message algorithms included). A
// single run is trial 0 of `sweep --ns N --trials 1` with the same flags:
// the same graph and the same ids, printed vertex by vertex with --csv:
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
// Or keep the engines resident: `serve` runs a daemon on a socket endpoint
// (unix:PATH, a bare path, or tcp:HOST:PORT) with a content-addressed
// result cache (repeat requests are free, trial extensions compute only
// the missing range), `request` is its client - the saved report is
// byte-identical to a one-shot sweep's:
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

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "algo/registry.hpp"
#include "core/experiments.hpp"
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
#include "support/line_server.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"

extern char** environ;

namespace {

using namespace avglocal;

// --------------------------------------------------------------- flags ----

// Every command parses its argv through one flag table and parse_flags.
// Numeric values are checked strictly: bare std::stoull would throw an
// uncaught exception on garbage and silently wrap "-1" to 2^64-1, so a
// value must be all digits (or a full-string finite double) and fit its
// field, else the flag is named on stderr and the command exits 2 with
// its usage.

/// One command-line flag. `set` stores the value (empty for a switch) and
/// returns false after naming a bad value on stderr.
struct Flag {
  const char* name;
  bool takes_value;
  std::function<bool(const std::string&)> set;
};

using Flags = std::vector<Flag>;

/// Digits only for integer T, rejected past T's maximum; a finite,
/// full-string double for floating-point T.
template <typename T>
std::optional<T> parse_number(const std::string& text) {
  if (text.empty()) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || errno == ERANGE || !std::isfinite(value)) {
      return std::nullopt;
    }
    return static_cast<T>(value);
  } else {
    T value = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') return std::nullopt;
      const auto digit = static_cast<T>(c - '0');
      if (value > (std::numeric_limits<T>::max() - digit) / 10) return std::nullopt;
      value = static_cast<T>(value * 10 + digit);
    }
    return value;
  }
}

bool flag_error(const std::string& text, const char* flag) {
  std::cerr << "invalid value '" << text << "' for " << flag << "\n";
  return false;
}

Flag text_flag(const char* name, std::string& out) {
  return {name, true, [&out](const std::string& value) {
            out = value;
            return true;
          }};
}

Flag switch_flag(const char* name, bool& out) {
  return {name, false, [&out](const std::string&) {
            out = true;
            return true;
          }};
}

template <typename T>
Flag number_flag(const char* name, T& out) {
  return {name, true, [name, &out](const std::string& value) {
            const auto parsed = parse_number<T>(value);
            if (!parsed) return flag_error(value, name);
            out = *parsed;
            return true;
          }};
}

Flag semantics_flag(local::ViewSemantics& out) {
  return {"--semantics", true, [&out](const std::string& value) {
            const auto semantics = local::view_semantics_from_name(value);
            if (!semantics) return flag_error(value, "--semantics (induced|flooding)");
            out = *semantics;
            return true;
          }};
}

/// The workload flags every sweep-shaped command shares: --algo --graph
/// --ns --trials --seed --semantics --node-profile.
Flags workload_flags(core::ScenarioSpec& spec) {
  return {
      text_flag("--algo", spec.algorithm),
      {"--graph", true,
       [&spec](const std::string& value) {
         spec.family = graph::parse_family_spec(value);
         return true;
       }},
      {"--ns", true,
       [&spec](const std::string& value) {
         std::vector<std::size_t> sizes;
         std::stringstream stream(value);
         std::string item;
         while (std::getline(stream, item, ',')) {
           const auto size = parse_number<std::size_t>(item);
           if (!size) return flag_error(value, "--ns");
           sizes.push_back(*size);
         }
         if (sizes.empty()) return flag_error(value, "--ns");
         spec.ns = std::move(sizes);
         return true;
       }},
      number_flag("--trials", spec.schedule.max_trials),
      number_flag("--seed", spec.seed),
      semantics_flag(spec.semantics),
      switch_flag("--node-profile", spec.node_profile),
  };
}

/// Parses argv[first, argc) against `flags`. Arguments that do not start
/// with '-' go to `positional` when it is given. Returns false on --help,
/// an unknown flag, a missing value or a rejected value (all but --help
/// explained on stderr); the caller prints its usage and exits 2.
bool parse_flags(int argc, char** argv, int first, const Flags& flags,
                 std::vector<std::string>* positional = nullptr) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&arg](const Flag& candidate) { return arg == candidate.name; });
    if (flag == flags.end()) {
      if (positional != nullptr && (arg.empty() || arg[0] != '-')) {
        positional->push_back(arg);
        continue;
      }
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
    if (flag->takes_value && i + 1 >= argc) {
      std::cerr << "missing value for " << arg << "\n";
      return false;
    }
    if (!flag->set(flag->takes_value ? std::string(argv[++i]) : std::string())) return false;
  }
  return true;
}

// ------------------------------------------------------------- helpers ----

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  file << text << "\n";
  return true;
}

/// Saves a sweep-shaped report and says where. write_text_file's trailing
/// newline is what keeps every saved report cmp-identical to
/// `sweep --json`'s. Returns the command's exit code.
int save_report(const std::string& path, const std::string& report,
                const char* kind = "sweep") {
  if (!write_text_file(path, report)) return 1;
  std::cout << kind << " report written to " << path << "\n";
  return 0;
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

int run_list_command(int /*argc*/, char** /*argv*/) {
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

// --------------------------------------------------------- experiments ----

/// Prints the listed experiment tables (ids E1..E14; none = all, in
/// E-order) at full scale. Every id is checked before any table runs.
int run_experiments_command(int argc, char** argv) {
  const auto experiments = core::all_experiments();
  std::vector<std::size_t> selected;
  for (int i = 2; i < argc; ++i) {
    const std::string id = argv[i];
    std::size_t index = 0;
    for (; index < experiments.size(); ++index) {
      if (id == std::string("E").append(std::to_string(index + 1))) break;
    }
    if (index == experiments.size()) {
      std::cerr << "unknown experiment id: " << id << " (expected E1..E" << experiments.size()
                << ")\n"
                << "usage: avglocal_cli experiments [ID...]\n";
      return 2;
    }
    selected.push_back(index);
  }
  if (selected.empty()) {
    for (std::size_t index = 0; index < experiments.size(); ++index) selected.push_back(index);
  }
  const core::ExperimentScale scale;  // full scale
  for (const std::size_t index : selected) {
    std::cout << core::render(experiments[index](scale)) << "\n";
  }
  return 0;
}

// ----------------------------------------------------------------- run ----

void usage() {
  std::cout << "usage: avglocal_cli [--algo A] [--graph G] [--n N] [--seed S]\n"
               "                    [--semantics induced|flooding] [--csv FILE]\n"
               "       avglocal_cli list          (enumerate graph families and algorithms)\n"
               "       avglocal_cli experiments [ID...]  (print the tables E1..E14)\n"
               "       avglocal_cli sweep ...     (batched/adaptive/sharded sweeps; --help)\n"
               "       avglocal_cli merge ...     (recombine shard artefacts; --help)\n"
               "       avglocal_cli drive ...     (sweep on a local coordinator + workers; --help)\n"
               "       avglocal_cli serve ...     (resident sweep daemon + result cache; --help)\n"
               "       avglocal_cli request ...   (client for a running daemon; --help)\n"
               "       avglocal_cli fabric-serve ...  (distributed sweep coordinator; --help)\n"
               "       avglocal_cli fabric-worker ... (worker for a coordinator; --help)\n"
               "  names resolve through the scenario registries; `list` prints them.\n";
}

/// One run, vertex by vertex: trial 0 of `sweep --ns N --trials 1` with
/// the same flags - the same resolved graph and the same id stream - so
/// its radii are that sweep's node_mean profile.
int run_single_command(int argc, char** argv) {
  core::ScenarioSpec spec;
  spec.seed = 1;
  std::string graph_name = "cycle";
  std::size_t n = 256;
  std::string csv_path;
  const Flags flags = {text_flag("--algo", spec.algorithm), text_flag("--graph", graph_name),
                       number_flag("--n", n), number_flag("--seed", spec.seed),
                       semantics_flag(spec.semantics), text_flag("--csv", csv_path)};
  if (!parse_flags(argc, argv, 1, flags)) {
    usage();
    return 2;
  }
  spec.family = graph::parse_family_spec(graph_name);
  spec.ns = {n};
  spec.schedule.max_trials = 1;
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  const algo::AlgorithmInfo& info = algo::AlgorithmRegistry::global().at(spec.algorithm);

  n = resolved.spec.ns.front();
  const graph::Graph g = resolved.graphs(n);
  std::vector<graph::IdAssignment> batch;
  core::fill_sweep_batch(batch, n, support::derive_seed(spec.seed, 0), 0, 1);
  const graph::IdAssignment& ids = batch.front();

  local::RunResult run;
  if (info.kind == algo::AlgorithmKind::kView) {
    local::ViewEngineOptions view_options;
    view_options.semantics = spec.semantics;
    run = local::run_views(g, ids, info.view(n), view_options);
  } else {
    local::EngineOptions engine_options;
    engine_options.knowledge = info.knowledge;
    run = local::run_messages(g, ids, info.messages(n), engine_options);
  }
  const std::string validity =
      info.validate ? (info.validate(g, ids, run.outputs) ? "valid" : "INVALID") : "n/a";

  const core::Measurement m = core::measure(run);
  const core::EdgeMeasurement em = core::measure_edges(g, run.radii);
  std::cout << spec.algorithm << " on " << graph_name << " n=" << n << " seed=" << spec.seed
            << " (" << local::to_string(spec.semantics) << ")\n"
            << "  outputs       : " << validity << "\n"
            << "  max radius    : " << m.max_radius << "\n"
            << "  avg radius    : " << m.avg_radius << "\n"
            << "  sum radius    : " << m.sum_radius << "\n"
            << "  gap max/avg   : " << core::measure_gap(m) << "\n"
            << "  edge avg time : " << em.avg_time << " over " << em.edges << " edges\n";
  if (run.messages > 0) {
    std::cout << "  messages/words: " << run.messages << " / " << run.words << "\n";
  }

  if (!csv_path.empty()) {
    std::ofstream file(csv_path);
    if (!file) {
      std::cerr << "cannot open " << csv_path << "\n";
      return 1;
    }
    support::CsvWriter csv(file);
    csv.write_row({"vertex", "id", "radius", "output"});
    for (std::size_t v = 0; v < n; ++v) {
      csv.write_row({std::to_string(v),
                     std::to_string(ids.id_of(static_cast<graph::Vertex>(v))),
                     std::to_string(run.radii[v]), std::to_string(run.outputs[v])});
    }
    std::cout << "  per-vertex CSV written to " << csv_path << "\n";
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
  std::string json_path;  ///< full-report destination (sweep / drive)

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

/// The flags sweep and drive share: the workload, the schedule, the
/// execution knobs and --json.
Flags sweep_flags(SweepCliOptions& options) {
  Flags flags = workload_flags(options.spec);
  core::TrialSchedule& schedule = options.spec.schedule;
  flags.insert(flags.end(), {number_flag("--threads", options.threads),
                             number_flag("--batch", options.batch),
                             number_flag("--target-hw", schedule.target_half_width),
                             number_flag("--min-trials", schedule.min_trials),
                             number_flag("--adaptive-batch", schedule.batch),
                             number_flag("--z", schedule.z),
                             text_flag("--json", options.json_path)});
  return flags;
}

int run_sweep_command(int argc, char** argv) {
  SweepCliOptions options;
  Flags flags = sweep_flags(options);
  flags.push_back({"--shard", true, [&options](const std::string& value) {
                     const auto slash = value.find('/');
                     const auto index = parse_number<std::size_t>(value.substr(0, slash));
                     const auto count = slash == std::string::npos
                                            ? std::nullopt
                                            : parse_number<std::size_t>(value.substr(slash + 1));
                     if (!index || count.value_or(0) == 0) {
                       return flag_error(value, "--shard (expects I/K, K >= 1)");
                     }
                     options.shard = {{*index, *count}};
                     return true;
                   }});
  flags.push_back(text_flag("--out", options.out_path));
  if (!parse_flags(argc, argv, 2, flags)) {
    sweep_usage();
    return 2;
  }
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
    const auto plan =
        core::plan_shards(resolved.spec.ns.size(), resolved.spec.schedule.max_trials, count);
    if (index >= plan.size()) {
      std::cerr << "shard " << index << " is empty: only " << plan.size()
                << " non-empty shards in this plan\n";
      return 2;
    }
    core::ShardDocument doc;
    doc.meta = resolved.spec;
    doc.shard = plan[index];
    doc.points = core::run_scenario_shard(
        resolved, core::ScenarioExecution{options.threads, options.batch, nullptr}, doc.shard);
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
  return options.json_path.empty()
             ? 0
             : save_report(options.json_path, core::sweep_report_json(result.spec, result.points));
}

// --------------------------------------------------------------- merge ----

/// Recombines shard artefacts into the report of the scenario their
/// headers name; merge_shards checks every partial against it first.
int run_merge_command(int argc, char** argv) {
  std::string json_path;
  std::vector<std::string> artefacts;
  if (!parse_flags(argc, argv, 2, {text_flag("--json", json_path)}, &artefacts)) {
    sweep_usage();
    return 2;
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
  const core::ScenarioResult merged = core::merge_shards(std::move(docs));
  const core::ScenarioSpec& spec = merged.spec;
  std::cout << "merged " << artefacts.size() << " shard(s): " << spec.algorithm << " on "
            << graph::family_spec_to_string(spec.family) << ", seed " << spec.seed << ", "
            << spec.schedule.max_trials << " trials\n";
  print_points(merged.points, /*adaptive=*/false);
  return json_path.empty()
             ? 0
             : save_report(json_path, core::sweep_report_json(spec, merged.points), "merged");
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
int run_drive_command(int argc, char** argv) {
  SweepCliOptions options;
  Flags flags = sweep_flags(options);
  flags.insert(flags.end(), {number_flag("--shards", options.shards),
                             number_flag("--jobs", options.jobs),
                             number_flag("--retries", options.retries),
                             text_flag("--workdir", options.workdir)});
  if (!parse_flags(argc, argv, 2, flags)) {
    sweep_usage();
    return 2;
  }
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
  for (std::size_t i = 0; i < jobs; ++i) {
    // Not "w" + std::to_string(i): g++ 12 flags that with a false -Wrestrict.
    workers[i].name = std::string("w").append(std::to_string(i));
  }
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
  return options.json_path.empty() ? 0 : save_report(options.json_path, outcome.report);
}

// ------------------------------------------------------- serve / request ----

void serve_usage() {
  std::cout
      << "usage: avglocal_cli serve --socket ENDPOINT [--threads W] [--batch B]\n"
         "                          [--max-clients C]\n"
         "       avglocal_cli request --socket ENDPOINT [--op sweep|ping|stats|shutdown]\n"
         "                            [--connect-timeout-ms MS] ...sweep flags... [--json FILE]\n"
         "  ENDPOINT is unix:PATH (or a bare path) or tcp:HOST:PORT; serve prints the\n"
         "  endpoint it bound, with tcp port 0 resolved to the ephemeral port.\n"
         "  serve keeps sweep engines resident behind that socket with a\n"
         "  content-addressed result cache: a repeated request is served from cache\n"
         "  with zero recomputation, a request for more trials of a cached workload\n"
         "  computes only the missing trial range, and every report is byte-identical\n"
         "  to a one-shot `sweep --json` run. Fixed trial schedules only (--target-hw\n"
         "  requests are rejected). SIGTERM/SIGINT shut the daemon down cleanly.\n"
         "  request sends one op and prints the response; for sweeps, --json FILE\n"
         "  saves the returned report (cmp-identical to the monolithic file).\n";
}

int run_serve_command(int argc, char** argv) {
  core::ServeOptions options;
  const Flags flags = {text_flag("--socket", options.socket_path),
                       number_flag("--threads", options.threads),
                       number_flag("--batch", options.batch_size),
                       number_flag("--max-clients", options.max_clients)};
  if (!parse_flags(argc, argv, 2, flags)) {
    serve_usage();
    return 2;
  }
  if (options.socket_path.empty()) {
    std::cerr << "serve needs --socket ENDPOINT\n";
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

  std::cout << "serving on " << server.endpoint().to_string() << "\n" << std::flush;
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

int run_fabric_serve_command(int argc, char** argv) {
  core::ScenarioSpec spec;
  core::FabricOptions fabric;
  std::string listen;
  std::string json_path;
  std::string endpoint_file;
  Flags flags = workload_flags(spec);
  flags.insert(flags.end(), {text_flag("--listen", listen),
                             number_flag("--unit-trials", fabric.unit_trials),
                             number_flag("--straggler-ms", fabric.straggler_ms),
                             number_flag("--max-workers", fabric.max_workers),
                             text_flag("--json", json_path),
                             text_flag("--endpoint-file", endpoint_file)});
  if (!parse_flags(argc, argv, 2, flags)) {
    fabric_usage();
    return 2;
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
  return json_path.empty() ? 0 : save_report(json_path, outcome.report);
}

int run_fabric_worker_command(int argc, char** argv) {
  core::FabricWorkerOptions options;
  std::string connect;
  const Flags flags = {text_flag("--connect", connect), number_flag("--threads", options.threads),
                       number_flag("--batch", options.batch), text_flag("--name", options.name),
                       number_flag("--connect-timeout-ms", options.connect_timeout_ms)};
  if (!parse_flags(argc, argv, 2, flags)) {
    fabric_usage();
    return 2;
  }
  if (connect.empty()) {
    std::cerr << "fabric-worker needs --connect ENDPOINT\n";
    fabric_usage();
    return 2;
  }
  options.endpoint = support::parse_endpoint(connect);

  // Test-only failure injection for the straggler re-dispatch and drive
  // respawn paths (exercised by tests/test_cli_process.cpp and
  // tools/front_doors.sh): with AVGLOCAL_TEST_FAIL_MARKER set, this
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

int run_request_command(int argc, char** argv) {
  std::string socket_path;
  std::string op = "sweep";
  std::string json_path;
  long connect_timeout_ms = 5000;
  core::ScenarioSpec spec;
  Flags flags = workload_flags(spec);
  flags.insert(flags.end(), {text_flag("--socket", socket_path),
                             number_flag("--connect-timeout-ms", connect_timeout_ms),
                             text_flag("--op", op), text_flag("--json", json_path)});
  if (!parse_flags(argc, argv, 2, flags)) {
    serve_usage();
    return 2;
  }
  if (socket_path.empty()) {
    std::cerr << "request needs --socket ENDPOINT\n";
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
  support::Stream stream =
      support::Stream::connect_with_retry(support::parse_endpoint(socket_path), connect_timeout_ms);
  if (!stream.write_line(json.str())) {
    std::cerr << "cannot send request to " << socket_path << "\n";
    return 1;
  }
  std::string line;
  if (!stream.read_line(line)) {
    std::cerr << "daemon closed the connection without a response\n";
    return 1;
  }
  // A rejected request throws its error text: run_guarded prints it, exit 1.
  const support::JsonValue response = support::parse_reply(line);
  if (op != "sweep") {
    std::cout << line << "\n";
    return 0;
  }
  const std::string& report = response.at("report").as_string();
  std::cout << "key " << response.at("key").as_string() << " "
            << (response.at("warm").as_bool() ? "warm (served from cache)" : "computed") << ", "
            << response.at("trials_computed").as_u64() << " trial(s) computed\n";
  if (!json_path.empty()) return save_report(json_path, report);
  std::cout << report << "\n";
  return 0;
}

// ---------------------------------------------------------------- main ----

struct Command {
  const char* name;
  int (*run)(int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"list", run_list_command},
    {"experiments", run_experiments_command},
    {"sweep", run_sweep_command},
    {"merge", run_merge_command},
    {"drive", run_drive_command},
    {"serve", run_serve_command},
    {"request", run_request_command},
    {"fabric-serve", run_fabric_serve_command},
    {"fabric-worker", run_fabric_worker_command},
};

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

}  // namespace

int main(int argc, char** argv) {
  int (*command)(int, char**) = run_single_command;
  for (const Command& candidate : kCommands) {
    if (argc > 1 && std::strcmp(argv[1], candidate.name) == 0) command = candidate.run;
  }
  return run_guarded(command, argc, argv);
}
