// Process-level CLI contracts, driven through the real avglocal_cli
// binary (path injected as AVGLOCAL_CLI_BIN):
//
//  * malformed numeric flags exit 2 and name the offending flag - the
//    bare-stoull era threw an uncaught exception on garbage and silently
//    wrapped "-1" to 2^64-1;
//  * `experiments` prints the listed tables; an unknown id exits 2 and
//    names the id;
//  * sizes beyond the 32-bit vertex range fail with a non-zero exit and
//    write no report (they used to wrap to tiny graphs);
//  * drive survives worker failure: a fabric-worker child that exits
//    nonzero or dies by signal on its first grant is respawned, and the
//    report is byte-identical to the monolithic sweep's;
//  * exhausted respawns fail the drive cleanly (exit 1, "giving up", no
//    report), never a hang or an abort.
//  * `merge` on a shard file nested past the JSON depth cap exits 1 with
//    the parser's message instead of overflowing the stack; an artefact
//    whose points disagree with its scenario header, or that has no
//    header, exits 1 and writes no report;
//  * every command rejects an unknown flag, a missing value, --help and a
//    bad value the same way: exit 2 and its usage;
//  * a single run is trial 0 of the one-trial sweep with the same flags,
//    vertex by vertex, for every registered algorithm.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "core/shard.hpp"
#include "support/json_reader.hpp"

namespace {

using namespace avglocal;

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr, interleaved
};

RunResult run_command(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, pipe)) > 0) {
    result.output.append(chunk, got);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string cli() { return AVGLOCAL_CLI_BIN; }

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// A scratch directory per test; paths stay under /tmp and are removed
/// best-effort (content first, via the shell, then the directory).
class ScratchDir {
 public:
  ScratchDir() {
    char dir_template[] = "/tmp/avglocal-cli-test-XXXXXX";
    if (::mkdtemp(dir_template) != nullptr) path_ = dir_template;
  }
  ~ScratchDir() {
    if (!path_.empty()) (void)run_command("rm -rf '" + path_ + "'");
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------- numeric flag parsing ----

struct BadFlagCase {
  const char* args;
  const char* flag;
  const char* value;
};

TEST(CliFlagParsing, MalformedNumericFlagsExitTwoAndNameTheFlag) {
  const BadFlagCase cases[] = {
      {"sweep --trials banana --ns 64", "--trials", "banana"},
      {"sweep --seed -1 --ns 64", "--seed", "-1"},
      {"sweep --ns 64,abc", "--ns", "64,abc"},
      {"sweep --threads 1.5 --ns 64", "--threads", "1.5"},
      {"sweep --batch 0x10 --ns 64", "--batch", "0x10"},
      {"sweep --min-trials -3 --ns 64", "--min-trials", "-3"},
      {"sweep --adaptive-batch ten --ns 64", "--adaptive-batch", "ten"},
      {"sweep --target-hw wide --ns 64", "--target-hw", "wide"},
      {"sweep --z z --ns 64", "--z", "z"},
      {"sweep --shard one/2 --out /dev/null --ns 64", "--shard", "one/2"},
      {"sweep --shard 0/0 --out /dev/null --ns 64", "--shard", "0/0"},
      {"sweep --semantics bogus --ns 64", "--semantics", "bogus"},
      {"--semantics bogus", "--semantics", "bogus"},
      {"--n 12x", "--n", "12x"},
      {"--seed 99999999999999999999", "--seed", "99999999999999999999"},
      {"drive --shards -2 --ns 64", "--shards", "-2"},
      {"drive --jobs many --ns 64", "--jobs", "many"},
      {"drive --retries 1e3 --ns 64", "--retries", "1e3"},
      {"serve --socket /tmp/x.sock --max-clients none", "--max-clients", "none"},
      {"request --socket /tmp/x.sock --trials '' ", "--trials", ""},
      {"request --socket /tmp/x.sock --semantics bogus", "--semantics", "bogus"},
      {"fabric-serve --listen unix:/tmp/x.sock --semantics bogus --ns 64", "--semantics", "bogus"},
      {"fabric-serve --listen unix:/tmp/x.sock --straggler-ms soon --ns 64", "--straggler-ms",
       "soon"},
      {"fabric-serve --listen unix:/tmp/x.sock --unit-trials -4 --ns 64", "--unit-trials", "-4"},
      {"fabric-worker --connect unix:/tmp/x.sock --connect-timeout-ms never",
       "--connect-timeout-ms", "never"},
      {"fabric-worker --connect unix:/tmp/x.sock --connect-timeout-ms 9223372036854775808",
       "--connect-timeout-ms", "9223372036854775808"},
      {"request --socket /tmp/x.sock --op ping --connect-timeout-ms 18446744073709551615",
       "--connect-timeout-ms", "18446744073709551615"},
  };
  for (const BadFlagCase& c : cases) {
    const RunResult result = run_command(cli() + " " + c.args);
    EXPECT_EQ(result.exit_code, 2) << c.args << "\n" << result.output;
    const std::string expected =
        "invalid value '" + std::string(c.value) + "' for " + c.flag;
    EXPECT_NE(result.output.find(expected), std::string::npos)
        << c.args << "\nexpected: " << expected << "\ngot:\n"
        << result.output;
  }
}

TEST(CliFlagParsing, EveryCommandFailsTheSameWay) {
  struct CommandCase {
    const char* command;     ///< the command and its required flags
    const char* value_flag;  ///< a flag that takes a value
    const char* bad_value;   ///< a rejected command-specific value, or null
  };
  const CommandCase commands[] = {
      {"", "--seed", "--n x"},
      {"sweep --ns 64", "--json", "--threads x"},
      {"merge", "--json", nullptr},  // merge has no value to reject
      {"drive --ns 64", "--workdir", "--shards x"},
      {"serve --socket /tmp/x.sock", "--socket", "--threads x"},
      {"request --socket /tmp/x.sock", "--op", "--connect-timeout-ms x"},
      {"fabric-serve --listen unix:/tmp/x.sock --ns 64", "--listen", "--max-workers x"},
      {"fabric-worker --connect unix:/tmp/x.sock", "--name", "--threads x"},
  };
  for (const CommandCase& c : commands) {
    std::vector<std::string> failures = {"--bogus", c.value_flag, "--help"};
    if (c.bad_value != nullptr) failures.emplace_back(c.bad_value);
    for (const std::string& failure : failures) {
      const std::string args = std::string(c.command) + " " + failure;
      const RunResult result = run_command(cli() + " " + args);
      EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
      EXPECT_NE(result.output.find("usage: avglocal_cli"), std::string::npos)
          << args << "\n" << result.output;
    }
  }
}

TEST(CliFlagParsing, WellFormedNumericFlagsStillWork) {
  const RunResult result =
      run_command(cli() + " sweep --algo largest-id --graph cycle --ns 64 --trials 4 --seed 1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(CliExperiments, PrintsTheListedTablesAndRejectsUnknownIds) {
  const RunResult e9 = run_command(cli() + " experiments E9");
  EXPECT_EQ(e9.exit_code, 0) << e9.output;
  EXPECT_EQ(e9.output.rfind("# [E9] Engine cross-validation\n", 0), 0u) << e9.output;
  EXPECT_EQ(e9.output.find(" NO "), std::string::npos) << e9.output;

  const RunResult unknown = run_command(cli() + " experiments E9 E15");
  EXPECT_EQ(unknown.exit_code, 2) << unknown.output;
  EXPECT_NE(unknown.output.find("unknown experiment id: E15"), std::string::npos)
      << unknown.output;
  EXPECT_EQ(unknown.output.find("# [E9]"), std::string::npos) << "ids are checked first";
}

TEST(CliSizeLimits, SizesBeyondTheVertexRangeFailWithoutAReport) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string report = dir.path() + "/report.json";
  for (const char* graph : {"torus", "grid", "random-regular", "cycle"}) {
    const RunResult result =
        run_command(cli() + " sweep --algo greedy --graph " + graph +
                    " --ns 18446744073709551615 --trials 2 --json '" + report + "'");
    EXPECT_NE(result.exit_code, 0) << graph << "\n" << result.output;
    EXPECT_NE(result.output.find("exceeds the vertex limit 4294967295"), std::string::npos)
        << graph << "\n" << result.output;
    std::ifstream missing(report);
    EXPECT_FALSE(missing.good()) << graph << ": no report may be written";
  }
}

TEST(CliMerge, DeeplyNestedShardFileExitsOneInsteadOfCrashing) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string deep = dir.path() + "/deep.json";
  {
    std::ofstream file(deep);
    file << std::string(200'000, '[') << std::string(200'000, ']');
  }
  const std::string report = dir.path() + "/merged.json";
  const RunResult result = run_command(cli() + " merge --json '" + report + "' '" + deep + "'");
  // A stack overflow would surface as the shell's 128 + SIGSEGV = 139.
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("json: nesting deeper than 64 levels"), std::string::npos)
      << result.output;
  std::ifstream missing(report);
  EXPECT_FALSE(missing.good()) << "no report may be written";
}

TEST(CliMerge, ArtefactsThatDisagreeWithTheirScenarioExitOneWithoutAReport) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto shard_of = [&dir](const char* n) {
    const std::string path = dir.path() + "/n" + n + ".json";
    const RunResult produced =
        run_command(cli() + " sweep --algo largest-id --graph cycle --ns " + n +
                    " --trials 4 --seed 5 --shard 0/1 --out '" + path + "'");
    EXPECT_EQ(produced.exit_code, 0) << produced.output;
    return core::parse_shard_json(read_file(path));
  };
  const core::ShardDocument n12 = shard_of("12");
  const core::ShardDocument n16 = shard_of("16");

  // The n=16 points under the n=12 header.
  core::ShardDocument resized = n12;
  resized.points = n16.points;
  // A point_index 7 appended to a one-point artefact.
  core::ShardDocument extra = n12;
  extra.points.push_back(extra.points.front());
  extra.points.back().point_index = 7;
  // No scenario header at all.
  std::string headerless = core::shard_to_json(n12);
  const std::size_t begin = headerless.find("\"scenario\":");
  const std::size_t end = headerless.find("\"shard\":");
  ASSERT_TRUE(begin != std::string::npos && end != std::string::npos && begin < end);
  headerless.erase(begin, end - begin);

  struct Case {
    const char* name;
    std::string text;
    const char* error;
  };
  const Case cases[] = {
      {"resized", core::shard_to_json(resized), "do not match its scenario at point 0"},
      {"extra", core::shard_to_json(extra), "do not match its rectangle"},
      {"headerless", headerless, "missing key 'scenario'"},
  };
  for (const auto& [name, text, error] : cases) {
    const std::string artefact = dir.path() + "/" + name + ".json";
    std::ofstream(artefact) << text << "\n";
    const std::string report = dir.path() + "/" + name + "-merged.json";
    const RunResult result =
        run_command(cli() + " merge --json '" + report + "' '" + artefact + "'");
    EXPECT_EQ(result.exit_code, 1) << name << "\n" << result.output;
    EXPECT_NE(result.output.find(error), std::string::npos) << name << "\n" << result.output;
    std::ifstream missing(report);
    EXPECT_FALSE(missing.good()) << name << ": no report may be written";
  }
}

// ------------------------------------------------------------ single run ----

/// The radius column of a single run's `vertex,id,radius,output` CSV.
std::vector<double> csv_radii(const std::string& text) {
  std::vector<double> radii;
  std::stringstream lines(text);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    std::stringstream cells(line);
    std::string cell;
    for (int column = 0; column < 3; ++column) std::getline(cells, cell, ',');
    radii.push_back(std::stod(cell));
  }
  return radii;
}

TEST(CliSingleRun, IsTrialZeroOfTheSweep) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const algo::AlgorithmRegistry& registry = algo::AlgorithmRegistry::global();
  for (const auto kind : {algo::AlgorithmKind::kView, algo::AlgorithmKind::kMessage}) {
    for (const std::string& algorithm : registry.names(kind)) {
      const std::string graph =
          algorithm.rfind("greedy", 0) == 0 ? "gnp:avg-degree=6" : "cycle";
      const std::string flags = " --algo " + algorithm + " --graph " + graph + " --seed 3";
      const std::string csv = dir.path() + "/" + algorithm + ".csv";
      const std::string json = dir.path() + "/" + algorithm + ".json";
      const RunResult single = run_command(cli() + flags + " --n 64 --csv '" + csv + "'");
      ASSERT_EQ(single.exit_code, 0) << algorithm << "\n" << single.output;
      const RunResult sweep = run_command(cli() + " sweep" + flags +
                                          " --ns 64 --trials 1 --node-profile --json '" + json +
                                          "'");
      ASSERT_EQ(sweep.exit_code, 0) << algorithm << "\n" << sweep.output;

      const std::vector<double> radii = csv_radii(read_file(csv));
      const support::JsonValue report = support::parse_json(read_file(json));
      const support::JsonValue& node_mean = report.at("points")[0].at("node_mean");
      ASSERT_EQ(radii.size(), node_mean.size()) << algorithm;
      for (std::size_t v = 0; v < radii.size(); ++v) {
        EXPECT_EQ(radii[v], node_mean[v].as_double()) << algorithm << " vertex " << v;
      }
    }
  }
}

// ---------------------------------------------------- drive respawn path ----

std::string drive_flags(const ScratchDir& dir, const std::string& report) {
  return " drive --algo largest-id --graph cycle --ns 64,128 --trials 10 --seed 3"
         " --shards 2 --jobs 2 --workdir '" +
         dir.path() + "/work' --json '" + report + "'";
}

std::string monolithic_reference(const ScratchDir& dir) {
  const std::string path = dir.path() + "/mono.json";
  const RunResult result = run_command(
      cli() + " sweep --algo largest-id --graph cycle --ns 64,128 --trials 10 --seed 3 --json '" +
      path + "'");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  return read_file(path);
}

TEST(CliDrive, RetriesShardThatExitsNonzeroAndMergesIdentically) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string reference = monolithic_reference(dir);

  const std::string report = dir.path() + "/drive.json";
  const RunResult result = run_command("AVGLOCAL_TEST_FAIL_MARKER='" + dir.path() + "/marker'" + " " +
                                       cli() + drive_flags(dir, report));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("retrying"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("2 attempts"), std::string::npos) << result.output;
  EXPECT_EQ(read_file(report), reference);
}

TEST(CliDrive, RetriesShardKilledBySignalAndMergesIdentically) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string reference = monolithic_reference(dir);

  const std::string report = dir.path() + "/drive.json";
  const RunResult result =
      run_command("AVGLOCAL_TEST_FAIL_MARKER='" + dir.path() + "/marker'" + " " +
                  " AVGLOCAL_TEST_FAIL_MODE=kill " + cli() + drive_flags(dir, report));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("retrying"), std::string::npos) << result.output;
  EXPECT_EQ(read_file(report), reference);
}

TEST(CliDrive, GivesUpCleanlyWhenRetriesAreExhausted) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string report = dir.path() + "/drive.json";
  const RunResult result =
      run_command("AVGLOCAL_TEST_FAIL_MARKER='" + dir.path() + "/marker'" + " " +
                  " AVGLOCAL_TEST_FAIL_MODE=always " + cli() + drive_flags(dir, report) +
                  " --retries 1");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("giving up"), std::string::npos) << result.output;
  // No report file: the drive gave up before the sweep completed.
  std::ifstream missing(report);
  EXPECT_FALSE(missing.good());
}

// ------------------------------------------------------- fabric processes ----

/// The monolithic reference report for the fabric tests' shared workload.
std::string fabric_reference(const ScratchDir& dir) {
  const std::string path = dir.path() + "/mono.json";
  const RunResult result = run_command(
      cli() + " sweep --algo largest-id --graph cycle --ns 64,128 --trials 40 --seed 5 --json '" +
      path + "'");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  return read_file(path);
}

/// Writes a shell script into the scratch dir and runs it (quoting-proof
/// for the multi-process orchestration the fabric tests need). The
/// script sees CLI, DIR and SOCK pre-set.
RunResult run_script(const ScratchDir& dir, const std::string& body) {
  const std::string path = dir.path() + "/script.sh";
  std::ofstream file(path);
  file << "CLI='" << cli() << "'\nDIR='" << dir.path() << "'\nSOCK=\"unix:$DIR/fab.sock\"\n"
       << body;
  file.close();
  return run_command("sh '" + path + "'");
}

/// fabric-serve with the shared workload (backgrounded as $serve).
const char* const kServeLine =
    "$CLI fabric-serve --listen \"$SOCK\" --algo largest-id --graph cycle --ns 64,128"
    " --trials 40 --seed 5 --unit-trials 4 --json \"$DIR/fabric.json\""
    " > \"$DIR/serve.log\" 2>&1 &\nserve=$!\n";

std::string worker_line(const std::string& name) {
  return "$CLI fabric-worker --connect \"$SOCK\" --name " + name + " --threads 1 > \"$DIR/" +
         name + ".log\" 2>&1";
}

TEST(CliFabric, ThreeWorkersMatchTheMonolithicSweepByteForByte) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string reference = fabric_reference(dir);

  // No sleeps anywhere: the workers' connect retries ride out the
  // coordinator's bind window.
  const RunResult result = run_script(dir, std::string(kServeLine) + worker_line("w1") + " &\n" +
                                               worker_line("w2") + " &\n" + worker_line("w3") +
                                               " &\nwait $serve");
  EXPECT_EQ(result.exit_code, 0) << result.output << read_file(dir.path() + "/serve.log");
  EXPECT_EQ(read_file(dir.path() + "/fabric.json"), reference);
  // How many of the three connected before the sweep ran out of units is
  // timing (a fast pair can drain it first); at least one must have.
  const std::string serve_log = read_file(dir.path() + "/serve.log");
  EXPECT_EQ(serve_log.find(" 0 worker(s)"), std::string::npos) << serve_log;
}

TEST(CliFabric, WorkerKilledMidUnitIsRedispatchedAndMergesIdentically) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string reference = fabric_reference(dir);

  // The casualty worker starts alone, so it certainly receives a grant;
  // its injected SIGKILL fires mid-unit (after the grant, before any
  // artefact). The healthy worker only starts once the marker file proves
  // the casualty was granted - from there the coordinator must release
  // the orphaned unit and re-dispatch it.
  const RunResult result = run_script(
      dir, std::string(kServeLine) +
               "AVGLOCAL_TEST_FAIL_MARKER=\"$DIR/marker\" AVGLOCAL_TEST_FAIL_MODE=kill " +
               worker_line("w1") + " &\n" +
               "until [ -e \"$DIR/marker.worker-w1\" ]; do sleep 0.05; done\n" +
               worker_line("w2") + " &\nwait $serve");
  EXPECT_EQ(result.exit_code, 0) << result.output << read_file(dir.path() + "/serve.log");
  EXPECT_EQ(read_file(dir.path() + "/fabric.json"), reference);

  const std::string serve_log = read_file(dir.path() + "/serve.log");
  EXPECT_EQ(serve_log.find(" 0 re-dispatch(es)"), std::string::npos) << serve_log;
  EXPECT_NE(serve_log.find("re-dispatch(es)"), std::string::npos) << serve_log;
}

TEST(CliFabric, SigtermDrainsCoordinatorAndWorkerCleanly) {
  ScratchDir dir;
  ASSERT_FALSE(dir.path().empty());

  // A sweep far too large to finish: the coordinator dies by SIGTERM with
  // units still pending, the worker sees the half-closed connection as an
  // orderly drain (exit 0), never a crash.
  const RunResult result = run_script(
      dir,
      "$CLI fabric-serve --listen \"$SOCK\" --algo largest-id --graph cycle --ns 4096"
      " --trials 100000 --unit-trials 20 > \"$DIR/serve.log\" 2>&1 &\nserve=$!\n" +
          worker_line("w1") + " &\nworker=$!\n" +
          "sleep 1\nkill -TERM $serve\n"
          "wait $serve; serve_status=$?\n"
          "wait $worker; worker_status=$?\n"
          "echo serve_status=$serve_status worker_status=$worker_status\n");
  EXPECT_NE(result.output.find("serve_status=1"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("worker_status=0"), std::string::npos) << result.output;
  const std::string serve_log = read_file(dir.path() + "/serve.log");
  EXPECT_NE(serve_log.find("stopped before completion"), std::string::npos) << serve_log;
  const std::string worker_log = read_file(dir.path() + "/w1.log");
  EXPECT_NE(worker_log.find("drained by coordinator"), std::string::npos) << worker_log;
}

}  // namespace
