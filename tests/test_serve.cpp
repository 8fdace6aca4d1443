// The sweep-as-a-service contract: core::ResultCache serves repeated
// requests from cache with zero sweep recomputation (trial-counter- and
// allocation-asserted), extends cached exact-integer partials with only
// the missing trial range bit-identically to a monolithic run, and
// core::Server speaks the newline-delimited JSON protocol over a real
// Unix-domain socket - including concurrent clients and clean shutdown -
// and over an ephemeral TCP port.
//
// This binary installs the allocation-counting global operator new/delete
// (to pin "warm means no sweep work"), so it stays its own executable.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/result_cache.hpp"
#include "core/scenario.hpp"
#include "core/serve.hpp"
#include "kit/bad_request_lines.hpp"
#include "support/alloc_hook.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "support/line_server.hpp"
#include "support/socket.hpp"

AVGLOCAL_DEFINE_ALLOC_HOOK();

namespace {

using namespace avglocal;

core::ScenarioSpec base_spec(std::size_t trials) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id";
  spec.ns = {128, 256};
  spec.seed = 9;
  spec.schedule.max_trials = trials;
  return spec;
}

/// The reference bytes: a monolithic run_scenario + sweep_report_json of
/// the same spec - what `avglocal_cli sweep --json` writes.
std::string monolithic_report(const core::ScenarioSpec& spec) {
  const core::ScenarioResult result = core::run_scenario(spec);
  return core::sweep_report_json(result.spec, result.points);
}

// ----------------------------------------------------------- cache key ----

TEST(ScenarioCacheKey, ScheduleDoesNotChangeIdentity) {
  core::ScenarioSpec a = base_spec(10);
  core::ScenarioSpec b = base_spec(500);
  b.schedule.min_trials = 4;
  b.schedule.batch = 32;
  b.schedule.z = 2.5;
  const core::ScenarioSpec ra = core::resolve_scenario(a).spec;
  const core::ScenarioSpec rb = core::resolve_scenario(b).spec;
  EXPECT_EQ(core::scenario_identity_json(ra), core::scenario_identity_json(rb));
  EXPECT_EQ(core::scenario_cache_key(ra), core::scenario_cache_key(rb));
}

TEST(ScenarioCacheKey, WorkloadFieldsChangeIdentity) {
  const core::ScenarioSpec base = core::resolve_scenario(base_spec(10)).spec;
  const std::string key = core::scenario_cache_key(base);
  EXPECT_EQ(key.size(), 16u);
  EXPECT_EQ(key.find_first_not_of("0123456789abcdef"), std::string::npos);

  core::ScenarioSpec seed = base;
  seed.seed = 10;
  EXPECT_NE(core::scenario_cache_key(seed), key);

  core::ScenarioSpec sizes = base;
  sizes.ns = {128};
  EXPECT_NE(core::scenario_cache_key(sizes), key);

  core::ScenarioSpec algo = base_spec(10);
  algo.algorithm = "greedy";
  EXPECT_NE(core::scenario_cache_key(core::resolve_scenario(algo).spec), key);
}

TEST(ScenarioCacheKey, IdentityJsonOmitsOnlySchedule) {
  const core::ScenarioSpec spec = core::resolve_scenario(base_spec(10)).spec;
  const std::string identity = core::scenario_identity_json(spec);
  EXPECT_EQ(identity.find("\"schedule\""), std::string::npos);
  EXPECT_NE(identity.find("\"family\""), std::string::npos);
  EXPECT_NE(identity.find("\"seed\""), std::string::npos);
  // The canonical (with-schedule) block is the identity block plus the
  // schedule member; both parse, and the full block still has it.
  EXPECT_NE(core::scenario_to_json(spec).find("\"schedule\""), std::string::npos);
}

// ---------------------------------------------------------- ResultCache ----

TEST(ResultCache, ColdThenWarmIsByteIdenticalWithZeroRecomputation) {
  const core::ScenarioSpec spec = base_spec(64);
  const std::string reference = monolithic_report(spec);

  core::ResultCache cache(core::ResultCacheOptions{2, 0});
  const auto before_cold = support::alloc_counts();
  const core::ResultCacheOutcome cold = cache.sweep(spec);
  const auto after_cold = support::alloc_counts();
  EXPECT_FALSE(cold.warm);
  EXPECT_EQ(cold.trials_computed, 64u * spec.ns.size());
  EXPECT_EQ(cold.report, reference);

  const auto before_warm = support::alloc_counts();
  const core::ResultCacheOutcome warm = cache.sweep(spec);
  const auto after_warm = support::alloc_counts();
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.trials_computed, 0u);  // the trial counter: zero sweep work
  EXPECT_EQ(warm.report, reference);

  // The allocation counter seconds the trial counter: a warm hit is a
  // resolve + memo lookup + string copy, nowhere near the cold run's
  // graph/engine/trial allocations.
  const std::size_t cold_allocs = after_cold.allocations - before_cold.allocations;
  const std::size_t warm_allocs = after_warm.allocations - before_warm.allocations;
  EXPECT_LT(warm_allocs * 5, cold_allocs);

  const core::ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.full_hits, 1u);
  EXPECT_EQ(stats.extensions, 0u);
  EXPECT_EQ(stats.trials_computed, 64u * spec.ns.size());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, ExtensionMatchesMonolithicBitForBit) {
  core::ResultCache cache;
  const core::ResultCacheOutcome first = cache.sweep(base_spec(10));
  EXPECT_EQ(first.trials_computed, 10u * 2);

  // The heart of the tentpole: only trials [10, 25) run; the cached
  // exact-integer partial absorbs them, and the finalized report must be
  // byte-identical to a monolithic 25-trial sweep that never saw a cache.
  const core::ScenarioSpec extended = base_spec(25);
  const core::ResultCacheOutcome second = cache.sweep(extended);
  EXPECT_FALSE(second.warm);
  EXPECT_EQ(second.trials_computed, 15u * 2);
  EXPECT_EQ(second.report, monolithic_report(extended));
  EXPECT_EQ(second.key, first.key);

  const core::ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.extensions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, ShorterThanCachedRecomputesThenMemoises) {
  core::ResultCache cache;
  (void)cache.sweep(base_spec(25));

  // Histograms and node sums aggregate over all trials, so a shorter
  // request cannot be truncated out of the cached partial: it recomputes
  // [0, 10) on the resident engines - and must still match the
  // monolithic 10-trial bytes exactly.
  const core::ScenarioSpec shorter = base_spec(10);
  const core::ResultCacheOutcome recomputed = cache.sweep(shorter);
  EXPECT_FALSE(recomputed.warm);
  EXPECT_EQ(recomputed.trials_computed, 10u * 2);
  EXPECT_EQ(recomputed.report, monolithic_report(shorter));

  // ...once, though: the finalized report memo makes the repeat free.
  const core::ResultCacheOutcome repeat = cache.sweep(shorter);
  EXPECT_TRUE(repeat.warm);
  EXPECT_EQ(repeat.trials_computed, 0u);
  EXPECT_EQ(repeat.report, recomputed.report);
}

TEST(ResultCache, DifferentZSameTrialsServedWithoutSweepWork) {
  core::ResultCache cache;
  (void)cache.sweep(base_spec(16));

  // z only affects the reported half-widths and the embedded schedule
  // block - not what any trial computes - so a z change over a fully
  // cached trial range finalizes from the cached partial: warm, yet the
  // bytes differ from the z=1.96 report and match the monolithic z=2.5.
  core::ScenarioSpec wider = base_spec(16);
  wider.schedule.z = 2.5;
  const core::ResultCacheOutcome outcome = cache.sweep(wider);
  EXPECT_TRUE(outcome.warm);
  EXPECT_EQ(outcome.trials_computed, 0u);
  EXPECT_EQ(outcome.report, monolithic_report(wider));
  EXPECT_EQ(cache.stats().full_hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, AdaptiveSchedulesAreRejected) {
  core::ResultCache cache;
  core::ScenarioSpec adaptive = base_spec(100);
  adaptive.schedule.target_half_width = 0.05;
  EXPECT_THROW((void)cache.sweep(adaptive), std::invalid_argument);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, MessageEngineWorkloadsCacheAndExtendToo) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id-msg";
  spec.ns = {64};
  spec.seed = 5;
  spec.schedule.max_trials = 6;

  core::ResultCache cache;
  EXPECT_EQ(cache.sweep(spec).report, monolithic_report(spec));

  spec.schedule.max_trials = 14;
  const core::ResultCacheOutcome extended = cache.sweep(spec);
  EXPECT_EQ(extended.trials_computed, 8u);  // resident engine, tail only
  EXPECT_EQ(extended.report, monolithic_report(spec));
}

TEST(ResultCache, DistinctWorkloadsGetDistinctEntries) {
  core::ResultCache cache;
  (void)cache.sweep(base_spec(8));
  core::ScenarioSpec other = base_spec(8);
  other.seed = 123;
  (void)cache.sweep(other);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

/// Runs body(t) on `threads` threads released together.
template <class Body>
void run_threads(std::size_t threads, const Body& body) {
  std::latch start(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

TEST(ResultCache, ConcurrentIdentitiesMatchMonolithicAndCountExactly) {
  // Four identities: two view workloads and one message workload owned by
  // threads 0-2, and one view workload shared by threads 2 and 3. Every
  // thread walks its identities through 4, 8 and 12 trials, asking for
  // each schedule twice: a cold fill, then warm repeats and extensions.
  core::ScenarioSpec view = base_spec(0);
  core::ScenarioSpec cv3 = base_spec(0);
  cv3.algorithm = "cv3";
  cv3.ns = {96, 200};
  cv3.seed = 3;
  core::ScenarioSpec message;
  message.family = {"cycle", {}};
  message.algorithm = "largest-id-msg";
  message.ns = {64};
  message.seed = 5;
  core::ScenarioSpec shared;
  shared.family = {"torus", {}};
  shared.algorithm = "greedy";
  shared.ns = {64, 100};
  shared.seed = 11;
  const std::vector<core::ScenarioSpec> identities = {view, cv3, message, shared};
  const std::vector<std::vector<std::size_t>> walks = {{0}, {1}, {2, 3}, {3}};
  const std::vector<std::size_t> schedules = {4, 8, 12};

  auto with_trials = [](core::ScenarioSpec spec, std::size_t trials) {
    spec.schedule.max_trials = trials;
    return spec;
  };
  std::vector<std::vector<std::string>> references(identities.size());
  for (std::size_t i = 0; i < identities.size(); ++i) {
    for (const std::size_t trials : schedules) {
      references[i].push_back(monolithic_report(with_trials(identities[i], trials)));
    }
  }

  core::ResultCache cache(core::ResultCacheOptions{3, 0});
  std::atomic<std::size_t> mismatches{0};
  run_threads(walks.size(), [&](std::size_t t) {
    for (std::size_t step = 0; step < schedules.size(); ++step) {
      for (const std::size_t i : walks[t]) {
        for (int repeat = 0; repeat < 2; ++repeat) {
          const core::ResultCacheOutcome outcome =
              cache.sweep(with_trials(identities[i], schedules[step]));
          if (outcome.report != references[i][step]) mismatches.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);

  // Each schedule's first request computes (a miss at 4 trials, extensions
  // at 8 and 12, whichever thread gets there first); every other request
  // is a warm hit - whatever the interleaving.
  std::uint64_t points = 0;
  for (const core::ScenarioSpec& spec : identities) points += spec.ns.size();
  const core::ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.requests, 30u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.extensions, 8u);
  EXPECT_EQ(stats.full_hits, 18u);
  EXPECT_EQ(stats.trials_computed, 12u * points);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(cache.stats().entries, 4u);
}

// --------------------------------------------------------------- Server ----

std::string sweep_request_line(const core::ScenarioSpec& spec) {
  support::JsonWriter json;
  json.begin_object();
  json.key("op").value("sweep");
  json.key("scenario");
  core::write_scenario_json(json, spec);
  json.end_object();
  return json.str();
}

TEST(Server, HandleRequestSpeaksTheProtocol) {
  core::ServeOptions options;
  options.socket_path = "/tmp/unused-protocol-test.sock";  // never bound
  core::Server server(options);

  const auto ping = server.handle_request("{\"op\":\"ping\"}");
  EXPECT_EQ(ping.line, "{\"ok\":true,\"op\":\"ping\"}");
  EXPECT_FALSE(ping.close);

  const auto malformed = server.handle_request("this is not json");
  EXPECT_NE(malformed.line.find("\"ok\":false"), std::string::npos);
  EXPECT_FALSE(malformed.close);

  // A line nested past the parser's depth cap is an error reply, not a
  // stack overflow, and the server keeps answering.
  const auto deep = server.handle_request(std::string(200'000, '['));
  EXPECT_NE(deep.line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(deep.line.find("nesting"), std::string::npos);
  EXPECT_FALSE(deep.close);
  EXPECT_EQ(server.handle_request("{\"op\":\"ping\"}").line, "{\"ok\":true,\"op\":\"ping\"}");

  const auto unknown = server.handle_request("{\"op\":\"frobnicate\"}");
  EXPECT_NE(unknown.line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(unknown.line.find("frobnicate"), std::string::npos);

  const auto missing = server.handle_request("{\"op\":\"sweep\"}");
  EXPECT_NE(missing.line.find("\"ok\":false"), std::string::npos);

  const core::ScenarioSpec spec = base_spec(4);
  const auto sweep = server.handle_request(sweep_request_line(spec));
  const support::JsonValue response = support::parse_json(sweep.line);
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("op").as_string(), "sweep");
  EXPECT_FALSE(response.at("warm").as_bool());
  EXPECT_EQ(response.at("report").as_string(), monolithic_report(spec));

  // Every malformed line gets the shared table's error line, the same one
  // the fabric coordinator answers it with, and the connection stays open.
  for (const support::BadRequestLine& bad : support::bad_request_lines()) {
    const auto reply = server.handle_request(bad.request);
    EXPECT_EQ(reply.line, bad.reply) << bad.request.substr(0, 40);
    EXPECT_FALSE(reply.close);
  }

  const auto shutdown = server.handle_request("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(shutdown.close);
  EXPECT_NE(shutdown.line.find("\"ok\":true"), std::string::npos);
}

/// A started Server with its accept loop on a thread. Stops and joins on
/// every exit path, so a failed ASSERT never leaves a joinable thread.
class RunningServer {
 public:
  explicit RunningServer(const core::ServeOptions& options) : server_(options) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  ~RunningServer() { join(); }

  core::Server& server() { return server_; }

  /// Waits for run() to return (after a shutdown op or request_stop()).
  void join() {
    if (!thread_.joinable()) return;
    if (::testing::Test::HasFatalFailure()) server_.request_stop();
    thread_.join();
  }

 private:
  core::Server server_;
  std::thread thread_;
};

TEST(Server, FailedRequestLeavesNoCacheEntry) {
  core::ServeOptions options;
  options.socket_path = "/tmp/unused-protocol-test.sock";  // never bound
  core::Server server(options);
  const auto good = server.handle_request(sweep_request_line(base_spec(4)));
  EXPECT_NE(good.line.find("\"ok\":true"), std::string::npos);

  // local3 on a path passes resolve but throws inside the engine (it needs
  // a degree-2 cycle). The entry that request created must not stay.
  core::ScenarioSpec failing = base_spec(4);
  failing.family = {"path", {}};
  failing.algorithm = "local3";
  const auto failed = server.handle_request(sweep_request_line(failing));
  EXPECT_NE(failed.line.find("\"ok\":false"), std::string::npos);

  const support::JsonValue stats =
      support::parse_json(server.handle_request("{\"op\":\"stats\"}").line);
  EXPECT_EQ(stats.at("entries").as_u64(), 1u);
  EXPECT_EQ(server.cache().stats().entries, 1u);
  // The surviving entry still serves warm.
  EXPECT_TRUE(server.cache().sweep(base_spec(4)).warm);
}

TEST(Server, RacingFailedRequestsLeaveNoCacheEntry) {
  // A failing request and a same-identity request waiting on its entry:
  // whichever creates the entry erases it, the other holds its own
  // reference to it, and neither touches freed memory (asan, tsan).
  core::ServeOptions options;
  options.socket_path = "/tmp/unused-protocol-test.sock";  // never bound
  options.threads = 2;
  core::Server server(options);
  ASSERT_NE(server.handle_request(sweep_request_line(base_spec(4))).line.find("\"ok\":true"),
            std::string::npos);

  core::ScenarioSpec failing = base_spec(4);
  failing.family = {"path", {}};
  failing.algorithm = "local3";
  for (std::size_t round = 0; round < 20; ++round) {
    std::vector<std::string> replies(2);
    run_threads(replies.size(), [&](std::size_t t) {
      core::ScenarioSpec spec = failing;
      spec.schedule.max_trials = 4 + t;  // one identity, two schedules
      replies[t] = server.handle_request(sweep_request_line(spec)).line;
    });
    for (const std::string& line : replies) {
      EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
    }
    EXPECT_EQ(server.cache().stats().entries, 1u) << "round " << round;
    EXPECT_EQ(server.cache().stats().entries, 1u) << "round " << round;
  }
  EXPECT_TRUE(server.cache().sweep(base_spec(4)).warm);
}

TEST(Server, SocketEndToEndWithConcurrentClientsAndCleanShutdown) {
  char dir_template[] = "/tmp/avglocal-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string socket_path = std::string(dir_template) + "/daemon.sock";

  core::ServeOptions options;
  options.socket_path = socket_path;
  options.threads = 2;
  options.max_clients = 4;
  RunningServer running(options);

  const core::ScenarioSpec spec = base_spec(12);
  const std::string reference = monolithic_report(spec);
  const std::string request = sweep_request_line(spec);

  // Two clients race the same workload; both must get the reference bytes
  // (one identity's requests queue on its entry's mutex, so one computes
  // and the other hits - order unspecified, result identical).
  std::vector<std::string> replies(2);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < replies.size(); ++c) {
    clients.emplace_back([&, c] {
      support::Stream stream = support::Stream::connect(socket_path);
      ASSERT_TRUE(stream.write_line(request));
      ASSERT_TRUE(stream.read_line(replies[c]));
    });
  }
  for (auto& t : clients) t.join();
  for (const std::string& line : replies) {
    const support::JsonValue response = support::parse_json(line);
    ASSERT_TRUE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("report").as_string(), reference);
  }

  // One connection, two pipelined requests: an extension then stats.
  {
    support::Stream stream = support::Stream::connect(socket_path);
    core::ScenarioSpec extended = base_spec(20);
    ASSERT_TRUE(stream.write_line(sweep_request_line(extended)));
    std::string line;
    ASSERT_TRUE(stream.read_line(line));
    const support::JsonValue response = support::parse_json(line);
    ASSERT_TRUE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("report").as_string(), monolithic_report(extended));
    EXPECT_EQ(response.at("trials_computed").as_u64(), 8u * 2);  // tail only

    ASSERT_TRUE(stream.write_line("{\"op\":\"stats\"}"));
    ASSERT_TRUE(stream.read_line(line));
    const support::JsonValue stats = support::parse_json(line);
    EXPECT_TRUE(stats.at("ok").as_bool());
    EXPECT_EQ(stats.at("entries").as_u64(), 1u);
    EXPECT_EQ(stats.at("extensions").as_u64(), 1u);
  }

  // The shutdown op stops the whole daemon: run() returns, every handler
  // joins, and the socket file is unlinked.
  {
    support::Stream stream = support::Stream::connect(socket_path);
    ASSERT_TRUE(stream.write_line("{\"op\":\"shutdown\"}"));
    std::string line;
    ASSERT_TRUE(stream.read_line(line));
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  }
  running.join();
  EXPECT_TRUE(running.server().stopping());
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
  ::rmdir(dir_template);
}

TEST(Server, ListensOnAnEphemeralTcpPort) {
  // The endpoint goes through parse_endpoint like every other listener's:
  // a tcp: spelling binds TCP, not a Unix socket file named after it.
  const std::string spelled = "tcp:127.0.0.1:0";
  core::ServeOptions options;
  options.socket_path = spelled;
  RunningServer running(options);
  EXPECT_NE(::access(spelled.c_str(), F_OK), 0) << "a Unix socket file named " << spelled;
  const support::Endpoint bound = running.server().endpoint();
  EXPECT_EQ(bound.kind, support::Endpoint::Kind::kTcp);
  EXPECT_NE(bound.port, 0);

  const core::ScenarioSpec spec = base_spec(6);
  {
    support::Stream stream = support::Stream::connect_with_retry(bound, 5000);
    std::string line;
    ASSERT_TRUE(stream.write_line("{\"op\":\"ping\"}"));
    ASSERT_TRUE(stream.read_line(line));
    EXPECT_EQ(line, "{\"ok\":true,\"op\":\"ping\"}");
    ASSERT_TRUE(stream.write_line(sweep_request_line(spec)));
    ASSERT_TRUE(stream.read_line(line));
    EXPECT_EQ(support::parse_reply(line).at("report").as_string(), monolithic_report(spec));
  }
  running.server().request_stop();
  running.join();
}

TEST(Server, RequestStopInterruptsABlockedAcceptLoop) {
  char dir_template[] = "/tmp/avglocal-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string socket_path = std::string(dir_template) + "/daemon.sock";

  core::ServeOptions options;
  options.socket_path = socket_path;
  RunningServer running(options);
  // Simulates the SIGTERM handler: the signal-safe call alone must bring
  // the blocked accept loop down.
  running.server().request_stop();
  running.join();
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
  ::rmdir(dir_template);
}

TEST(Server, FullSlotTableRepliesBusyInsteadOfSilentlyDropping) {
  char dir_template[] = "/tmp/avglocal-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string socket_path = std::string(dir_template) + "/daemon.sock";

  core::ServeOptions options;
  options.socket_path = socket_path;
  options.max_clients = 1;
  RunningServer running(options);

  // The first client pins the only slot; the ping round-trip guarantees
  // its handler is live before anyone else knocks.
  support::Stream holder = support::Stream::connect(socket_path);
  std::string line;
  ASSERT_TRUE(holder.write_line("{\"op\":\"ping\"}"));
  ASSERT_TRUE(holder.read_line(line));

  // The second connection must get an explicit busy error, then EOF - a
  // reply to back off on, not a silent drop.
  {
    support::Stream rejected = support::Stream::connect(socket_path);
    ASSERT_TRUE(rejected.read_line(line));
    const support::JsonValue reply = support::parse_json(line);
    EXPECT_FALSE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("error").as_string(), "busy");
    EXPECT_FALSE(rejected.read_line(line));  // closed right after the reply
  }

  // Once the holder leaves its slot is reaped on the next accept, so a
  // retrying client eventually gets a real handler again. Busy lines in
  // between are expected - that is the whole point of the reply. A busy
  // server may answer and close before the ping is written, so a failed
  // write is not an error: the reply decides.
  holder.close();
  for (;;) {
    support::Stream retry = support::Stream::connect(socket_path);
    (void)retry.write_line("{\"op\":\"ping\"}");
    ASSERT_TRUE(retry.read_line(line));
    const support::JsonValue reply = support::parse_json(line);
    if (reply.at("ok").as_bool()) break;  // a freed slot served the ping
    EXPECT_EQ(reply.at("error").as_string(), "busy");
  }

  running.server().request_stop();
  running.join();
  ::rmdir(dir_template);
}

TEST(Stream, ConnectWithRetryOutwaitsADaemonStillBinding) {
  char dir_template[] = "/tmp/avglocal-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string socket_path = std::string(dir_template) + "/daemon.sock";
  const support::Endpoint endpoint = support::parse_endpoint(socket_path);

  // The daemon-startup race, reproduced deterministically: the listener
  // appears only after the client has already started connecting. The
  // bounded-backoff retry must ride out the ENOENT window.
  // A one-op server whose reply proves a usable stream.
  support::LineServer echo(1, {{"echo", [](std::uint64_t, const support::JsonValue&,
                                           support::LineServer::OpReply&) {}}});
  std::thread late_binder([&echo, &endpoint] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    echo.start(endpoint);
    echo.run();
  });

  std::string echoed;
  {
    support::Stream stream = support::Stream::connect_with_retry(endpoint, 5000);
    EXPECT_TRUE(stream.valid());
    EXPECT_TRUE(stream.write_line(R"({"op":"echo"})"));
    EXPECT_TRUE(stream.read_line(echoed));
  }
  EXPECT_EQ(echoed, R"({"ok":true,"op":"echo"})");
  echo.request_stop();
  late_binder.join();

  // Nothing ever binds here: the retry window closes and throws instead
  // of spinning forever.
  const support::Endpoint absent =
      support::parse_endpoint(std::string(dir_template) + "/nobody.sock");
  EXPECT_THROW((void)support::Stream::connect_with_retry(absent, 150), std::runtime_error);
  ::rmdir(dir_template);
}

TEST(Stream, ConnectWithRetrySaturatesAnUnboundedTimeout) {
  char dir_template[] = "/tmp/avglocal-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const support::Endpoint endpoint =
      support::parse_endpoint(std::string(dir_template) + "/daemon.sock");

  // now + LONG_MAX ms overflows steady_clock's nanosecond count; an
  // unsaturated deadline lands in the past and the first ENOENT throws
  // instead of waiting for the listener bound 100 ms later.
  support::LineServer echo(1, {{"echo", [](std::uint64_t, const support::JsonValue&,
                                           support::LineServer::OpReply&) {}}});
  std::thread late_binder([&echo, &endpoint] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    echo.start(endpoint);
    echo.run();
  });
  std::string echoed;
  try {
    support::Stream stream = support::Stream::connect_with_retry(endpoint, LONG_MAX);
    EXPECT_TRUE(stream.write_line(R"({"op":"echo"})"));
    EXPECT_TRUE(stream.read_line(echoed));
  } catch (const std::runtime_error& error) {
    ADD_FAILURE() << error.what();
  }
  EXPECT_EQ(echoed, R"({"ok":true,"op":"echo"})");
  echo.request_stop();
  late_binder.join();
  ::rmdir(dir_template);
}

TEST(Stream, ReadsAMultiMegabyteLineAndTheNextOneFromTheSameBuffer) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  support::Stream reader(fds[0]);

  // 6 MB arrive over hundreds of recv()s; the second line shares its first
  // byte's buffer with the first line's tail.
  std::string big(6u << 20, 'x');
  for (std::size_t at = 0; at < big.size(); at += 4099) big[at] = static_cast<char>('a' + at % 26);
  std::thread writer([&big, fd = fds[1]] {
    support::Stream stream(fd);
    EXPECT_TRUE(stream.write_all(big + "\nsecond\n"));
  });

  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, big);
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "second");
  writer.join();  // the writer's stream closed: orderly EOF
  EXPECT_FALSE(reader.read_line(line));
}

TEST(Server, BindRefusesALiveDaemonAndReplacesAStaleSocket) {
  char dir_template[] = "/tmp/avglocal-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string socket_path = std::string(dir_template) + "/daemon.sock";

  {
    support::Listener live = support::Listener::bind(socket_path);
    EXPECT_THROW((void)support::Listener::bind(socket_path), std::runtime_error);
  }
  // A leftover path that nothing is accepting on (here: a plain file, the
  // same EADDRINUSE + failed-probe shape as a crashed daemon's socket
  // file) is replaced silently.
  {
    std::ofstream stale(socket_path);
    stale << "stale";
  }
  EXPECT_EQ(::access(socket_path.c_str(), F_OK), 0);
  support::Listener replaced = support::Listener::bind(socket_path);
  EXPECT_TRUE(replaced.valid());
  replaced.close();
  ::rmdir(dir_template);
}

}  // namespace
