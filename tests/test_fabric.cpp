// The distributed sweep fabric's contract: any worker count, steal order,
// straggler kill or transport (Unix-domain or TCP) produces merged
// partials - and a finalized report - byte-identical to the monolithic
// sweep. Covers the endpoint grammar, the WorkQueue dispatch policy
// (pure bookkeeping, no sockets), the coordinator protocol driven
// socket-free through handle_request (duplicate discard, artefact
// validation, work-requests that wait for the event deciding them), real
// coordinator+worker runs over both transports, a worker that vanishes
// mid-unit, and the ResultCache hand-off.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fabric.hpp"
#include "core/remote_backend.hpp"
#include "core/result_cache.hpp"
#include "core/scenario.hpp"
#include "core/shard.hpp"
#include "kit/bad_request_lines.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "support/line_server.hpp"
#include "support/socket.hpp"

namespace {

using namespace avglocal;

core::ScenarioSpec base_spec(std::size_t trials) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id";
  spec.ns = {64, 96};
  spec.seed = 11;
  spec.schedule.max_trials = trials;
  return spec;
}

std::string monolithic_report(const core::ScenarioSpec& spec) {
  const core::ScenarioResult result = core::run_scenario(spec);
  return core::sweep_report_json(result.spec, result.points);
}

// ------------------------------------------------------------- endpoints ----

TEST(Endpoint, ParsesEverySpelledForm) {
  const support::Endpoint unix_scheme = support::parse_endpoint("unix:/tmp/fabric.sock");
  EXPECT_EQ(unix_scheme.kind, support::Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_scheme.path, "/tmp/fabric.sock");
  EXPECT_EQ(unix_scheme.to_string(), "unix:/tmp/fabric.sock");

  const support::Endpoint bare_path = support::parse_endpoint("/tmp/fabric.sock");
  EXPECT_EQ(bare_path, unix_scheme);

  const support::Endpoint tcp_scheme = support::parse_endpoint("tcp:127.0.0.1:7001");
  EXPECT_EQ(tcp_scheme.kind, support::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_scheme.host, "127.0.0.1");
  EXPECT_EQ(tcp_scheme.port, 7001);
  EXPECT_EQ(tcp_scheme.to_string(), "tcp:127.0.0.1:7001");

  const support::Endpoint bare_hostport = support::parse_endpoint("localhost:0");
  EXPECT_EQ(bare_hostport.kind, support::Endpoint::Kind::kTcp);
  EXPECT_EQ(bare_hostport.host, "localhost");
  EXPECT_EQ(bare_hostport.port, 0);
}

TEST(Endpoint, RejectsMalformedSpecs) {
  EXPECT_THROW((void)support::parse_endpoint(""), std::runtime_error);
  EXPECT_THROW((void)support::parse_endpoint("unix:"), std::runtime_error);
  EXPECT_THROW((void)support::parse_endpoint("tcp:nohost"), std::runtime_error);
  EXPECT_THROW((void)support::parse_endpoint("tcp::7001"), std::runtime_error);
  EXPECT_THROW((void)support::parse_endpoint("tcp:host:notaport"), std::runtime_error);
  EXPECT_THROW((void)support::parse_endpoint("tcp:host:70000"), std::runtime_error);
}

// -------------------------------------------------------- plan_work_units ----

TEST(PlanWorkUnits, CoversTheSweepPointMajorInIdOrder) {
  const std::vector<core::WorkUnit> units = core::plan_work_units(2, 10, 4);
  ASSERT_EQ(units.size(), 6u);  // per point: [0,4) [4,8) [8,10)
  for (std::size_t i = 0; i < units.size(); ++i) EXPECT_EQ(units[i].id, i);
  EXPECT_EQ(units[0].point, 0u);
  EXPECT_EQ(units[2].trial_begin, 8u);
  EXPECT_EQ(units[2].trial_end, 10u);
  EXPECT_EQ(units[3].point, 1u);
  EXPECT_EQ(units[3].trial_begin, 0u);
  // Per point, trial ranges are contiguous ascending and partition [0, 10).
  for (std::size_t point = 0; point < 2; ++point) {
    std::size_t next = 0;
    for (const core::WorkUnit& unit : units) {
      if (unit.point != point) continue;
      EXPECT_EQ(unit.trial_begin, next);
      next = unit.trial_end;
    }
    EXPECT_EQ(next, 10u);
  }
}

TEST(PlanWorkUnits, DefaultGranularityIsAnEighthOfTheTrials) {
  const std::vector<core::WorkUnit> units = core::plan_work_units(1, 100, 0);
  EXPECT_EQ(units.size(), 8u);  // ceil(100/13) with unit_trials = ceil(100/8)
  EXPECT_EQ(units.front().trial_end, 13u);
  EXPECT_EQ(units.back().trial_end, 100u);
}

// -------------------------------------------------------------- WorkQueue ----

TEST(WorkQueue, GrantsPendingUnitsInIdOrderThenDrains) {
  core::WorkQueue queue(core::plan_work_units(1, 8, 4), /*straggler_ms=*/1000);
  const auto first = queue.grant(/*session=*/0, /*now_ms=*/0);
  const auto second = queue.grant(1, 0);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->id, 0u);
  EXPECT_EQ(second->id, 1u);
  // Everything in flight, nothing overdue: the next idle worker waits.
  EXPECT_FALSE(queue.grant(2, 100).has_value());
  EXPECT_EQ(queue.redispatches(), 0u);
}

TEST(WorkQueue, RedispatchesOverdueUnitsFewestDispatchesFirst) {
  core::WorkQueue queue(core::plan_work_units(1, 8, 4), /*straggler_ms=*/100);
  (void)queue.grant(0, 0);  // unit 0, deadline 100
  (void)queue.grant(1, 50); // unit 1, deadline 150
  // At t=120 only unit 0 is overdue.
  const auto stolen = queue.grant(2, 120);
  ASSERT_TRUE(stolen);
  EXPECT_EQ(stolen->id, 0u);
  EXPECT_EQ(queue.redispatches(), 1u);
  // At t=300 both are overdue; unit 1 has fewer dispatches, so it wins.
  const auto next = queue.grant(3, 300);
  ASSERT_TRUE(next);
  EXPECT_EQ(next->id, 1u);
}

TEST(WorkQueue, ReleaseMakesAVanishedWorkersUnitsImmediatelyGrantable) {
  core::WorkQueue queue(core::plan_work_units(1, 4, 4), /*straggler_ms=*/100000);
  (void)queue.grant(/*session=*/7, 0);
  EXPECT_FALSE(queue.grant(8, 1).has_value());  // held, far from overdue
  queue.release(7);                             // session 7's connection dropped
  const auto regranted = queue.grant(8, 2);
  ASSERT_TRUE(regranted);
  EXPECT_EQ(regranted->id, 0u);
}

TEST(WorkQueue, NextDeadlineTracksInFlightUnits) {
  core::WorkQueue queue(core::plan_work_units(1, 12, 4), /*straggler_ms=*/100);
  EXPECT_FALSE(queue.next_deadline_ms().has_value());  // nothing in flight
  (void)queue.grant(/*session=*/0, /*now_ms=*/10);     // unit 0, deadline 110
  (void)queue.grant(1, 40);                            // unit 1, deadline 140
  EXPECT_EQ(queue.next_deadline_ms(), std::optional<std::uint64_t>(110));
  EXPECT_TRUE(queue.accept(0));
  EXPECT_EQ(queue.next_deadline_ms(), std::optional<std::uint64_t>(140));
  queue.release(1);  // overdue at once
  EXPECT_EQ(queue.next_deadline_ms(), std::optional<std::uint64_t>(0));
  EXPECT_TRUE(queue.accept(1));
  EXPECT_FALSE(queue.next_deadline_ms().has_value());  // unit 2 is still pending
}

TEST(WorkQueue, AcceptsEachUnitExactlyOnce) {
  core::WorkQueue queue(core::plan_work_units(1, 8, 4), 100);
  (void)queue.grant(0, 0);
  EXPECT_TRUE(queue.accept(0));
  EXPECT_FALSE(queue.accept(0));  // the straggler's late duplicate
  EXPECT_FALSE(queue.complete());
  (void)queue.grant(0, 0);
  EXPECT_TRUE(queue.accept(1));
  EXPECT_TRUE(queue.complete());
  EXPECT_EQ(queue.done_count(), 2u);
}

// --------------------------------------------- coordinator, socket-free ----

std::string work_request_line() { return "{\"op\":\"work-request\"}"; }

/// Builds the result line a worker would send for `unit`, computing the
/// artefact locally through the same shard plumbing workers use. The body
/// holds trials [unit.trial_begin, body_trial_end) - the unit's own range
/// unless a test forges a body that disagrees with the header.
std::string result_line(const core::ResolvedScenario& resolved, const core::WorkUnit& unit,
                        std::size_t body_trial_end = 0) {
  core::ShardDocument doc;
  doc.meta = resolved.spec;
  doc.shard = core::SweepShard{unit.point, unit.point + 1, unit.trial_begin, unit.trial_end};
  core::SweepShard body = doc.shard;
  if (body_trial_end != 0) body.trial_end = body_trial_end;
  doc.points = core::run_scenario_shard(resolved, {}, body);
  support::JsonWriter json;
  json.begin_object();
  json.key("op").value("result");
  json.key("unit").value(static_cast<std::uint64_t>(unit.id));
  json.key("artefact").value(core::shard_to_json(doc));
  json.end_object();
  return json.str();
}

TEST(FabricCoordinator, HandleRequestSpeaksTheProtocol) {
  core::ScenarioSpec spec = base_spec(8);
  spec.ns = {64};
  core::FabricOptions options;
  options.unit_trials = 4;  // two units; the listener is never bound
  core::FabricCoordinator coordinator(core::resolve_scenario(spec), options);

  const auto hello = coordinator.handle_request(0, "{\"op\":\"hello\",\"worker\":\"w0\"}");
  const support::JsonValue hello_reply = support::parse_json(hello.line);
  EXPECT_TRUE(hello_reply.at("ok").as_bool());
  // The scenario alone carries the plan: no mirrored trial or point counts.
  EXPECT_EQ(hello_reply.find("trials"), nullptr);
  EXPECT_EQ(hello_reply.find("points"), nullptr);
  // The embedded scenario block resolves back to the coordinator's spec.
  const core::ScenarioSpec echoed = core::scenario_from_json(hello_reply.at("scenario"));
  EXPECT_EQ(core::resolve_scenario(echoed).spec, core::resolve_scenario(spec).spec);

  const auto malformed = coordinator.handle_request(0, "not json");
  EXPECT_NE(malformed.line.find("\"ok\":false"), std::string::npos);
  const auto unknown = coordinator.handle_request(0, "{\"op\":\"frobnicate\"}");
  EXPECT_NE(unknown.line.find("\"ok\":false"), std::string::npos);
  // The shared table: the same error line the sweep daemon answers with.
  for (const support::BadRequestLine& bad : support::bad_request_lines()) {
    const auto reply = coordinator.handle_request(0, bad.request);
    EXPECT_EQ(reply.line, bad.reply) << bad.request.substr(0, 40);
    EXPECT_FALSE(reply.close);
  }

  const auto grant = coordinator.handle_request(0, work_request_line());
  const support::JsonValue grant_reply = support::parse_json(grant.line);
  EXPECT_EQ(grant_reply.at("op").as_string(), "work-grant");
  EXPECT_EQ(grant_reply.at("unit").at("id").as_u64(), 0u);
  EXPECT_FALSE(grant.close);

  // A stop before completion (SIGTERM): the next work-request gets the
  // drain form of the shutdown reply, so the worker reports a drain, not a
  // finished sweep.
  coordinator.request_stop();
  const auto stopped = coordinator.handle_request(1, work_request_line());
  const support::JsonValue stopped_reply = support::parse_json(stopped.line);
  EXPECT_EQ(stopped_reply.at("op").as_string(), "shutdown");
  ASSERT_NE(stopped_reply.find("drained"), nullptr) << stopped.line;
  EXPECT_TRUE(stopped_reply.at("drained").as_bool());
  EXPECT_TRUE(stopped.close);
}

TEST(FabricCoordinator, DiscardsTheStragglersDuplicateExactlyOnce) {
  core::ScenarioSpec spec = base_spec(8);
  spec.ns = {64};
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  core::FabricOptions options;
  options.unit_trials = 8;     // a single unit
  options.straggler_ms = 0;    // every grant is instantly overdue
  core::FabricCoordinator coordinator(core::resolve_scenario(spec), options);

  // Session 0 takes the unit, stalls; session 1 steals the re-dispatch.
  const auto first_grant = coordinator.handle_request(0, work_request_line());
  EXPECT_EQ(support::parse_json(first_grant.line).at("op").as_string(), "work-grant");
  const auto stolen = coordinator.handle_request(1, work_request_line());
  EXPECT_EQ(support::parse_json(stolen.line).at("op").as_string(), "work-grant");
  EXPECT_EQ(coordinator.stats().redispatches, 1u);

  // Both deliver: the first copy is accepted, the straggler's duplicate
  // is discarded - exactly once each.
  const core::WorkUnit& unit = coordinator.work_units().front();
  const std::string line = result_line(resolved, unit);
  const auto winner = coordinator.handle_request(1, line);
  EXPECT_TRUE(support::parse_json(winner.line).at("accepted").as_bool());
  const auto duplicate = coordinator.handle_request(0, line);
  EXPECT_FALSE(support::parse_json(duplicate.line).at("accepted").as_bool());

  const core::FabricStats stats = coordinator.stats();
  EXPECT_EQ(stats.results_accepted, 1u);
  EXPECT_EQ(stats.duplicates_discarded, 1u);
  EXPECT_TRUE(coordinator.complete());

  // With the sweep complete, the next work-request is a shutdown.
  const auto shutdown = coordinator.handle_request(2, work_request_line());
  EXPECT_EQ(support::parse_json(shutdown.line).at("op").as_string(), "shutdown");
  EXPECT_TRUE(shutdown.close);
}

TEST(FabricCoordinator, RejectsArtefactsFromTheWrongWorkload) {
  core::ScenarioSpec spec = base_spec(8);
  spec.ns = {64};
  core::FabricOptions options;
  options.unit_trials = 8;
  core::FabricCoordinator coordinator(core::resolve_scenario(spec), options);
  (void)coordinator.handle_request(0, work_request_line());

  // An artefact computed under a different seed: same rectangle, same
  // shapes, different workload identity - the meta check must reject it.
  core::ScenarioSpec other = spec;
  other.seed = 999;
  const auto rejected = coordinator.handle_request(
      0, result_line(core::resolve_scenario(other), coordinator.work_units().front()));
  EXPECT_NE(rejected.line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(rejected.line.find("meta"), std::string::npos);
  EXPECT_FALSE(coordinator.complete());

  const auto unknown_unit =
      coordinator.handle_request(0, "{\"op\":\"result\",\"unit\":99,\"artefact\":\"{}\"}");
  EXPECT_NE(unknown_unit.line.find("\"ok\":false"), std::string::npos);

  // The right workload and a header claiming the whole unit [0, 8), but a
  // body holding only trials [0, 4): merged, it would finalize a report
  // with the wrong trial count. The body check rejects it and the unit
  // stays in flight.
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  const core::WorkUnit& unit = coordinator.work_units().front();
  const auto short_body = coordinator.handle_request(0, result_line(resolved, unit, 4));
  EXPECT_NE(short_body.line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(short_body.line.find("body"), std::string::npos);
  EXPECT_FALSE(coordinator.complete());

  // The correct artefact for the same unit is then accepted.
  const auto correct = coordinator.handle_request(0, result_line(resolved, unit));
  EXPECT_TRUE(support::parse_json(correct.line).at("accepted").as_bool());
  EXPECT_TRUE(coordinator.complete());
}

/// A work-request on its own thread, the way a connection handler runs it
/// while nothing is grantable. A request that never returns fails the test
/// instead of stalling the suite: after a generous timeout it stops the
/// coordinator, which ends every wait with the drained shutdown.
class WaitingRequest {
 public:
  WaitingRequest(core::FabricCoordinator& coordinator, std::uint64_t session)
      : coordinator_(coordinator),
        reply_(std::async(std::launch::async, [&coordinator, session] {
          return coordinator.handle_request(session, work_request_line());
        })) {}
  WaitingRequest(const WaitingRequest&) = delete;
  WaitingRequest& operator=(const WaitingRequest&) = delete;
  ~WaitingRequest() {
    if (reply_.valid()) (void)reply();
  }

  /// Still unanswered after 100 ms.
  bool waiting() const {
    return reply_.wait_for(std::chrono::milliseconds(100)) == std::future_status::timeout;
  }

  support::LineServer::Reply reply() {
    if (reply_.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      ADD_FAILURE() << "work-request still waiting after 30 s";
      coordinator_.request_stop();
    }
    return reply_.get();
  }

 private:
  core::FabricCoordinator& coordinator_;
  std::future<support::LineServer::Reply> reply_;
};

core::ScenarioSpec one_unit_spec() {
  core::ScenarioSpec spec = base_spec(4);
  spec.ns = {64};
  return spec;
}

/// Plans one_unit_spec() as a single unit, never overdue unless
/// `straggler_ms` says otherwise.
core::FabricCoordinator one_unit_coordinator(std::uint64_t straggler_ms = 1000000) {
  core::FabricOptions options;
  options.unit_trials = 4;
  options.straggler_ms = straggler_ms;
  return core::FabricCoordinator(core::resolve_scenario(one_unit_spec()), options);
}

TEST(FabricCoordinator, ReleaseSessionReturnsHeldUnitsToCirculation) {
  core::FabricCoordinator coordinator = one_unit_coordinator();
  (void)coordinator.handle_request(0, work_request_line());
  WaitingRequest idle(coordinator, 1);
  EXPECT_TRUE(idle.waiting());     // session 0 holds the only unit
  coordinator.release_session(0);  // worker 0's connection dropped
  const auto regranted = idle.reply();
  EXPECT_EQ(support::parse_json(regranted.line).at("op").as_string(), "work-grant");
  EXPECT_FALSE(regranted.close);
}

TEST(FabricCoordinator, AWaitingRequestShutsDownWhenTheLastResultLands) {
  core::FabricCoordinator coordinator = one_unit_coordinator();
  (void)coordinator.handle_request(0, work_request_line());
  WaitingRequest idle(coordinator, 1);
  EXPECT_TRUE(idle.waiting());

  const core::ResolvedScenario resolved = core::resolve_scenario(one_unit_spec());
  const auto accepted =
      coordinator.handle_request(0, result_line(resolved, coordinator.work_units().front()));
  EXPECT_TRUE(support::parse_json(accepted.line).at("accepted").as_bool());

  // Completion, not a drain: the worker leaves as from a finished sweep.
  const auto shutdown = idle.reply();
  const support::JsonValue reply = support::parse_json(shutdown.line);
  EXPECT_EQ(reply.at("op").as_string(), "shutdown");
  EXPECT_EQ(reply.find("drained"), nullptr) << shutdown.line;
  EXPECT_TRUE(shutdown.close);
}

TEST(FabricCoordinator, AWaitingRequestTakesTheOverdueUnitAtItsDeadline) {
  core::FabricCoordinator coordinator = one_unit_coordinator(/*straggler_ms=*/50);
  (void)coordinator.handle_request(0, work_request_line());
  // No result, no release, no stop: only the deadline can decide this.
  WaitingRequest idle(coordinator, 1);
  const auto stolen = idle.reply();
  const support::JsonValue reply = support::parse_json(stolen.line);
  EXPECT_EQ(reply.at("op").as_string(), "work-grant") << stolen.line;
  EXPECT_EQ(coordinator.stats().redispatches, 1u);
}

TEST(FabricCoordinator, RequestStopDuringAWaitDrains) {
  core::FabricCoordinator coordinator = one_unit_coordinator();
  (void)coordinator.handle_request(0, work_request_line());
  WaitingRequest idle(coordinator, 1);
  EXPECT_TRUE(idle.waiting());
  coordinator.request_stop();  // what the SIGTERM handler does; it cannot notify
  const auto stopped = idle.reply();
  const support::JsonValue reply = support::parse_json(stopped.line);
  EXPECT_EQ(reply.at("op").as_string(), "shutdown");
  ASSERT_NE(reply.find("drained"), nullptr) << stopped.line;
  EXPECT_TRUE(reply.at("drained").as_bool());
  EXPECT_TRUE(stopped.close);
}

// ------------------------------------------------- sockets, end to end ----

/// A worker on a test thread: exceptions become test failures instead of
/// escaping the thread (which would terminate the whole suite).
core::FabricWorkerOutcome run_worker_thread(const core::FabricWorkerOptions& options) {
  core::FabricWorkerOutcome outcome;
  try {
    outcome = core::run_fabric_worker(options);
    EXPECT_FALSE(outcome.drained) << options.name;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "worker " << options.name << " failed: " << error.what();
  }
  return outcome;
}

struct FabricRun {
  std::string report;
  core::FabricStats stats;
  std::vector<core::FabricWorkerOutcome> outcomes;  ///< by worker index
};

/// Runs a full fabric sweep: a RemoteBackend coordinator on `endpoint`
/// plus `workers` in-process workers. The default of 3 trials per unit
/// gives enough units per point for real interleaving.
FabricRun run_fabric(const core::ScenarioSpec& spec, std::size_t workers,
                     const support::Endpoint& endpoint, std::size_t unit_trials = 3,
                     core::ResultCache* cache = nullptr) {
  core::FabricOptions options;
  options.endpoint = endpoint;
  options.unit_trials = unit_trials;
  core::RemoteBackend backend(spec, options);
  backend.start();
  const support::Endpoint bound = backend.endpoint();

  FabricRun run;
  run.outcomes.resize(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t index = 0; index < workers; ++index) {
    threads.emplace_back([&backend, &run, bound, index, workers] {
      core::FabricWorkerOptions worker;
      worker.endpoint = bound;
      worker.name = "w" + std::to_string(index);
      worker.threads = 1;
      // Start gate: no unit runs before every worker has said hello.
      // Otherwise a fast worker can finish the sweep while a slow one is
      // still connecting, and the slow one times out against a closed
      // socket.
      worker.on_grant = [&backend, workers](const core::WorkUnit&) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (backend.coordinator().stats().workers_seen < workers &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
      run.outcomes[index] = run_worker_thread(worker);
    });
  }
  const core::RemoteSweepOutcome outcome = backend.run(cache);
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(outcome.complete);
  run.report = outcome.report;
  run.stats = outcome.stats;
  return run;
}

std::string scratch_socket(char (&dir_template)[30]) {
  if (::mkdtemp(dir_template) == nullptr) throw std::runtime_error("mkdtemp failed");
  return std::string(dir_template) + "/fabric.sock";
}

TEST(Fabric, OneWorkerOverUnixSocketMatchesMonolithicByteForByte) {
  char dir_template[30] = "/tmp/avglocal-fabric-XXXXXX";
  support::Endpoint endpoint;
  endpoint.kind = support::Endpoint::Kind::kUnix;
  endpoint.path = scratch_socket(dir_template);

  const core::ScenarioSpec spec = base_spec(10);
  const FabricRun run = run_fabric(spec, 1, endpoint);
  EXPECT_EQ(run.report, monolithic_report(spec));
  EXPECT_EQ(run.stats.workers_seen, 1u);
  EXPECT_EQ(run.stats.results_accepted, 8u);  // 2 points x ceil(10/3) units
  EXPECT_EQ(run.stats.duplicates_discarded, 0u);
  ::rmdir(dir_template);
}

TEST(Fabric, ThreeWorkersStealingOverUnixSocketMatchMonolithic) {
  char dir_template[30] = "/tmp/avglocal-fabric-XXXXXX";
  support::Endpoint endpoint;
  endpoint.kind = support::Endpoint::Kind::kUnix;
  endpoint.path = scratch_socket(dir_template);

  const core::ScenarioSpec spec = base_spec(16);
  const FabricRun run = run_fabric(spec, 3, endpoint);
  EXPECT_EQ(run.report, monolithic_report(spec));
  EXPECT_EQ(run.stats.workers_seen, 3u);
  EXPECT_EQ(run.stats.results_accepted, 12u);  // 2 points x ceil(16/3) units
  ::rmdir(dir_template);
}

TEST(Fabric, IdleWorkersWaitThenLeaveCleanly) {
  char dir_template[30] = "/tmp/avglocal-fabric-XXXXXX";
  support::Endpoint endpoint;
  endpoint.kind = support::Endpoint::Kind::kUnix;
  endpoint.path = scratch_socket(dir_template);

  // One unit for three workers: two of them find nothing grantable on
  // their first request and wait until the sweep completes, then leave on
  // the plain (not drained) shutdown like the worker that computed it.
  const core::ScenarioSpec spec = one_unit_spec();
  const FabricRun run = run_fabric(spec, 3, endpoint, /*unit_trials=*/4);
  EXPECT_EQ(run.report, monolithic_report(spec));
  EXPECT_EQ(run.stats.units_granted, 1u);
  std::size_t units = 0;
  for (const core::FabricWorkerOutcome& outcome : run.outcomes) {
    EXPECT_FALSE(outcome.drained);
    units += outcome.units;
  }
  EXPECT_EQ(units, 1u);
  ::rmdir(dir_template);
}

TEST(Fabric, TcpEphemeralPortWorksLikeUnixDomain) {
  support::Endpoint endpoint = support::parse_endpoint("tcp:127.0.0.1:0");
  const core::ScenarioSpec spec = base_spec(8);
  EXPECT_EQ(run_fabric(spec, 2, endpoint).report, monolithic_report(spec));
}

TEST(Fabric, MessageEngineScenariosTravelTheFabricToo) {
  char dir_template[30] = "/tmp/avglocal-fabric-XXXXXX";
  support::Endpoint endpoint;
  endpoint.kind = support::Endpoint::Kind::kUnix;
  endpoint.path = scratch_socket(dir_template);

  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id-msg";
  spec.ns = {64};
  spec.seed = 5;
  spec.schedule.max_trials = 8;
  EXPECT_EQ(run_fabric(spec, 2, endpoint).report, monolithic_report(spec));
  ::rmdir(dir_template);
}

TEST(Fabric, WorkerVanishingMidUnitIsRedispatchedAndStaysByteIdentical) {
  char dir_template[30] = "/tmp/avglocal-fabric-XXXXXX";
  support::Endpoint endpoint;
  endpoint.kind = support::Endpoint::Kind::kUnix;
  endpoint.path = scratch_socket(dir_template);

  const core::ScenarioSpec spec = base_spec(10);
  core::FabricOptions options;
  options.endpoint = endpoint;
  options.unit_trials = 3;
  options.straggler_ms = 60000;  // re-dispatch must come from the drop, not time
  core::RemoteBackend backend(spec, options);
  backend.start();
  const support::Endpoint bound = backend.endpoint();
  core::RemoteSweepOutcome outcome;
  std::thread runner([&backend, &outcome] { outcome = backend.run(); });

  // The casualty: takes a grant, then vanishes without delivering - the
  // protocol-level shape of a worker killed mid-unit.
  std::thread casualty([bound] {
    support::Stream stream;
    try {
      stream = support::Stream::connect_with_retry(bound, 5000);
    } catch (const std::exception& error) {
      ADD_FAILURE() << error.what();
      return;
    }
    std::string line;
    ASSERT_TRUE(stream.write_line("{\"op\":\"hello\",\"worker\":\"doomed\"}"));
    ASSERT_TRUE(stream.read_line(line));
    ASSERT_TRUE(stream.write_line("{\"op\":\"work-request\"}"));
    ASSERT_TRUE(stream.read_line(line));
    EXPECT_EQ(support::parse_json(line).at("op").as_string(), "work-grant");
    stream.close();  // dies holding the unit
  });
  casualty.join();  // the unit is now in a dropped session's hands

  std::thread survivor([bound] {
    core::FabricWorkerOptions worker;
    worker.endpoint = bound;
    worker.name = "survivor";
    worker.threads = 1;
    run_worker_thread(worker);
  });
  runner.join();
  survivor.join();

  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.report, monolithic_report(spec));
  EXPECT_GE(outcome.stats.redispatches, 1u);
  ::rmdir(dir_template);
}

TEST(Fabric, WorkerRejectsAGrantBeyondTheHellosTrials) {
  char dir_template[30] = "/tmp/avglocal-fabric-XXXXXX";
  support::Endpoint endpoint;
  endpoint.kind = support::Endpoint::Kind::kUnix;
  endpoint.path = scratch_socket(dir_template);

  // A coordinator whose hello scenario plans 4 trials but whose grant asks
  // for trials [0, 8): the worker must refuse the unit, not compute it. The
  // grant closes the connection, so a worker that wrongly runs the unit
  // ends as drained instead of looping.
  core::ScenarioSpec spec = base_spec(4);
  spec.ns = {64};
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  using support::JsonValue;
  using support::LineServer;
  LineServer server(
      1, {{"hello",
           [&resolved](std::uint64_t, const JsonValue&, LineServer::OpReply& reply) {
             support::JsonWriter& json = reply.fields();
             json.key("scenario");
             core::write_scenario_json(json, resolved.spec);
           }},
          {"work-request", [](std::uint64_t, const JsonValue&, LineServer::OpReply& reply) {
             support::JsonWriter& json = reply.fields("work-grant");
             json.key("unit").begin_object();
             json.key("id").value(std::uint64_t{0});
             json.key("point").value(std::uint64_t{0});
             json.key("trial_begin").value(std::uint64_t{0});
             json.key("trial_end").value(std::uint64_t{8});
             json.end_object();
             reply.close = true;
           }}});
  server.start(endpoint);
  std::thread accept_loop([&server] { server.run(); });

  core::FabricWorkerOptions worker;
  worker.endpoint = server.endpoint();
  bool granted = false;
  worker.on_grant = [&granted](const core::WorkUnit&) { granted = true; };
  try {
    (void)core::run_fabric_worker(worker);
    ADD_FAILURE() << "the worker accepted a grant past the hello's trial count";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("malformed unit"), std::string::npos)
        << error.what();
  }
  EXPECT_FALSE(granted);
  server.request_stop();
  accept_loop.join();
  ::rmdir(dir_template);
}

TEST(Fabric, RequestStopDrainsWithoutCompleting) {
  char dir_template[30] = "/tmp/avglocal-fabric-XXXXXX";
  support::Endpoint endpoint;
  endpoint.kind = support::Endpoint::Kind::kUnix;
  endpoint.path = scratch_socket(dir_template);

  core::FabricOptions options;
  options.endpoint = endpoint;
  core::RemoteBackend backend(base_spec(10), options);
  backend.start();
  std::thread runner([&backend] {
    const core::RemoteSweepOutcome outcome = backend.run();
    EXPECT_FALSE(outcome.complete);
    EXPECT_TRUE(outcome.report.empty());
  });
  // Simulates the SIGTERM handler: the signal-safe call alone must bring
  // the blocked accept loop down.
  backend.request_stop();
  runner.join();
  ::rmdir(dir_template);
}

// ------------------------------------------------------- cache hand-off ----

TEST(Fabric, RemotePartialsLandInTheResultCache) {
  char dir_template[30] = "/tmp/avglocal-fabric-XXXXXX";
  support::Endpoint endpoint;
  endpoint.kind = support::Endpoint::Kind::kUnix;
  endpoint.path = scratch_socket(dir_template);

  const core::ScenarioSpec spec = base_spec(10);
  core::ResultCache cache(core::ResultCacheOptions{1, 0});
  const std::string remote = run_fabric(spec, 2, endpoint, 3, &cache).report;
  EXPECT_EQ(remote, monolithic_report(spec));

  // The fabric's trials are in the resident cache now: the same request
  // is served warm, and an extension computes only the missing tail.
  const core::ResultCacheOutcome warm = cache.sweep(spec);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.trials_computed, 0u);
  EXPECT_EQ(warm.report, remote);

  const core::ScenarioSpec extended = base_spec(14);
  const core::ResultCacheOutcome extension = cache.sweep(extended);
  EXPECT_EQ(extension.trials_computed, 4u * spec.ns.size());
  EXPECT_EQ(extension.report, monolithic_report(extended));
  ::rmdir(dir_template);
}

TEST(ResultCache, OfferPartialsRejectsWrongShapesAndShorterRanges) {
  const core::ScenarioSpec spec = base_spec(8);
  core::ResultCache cache(core::ResultCacheOptions{1, 0});

  // Wrong count: one accumulator for a two-point sweep.
  EXPECT_FALSE(cache.offer_partials(spec, std::vector<core::PointAccumulator>(1)));

  // The real thing: partials from a monolithic shard run are accepted...
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  std::vector<core::PointAccumulator> partials =
      core::run_scenario_shard(resolved, {}, core::SweepShard{0, 2, 0, 8});
  EXPECT_TRUE(cache.offer_partials(spec, std::move(partials)));
  EXPECT_TRUE(cache.sweep(spec).warm);

  // ...but a shorter cover than what's cached is not worth keeping.
  std::vector<core::PointAccumulator> shorter =
      core::run_scenario_shard(resolved, {}, core::SweepShard{0, 2, 0, 4});
  EXPECT_FALSE(cache.offer_partials(spec, std::move(shorter)));
}

}  // namespace
