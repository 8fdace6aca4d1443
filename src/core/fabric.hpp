// The distributed sweep fabric: a coordinator/worker execution topology
// over the socket layer (support/socket.hpp, Unix-domain or TCP), with
// dynamic work stealing and straggler re-dispatch.
//
// The coordinator decomposes one fixed-schedule scenario sweep into
// (point, trial-range) WorkUnits and streams them to worker processes
// over a pull-based protocol - workers request work when idle, so load
// balance emerges from the pull pattern instead of a static
// pre-partition. The ops, in support::LineServer's envelope:
//
//   {"op":"hello","worker":NAME}
//     -> {"ok":true,"op":"hello","scenario":{...}}
//        (the canonical scenario block, which also fixes the plan's points
//        and trials; the worker resolves it once and serves every unit
//        from the same resident engines)
//   {"op":"work-request"}
//     -> {"ok":true,"op":"work-grant",
//         "unit":{"id":I,"point":P,"trial_begin":A,"trial_end":B}}
//     -> {"ok":true,"op":"shutdown"}             all units accepted; the
//        worker exits
//     -> {"ok":true,"op":"shutdown","drained":true}  the coordinator is
//        stopping before completion (SIGTERM); the worker exits drained
//   A work-request that finds nothing grantable (every remaining unit is in
//   flight and none is overdue) is not answered at once: it waits in the
//   coordinator and takes whichever of the replies above the next event
//   allows - an accepted result (maybe the last one), a released session,
//   or the earliest straggler deadline passing. The wait also re-checks a
//   stop request every few milliseconds (a SIGTERM handler cannot notify),
//   which bounds only how late a waiting worker learns of the drain.
//   {"op":"result","unit":I,"artefact":"<shard artefact JSON>"}
//     -> {"ok":true,"op":"result","accepted":true|false}
//
// Results travel as the existing v4 shard artefacts (core/shard.hpp): one
// ShardDocument whose shard rectangle is exactly the unit's (one point,
// the unit's trial range), whose header must equal the coordinator's
// resolved (canonical) scenario, and whose one accumulator must pass
// ResolvedScenario::matches_partial for the unit - a worker that somehow
// ran a different workload, or sent a body that disagrees with its
// header, is rejected (the unit stays in flight), not merged.
//
// Straggler policy: every grant stamps a deadline (steady_clock,
// FabricOptions::straggler_ms ahead). A unit past its deadline - or held
// only by a worker whose connection dropped - becomes grantable again: an
// idle worker already waiting takes it at that moment, otherwise the next
// work-request does. The first artefact accepted for a unit id wins;
// later copies are discarded (counted, never merged), so a straggler that
// eventually delivers is harmless.
//
// The determinism rule that makes any of this safe: unit ids are assigned
// point-major in ascending trial order, and the merge appends accepted
// accumulators in unit-id order per point. Worker count, steal order,
// straggler kills and arrival order therefore cannot appear in the output
// - the merged partials, and the report finalized from them, are byte-
// identical to the monolithic sweep. (The arrival-order-dependence lint
// check pins the "index by unit id, never by connection" half of this.)
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/shard.hpp"
#include "support/line_server.hpp"

namespace avglocal::core {

/// One (point, trial-range) unit of a fabric sweep: trials
/// [trial_begin, trial_end) of sweep point `point`. Ids are point-major in
/// ascending trial order, so unit-id order IS canonical trial order.
struct WorkUnit {
  std::size_t id = 0;
  std::size_t point = 0;
  std::size_t trial_begin = 0;
  std::size_t trial_end = 0;

  friend bool operator==(const WorkUnit&, const WorkUnit&) = default;
};

/// Decomposes points x [0, trials) into units of at most `unit_trials`
/// trials each (the last unit of a point takes the remainder), id-ordered
/// point-major ascending. unit_trials == 0 picks trials/8 (rounded up) -
/// enough granularity for stealing without drowning in round trips.
std::vector<WorkUnit> plan_work_units(std::size_t points, std::size_t trials,
                                      std::size_t unit_trials);

/// Pure dispatch bookkeeping for the coordinator: which units are pending,
/// in flight (with deadline and dispatch count) or done. No clock and no
/// locking inside - callers pass `now_ms` in and serialise access - so
/// every policy decision is unit-testable without sockets or sleeps.
class WorkQueue {
 public:
  WorkQueue(std::vector<WorkUnit> units, std::uint64_t straggler_ms);

  /// Picks the unit to grant `session`: the lowest-id pending unit, else
  /// the most re-dispatch-worthy overdue in-flight unit (fewest dispatches
  /// first, lowest id to break ties), else nothing (the caller waits for
  /// the next event). Stamps the deadline and records the holder.
  std::optional<WorkUnit> grant(std::uint64_t session, std::uint64_t now_ms);

  /// The earliest deadline among in-flight units, nullopt when none is in
  /// flight: from then on grant() has an overdue unit to hand out. A unit
  /// whose holder was released reads 0.
  std::optional<std::uint64_t> next_deadline_ms() const;

  /// First result for a unit wins: returns true exactly once per unit id;
  /// every later call is a duplicate to discard.
  bool accept(std::size_t unit_id);

  /// Makes every unfinished unit held by `session` immediately grantable
  /// again (the worker's connection dropped; waiting out its deadline
  /// would only slow re-dispatch).
  void release(std::uint64_t session);

  bool complete() const { return done_ == units_.size(); }
  std::size_t unit_count() const { return units_.size(); }
  std::size_t done_count() const { return done_; }
  /// Grants beyond the first per unit (the steal/straggler traffic).
  std::uint64_t redispatches() const { return redispatches_; }
  const std::vector<WorkUnit>& units() const { return units_; }

 private:
  struct UnitState {
    enum class Status { kPending, kInFlight, kDone };
    Status status = Status::kPending;
    std::size_t dispatches = 0;
    std::uint64_t deadline_ms = 0;
    std::vector<std::uint64_t> holders;
  };

  std::vector<WorkUnit> units_;
  std::vector<UnitState> states_;
  std::uint64_t straggler_ms_ = 0;
  std::size_t done_ = 0;
  std::uint64_t redispatches_ = 0;
};

struct FabricOptions {
  /// Where the coordinator listens (unix:path or tcp:host:port; TCP port 0
  /// resolves to an ephemeral port, see endpoint() after start()).
  support::Endpoint endpoint;
  /// Trials per work unit; 0 = trials/8 rounded up (plan_work_units).
  std::size_t unit_trials = 0;
  /// A unit unfinished this long after its grant is fair game for
  /// re-dispatch to the next idle worker.
  std::uint64_t straggler_ms = 2000;
  /// Concurrent worker connections; one past this gets a busy error line.
  std::size_t max_workers = 16;
};

/// Monotone counters over one coordinator run.
struct FabricStats {
  std::uint64_t workers_seen = 0;          ///< hello ops handled
  std::uint64_t units_granted = 0;         ///< work-grant replies (re-dispatches included)
  std::uint64_t redispatches = 0;          ///< grants beyond the first per unit
  std::uint64_t results_accepted = 0;      ///< first artefact per unit id
  std::uint64_t duplicates_discarded = 0;  ///< later artefacts per unit id
};

/// The coordinator: the ops above on a support::LineServer, over the
/// WorkQueue and the accepted per-unit accumulators. run() returns once
/// every unit is accepted (normal completion: the server stops accepting,
/// and each worker - waiting ones included - leaves after its shutdown
/// reply) or a stop was requested (SIGTERM drain - waiting workers get the
/// drained shutdown, the rest see EOF, and all exit cleanly).
class FabricCoordinator {
 public:
  FabricCoordinator(ResolvedScenario resolved, const FabricOptions& options);
  FabricCoordinator(const FabricCoordinator&) = delete;  // the handlers hold `this`
  FabricCoordinator& operator=(const FabricCoordinator&) = delete;

  /// Binds the listener. Separate from run() so callers can install
  /// signal handlers - and read the resolved endpoint - before accepting.
  void start();

  /// The bound endpoint with TCP port 0 resolved to the real port.
  const support::Endpoint& endpoint() const noexcept { return server_.endpoint(); }

  /// Accept loop; returns with every handler joined once the sweep is
  /// complete or a stop was requested.
  void run();

  /// Async-signal-safe stop request (LineServer::request_stop): the
  /// SIGTERM handler's one call. Workers' connections are half-closed by
  /// run()'s teardown, which they treat as an orderly drain.
  void request_stop() noexcept { server_.request_stop(); }

  bool stopping() const noexcept { return server_.stopping(); }
  bool complete() const;
  FabricStats stats() const;
  const std::vector<WorkUnit>& work_units() const { return work_units_; }

  /// Accepted accumulators by unit id (a slot is empty only after an
  /// aborted run). Call after run() returned.
  std::vector<std::optional<PointAccumulator>> take_unit_results();

  /// LineServer::handle on the coordinator's ops (a shutdown reply has
  /// `close` set). Public so protocol tests can run without sockets; a
  /// work-request with nothing grantable blocks until an event decides it.
  support::LineServer::Reply handle_request(std::uint64_t session, const std::string& line) {
    return server_.handle(session, line);
  }

  /// Releases every unit `session` still holds (its connection dropped).
  /// Public for the same socket-free tests.
  void release_session(std::uint64_t session);

 private:
  using OpReply = support::LineServer::OpReply;

  std::uint64_t now_ms() const;
  // The op table's handlers.
  void hello(std::uint64_t session, const support::JsonValue& request, OpReply& reply);
  void work_request(std::uint64_t session, const support::JsonValue& request, OpReply& reply);
  void result(std::uint64_t session, const support::JsonValue& request, OpReply& reply);

  FabricOptions options_;
  ResolvedScenario resolved_;          ///< every artefact's header must equal its spec
  std::vector<WorkUnit> work_units_;   ///< the immutable plan, by unit id
  std::chrono::steady_clock::time_point epoch_;  ///< origin of now_ms()

  mutable std::mutex mutex_;  ///< guards queue_, unit_results_, stats_
  /// Notified once a result is accepted or a session is released (both
  /// change queue_ under mutex_): the events that can decide a waiting
  /// work-request, besides a deadline passing and a stop request.
  std::condition_variable work_changed_;
  WorkQueue queue_;
  std::vector<std::optional<PointAccumulator>> unit_results_;
  FabricStats stats_;

  support::LineServer server_;  ///< last: its handler threads use the members above
};

struct FabricWorkerOptions {
  support::Endpoint endpoint;  ///< the coordinator's endpoint
  std::string name = "worker";
  /// Execution knobs for this worker's sweep pool (never change results).
  std::size_t threads = 0;
  std::size_t batch = 0;
  /// Window for connect_with_retry while the coordinator is still binding.
  long connect_timeout_ms = 5000;
  /// Test hook, called once per granted unit before it runs (the CLI's
  /// failure-injection env vars arrive through this; empty in production).
  std::function<void(const WorkUnit&)> on_grant;
};

struct FabricWorkerOutcome {
  std::size_t units = 0;   ///< artefacts submitted (accepted or not)
  std::size_t trials = 0;  ///< trials computed, summed over units
  /// The coordinator stopped before completion: a drained shutdown reply
  /// (what a worker waiting for a grant gets), or the connection closed
  /// before any shutdown op - the orderly SIGTERM-drain (or
  /// completion-race) exit, not an error.
  bool drained = false;
};

/// Runs one worker against a coordinator: hello, resolve the scenario the
/// coordinator sent, then pull-execute-submit until shutdown or drain. A
/// work-request's reply may take as long as the coordinator has nothing to
/// grant; the worker just blocks on it.
/// Units run on one ScenarioSession for the whole connection, so a point's
/// graph and engines are built once and reused by all its units. Throws
/// std::runtime_error on connection failures before hello completes and on
/// protocol errors, including a grant outside the hello scenario's points x
/// trials.
FabricWorkerOutcome run_fabric_worker(const FabricWorkerOptions& options);

/// Recombines accepted unit results into one accumulator per sweep point,
/// appending in unit-id order - canonical trial order by construction, so
/// the output is bit-identical to the monolithic sweep's partials no
/// matter which worker produced which unit or when it landed. Throws
/// std::runtime_error if any unit result is missing (aborted run).
std::vector<PointAccumulator> merge_unit_results(
    const std::vector<WorkUnit>& units,
    std::vector<std::optional<PointAccumulator>> unit_results, std::size_t point_count);

}  // namespace avglocal::core
