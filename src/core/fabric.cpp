#include "core/fabric.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "support/assert.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace avglocal::core {

namespace {

using support::JsonValue;
using support::JsonWriter;

/// How often a waiting work-request re-checks for a stop request.
/// request_stop() runs inside a signal handler and cannot notify, so this
/// bounds only how late a waiting worker learns of a SIGTERM drain; every
/// other event that decides a wait notifies it.
constexpr std::uint64_t kStopCheckMs = 20;

}  // namespace

// -------------------------------------------------------- plan_work_units ----

std::vector<WorkUnit> plan_work_units(std::size_t points, std::size_t trials,
                                      std::size_t unit_trials) {
  AVGLOCAL_EXPECTS(points > 0 && trials > 0);
  if (unit_trials == 0) unit_trials = (trials + 7) / 8;
  std::vector<WorkUnit> units;
  units.reserve(points * ((trials + unit_trials - 1) / unit_trials));
  std::size_t id = 0;
  for (std::size_t point = 0; point < points; ++point) {
    for (std::size_t begin = 0; begin < trials; begin += unit_trials) {
      WorkUnit unit;
      unit.id = id++;
      unit.point = point;
      unit.trial_begin = begin;
      unit.trial_end = std::min(begin + unit_trials, trials);
      units.push_back(unit);
    }
  }
  return units;
}

// -------------------------------------------------------------- WorkQueue ----

WorkQueue::WorkQueue(std::vector<WorkUnit> units, std::uint64_t straggler_ms)
    : units_(std::move(units)), states_(units_.size()), straggler_ms_(straggler_ms) {
  for (std::size_t index = 0; index < units_.size(); ++index) {
    AVGLOCAL_EXPECTS_MSG(units_[index].id == index, "work units must be id-ordered");
  }
}

std::optional<WorkUnit> WorkQueue::grant(std::uint64_t session, std::uint64_t now_ms) {
  // Pending units first, in id order: fresh work beats re-running a
  // straggler's unit, and id order keeps grants reproducible given the
  // same request sequence.
  std::size_t chosen = units_.size();
  for (std::size_t index = 0; index < units_.size(); ++index) {
    if (states_[index].status == UnitState::Status::kPending) {
      chosen = index;
      break;
    }
  }
  if (chosen == units_.size()) {
    // No pending work. Re-dispatch the most starved overdue unit: fewest
    // dispatches first (a unit re-granted twice already is likely held by
    // a live-but-slow worker), lowest id to break ties.
    for (std::size_t index = 0; index < units_.size(); ++index) {
      const UnitState& state = states_[index];
      if (state.status != UnitState::Status::kInFlight || state.deadline_ms > now_ms) continue;
      if (chosen == units_.size() || state.dispatches < states_[chosen].dispatches) {
        chosen = index;
      }
    }
    if (chosen == units_.size()) return std::nullopt;
    ++redispatches_;
  }
  UnitState& state = states_[chosen];
  state.status = UnitState::Status::kInFlight;
  ++state.dispatches;
  state.deadline_ms = now_ms + straggler_ms_;
  state.holders.push_back(session);
  return units_[chosen];
}

bool WorkQueue::accept(std::size_t unit_id) {
  AVGLOCAL_EXPECTS(unit_id < units_.size());
  UnitState& state = states_[unit_id];
  if (state.status == UnitState::Status::kDone) return false;
  state.status = UnitState::Status::kDone;
  state.holders.clear();
  ++done_;
  return true;
}

std::optional<std::uint64_t> WorkQueue::next_deadline_ms() const {
  std::optional<std::uint64_t> earliest;
  for (const UnitState& state : states_) {
    if (state.status != UnitState::Status::kInFlight) continue;
    if (!earliest || state.deadline_ms < *earliest) earliest = state.deadline_ms;
  }
  return earliest;
}

void WorkQueue::release(std::uint64_t session) {
  for (UnitState& state : states_) {
    if (state.status != UnitState::Status::kInFlight) continue;
    for (const std::uint64_t holder : state.holders) {
      if (holder == session) {
        // Zeroing the deadline makes the unit immediately overdue; if a
        // second holder is still computing it, the duplicate its copy
        // would produce is discarded by accept() anyway.
        state.deadline_ms = 0;
        break;
      }
    }
  }
}

// ------------------------------------------------------ FabricCoordinator ----

FabricCoordinator::FabricCoordinator(ResolvedScenario resolved, const FabricOptions& options)
    : options_(options),
      resolved_(std::move(resolved)),
      work_units_(plan_work_units(resolved_.spec.ns.size(), resolved_.spec.schedule.max_trials,
                                  options.unit_trials)),
      epoch_(std::chrono::steady_clock::now()),
      queue_(work_units_, options.straggler_ms),
      unit_results_(work_units_.size()),
      server_(
          options.max_workers,
          {
              {"hello", std::bind_front(&FabricCoordinator::hello, this)},
              {"work-request", std::bind_front(&FabricCoordinator::work_request, this)},
              {"result", std::bind_front(&FabricCoordinator::result, this)},
          },
          // Whatever a closed connection still held goes back into
          // circulation: a vanished worker must not stall the sweep for a
          // full straggler window.
          [this](std::uint64_t session) { release_session(session); }) {
  AVGLOCAL_EXPECTS_MSG(!resolved_.spec.schedule.adaptive(),
                       "the fabric runs fixed schedules only: an adaptive trial count is "
                       "decided by the monolithic driver");
}

void FabricCoordinator::start() { server_.start(options_.endpoint); }

void FabricCoordinator::run() { server_.run(); }

bool FabricCoordinator::complete() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.complete();
}

FabricStats FabricCoordinator::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  FabricStats stats = stats_;
  stats.redispatches = queue_.redispatches();
  return stats;
}

std::vector<std::optional<PointAccumulator>> FabricCoordinator::take_unit_results() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(unit_results_);
}

std::uint64_t FabricCoordinator::now_ms() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count());
}

void FabricCoordinator::hello(std::uint64_t, const JsonValue&, OpReply& reply) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.workers_seen;
  }
  JsonWriter& json = reply.fields();
  json.key("scenario");
  write_scenario_json(json, resolved_.spec);
}

void FabricCoordinator::work_request(std::uint64_t session, const JsonValue&, OpReply& reply) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping() || queue_.complete()) {
      // A stop before completion is a drain, and says so: the worker must
      // not mistake it for a finished sweep.
      JsonWriter& json = reply.fields("shutdown");
      if (!queue_.complete()) json.key("drained").value(true);
      reply.close = true;
      return;
    }
    const std::uint64_t now = now_ms();
    if (const std::optional<WorkUnit> unit = queue_.grant(session, now)) {
      ++stats_.units_granted;
      JsonWriter& json = reply.fields("work-grant");
      json.key("unit").begin_object();
      json.key("id").value(static_cast<std::uint64_t>(unit->id));
      json.key("point").value(static_cast<std::uint64_t>(unit->point));
      json.key("trial_begin").value(static_cast<std::uint64_t>(unit->trial_begin));
      json.key("trial_end").value(static_cast<std::uint64_t>(unit->trial_end));
      json.end_object();
      return;
    }
    // Nothing grantable: every remaining unit is in flight and none is
    // overdue. Sleep until an accepted result or a released session
    // notifies, the earliest deadline passes, or the stop re-check is due,
    // then decide again.
    std::uint64_t wait_ms = kStopCheckMs;
    if (const std::optional<std::uint64_t> deadline = queue_.next_deadline_ms()) {
      wait_ms = std::min(wait_ms, *deadline > now ? *deadline - now : 0);
    }
    work_changed_.wait_for(lock, std::chrono::milliseconds(wait_ms));
  }
}

void FabricCoordinator::result(std::uint64_t, const JsonValue& request, OpReply& reply) {
  const std::size_t unit_id = request.at("unit").as_u64();
  if (unit_id >= work_units_.size()) {
    throw std::runtime_error("unknown unit id " + std::to_string(unit_id));
  }
  const WorkUnit& unit = work_units_[unit_id];
  ShardDocument doc = parse_shard_json(request.at("artefact").as_string());
  if (doc.meta != resolved_.spec) {
    throw std::runtime_error("artefact meta does not match this sweep's plan");
  }
  const SweepShard expected{unit.point, unit.point + 1, unit.trial_begin, unit.trial_end};
  if (doc.shard != expected || doc.points.size() != 1) {
    throw std::runtime_error("artefact rectangle does not match unit " + std::to_string(unit_id));
  }
  // The body, not the header, is what would be merged.
  if (!resolved_.matches_partial(doc.points.front(), unit.point, unit.trial_begin,
                                 unit.trial_end)) {
    throw std::runtime_error("artefact body does not match unit " + std::to_string(unit_id));
  }
  bool accepted = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accepted = queue_.accept(unit_id);
    if (accepted) {
      // Keyed by unit id, never by session or arrival order: the merge
      // below reads this vector front to back.
      unit_results_[unit_id] = std::move(doc.points.front());
      ++stats_.results_accepted;
    } else {
      ++stats_.duplicates_discarded;
    }
    // Completion ends the accept loop without a drain: every connected
    // worker leaves after the shutdown reply to its next (or waiting)
    // work-request.
    if (queue_.complete()) server_.stop_accepting();
  }
  if (accepted) work_changed_.notify_all();
  reply.fields().key("accepted").value(accepted);
}

void FabricCoordinator::release_session(std::uint64_t session) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.release(session);
  }
  work_changed_.notify_all();
}

// ------------------------------------------------------ run_fabric_worker ----

FabricWorkerOutcome run_fabric_worker(const FabricWorkerOptions& options) {
  FabricWorkerOutcome outcome;
  support::Stream stream =
      support::Stream::connect_with_retry(options.endpoint, options.connect_timeout_ms);

  // Hello: learn the workload from the coordinator - the worker is
  // workload-agnostic and resolves the canonical scenario block exactly
  // like every other consumer.
  {
    JsonWriter hello;
    hello.begin_object();
    hello.key("op").value("hello");
    hello.key("worker").value(options.name);
    hello.end_object();
    if (!stream.write_line(hello.str())) {
      throw std::runtime_error("fabric hello: coordinator hung up");
    }
  }
  std::string line;
  if (!stream.read_line(line)) {
    throw std::runtime_error("fabric hello: no reply from coordinator");
  }
  const JsonValue hello_reply = support::parse_reply(line, "fabric hello rejected: ");
  // One session for the whole run: a point is prepared on its first unit.
  ScenarioSession session(resolve_scenario(scenario_from_json(hello_reply.at("scenario"))),
                          ScenarioExecution{options.threads, options.batch, nullptr});
  const ScenarioSpec& spec = session.resolved().spec;

  for (;;) {
    JsonWriter request;
    request.begin_object();
    request.key("op").value("work-request");
    request.end_object();
    if (!stream.write_line(request.str()) || !stream.read_line(line)) {
      outcome.drained = true;  // coordinator drained us (SIGTERM teardown)
      return outcome;
    }
    const JsonValue reply = support::parse_reply(line, "fabric work-request rejected: ");
    const std::string& op = reply.at("op").as_string();
    if (op == "shutdown") {
      const JsonValue* drained = reply.find("drained");
      outcome.drained = drained != nullptr && drained->as_bool();
      return outcome;
    }
    if (op != "work-grant") {
      throw std::runtime_error("fabric work-request: unexpected reply op '" + op + "'");
    }

    const JsonValue& granted = reply.at("unit");
    WorkUnit unit;
    unit.id = granted.at("id").as_u64();
    unit.point = granted.at("point").as_u64();
    unit.trial_begin = granted.at("trial_begin").as_u64();
    unit.trial_end = granted.at("trial_end").as_u64();
    if (unit.point >= spec.ns.size() || unit.trial_begin >= unit.trial_end ||
        unit.trial_end > spec.schedule.max_trials) {
      throw std::runtime_error("fabric work-grant: malformed unit");
    }
    if (options.on_grant) options.on_grant(unit);

    ShardDocument doc;
    doc.meta = spec;
    doc.shard = SweepShard{unit.point, unit.point + 1, unit.trial_begin, unit.trial_end};
    doc.points.push_back(session.run_trials(unit.point, unit.trial_begin, unit.trial_end));

    JsonWriter result;
    result.begin_object();
    result.key("op").value("result");
    result.key("unit").value(static_cast<std::uint64_t>(unit.id));
    result.key("artefact").value(shard_to_json(doc));
    result.end_object();
    if (!stream.write_line(result.str()) || !stream.read_line(line)) {
      outcome.drained = true;  // hung up between our submit and its ack
      return outcome;
    }
    support::parse_reply(line, "fabric result rejected: ");  // accepted or duplicate - both fine
    ++outcome.units;
    outcome.trials += unit.trial_end - unit.trial_begin;
  }
}

// ----------------------------------------------------- merge_unit_results ----

std::vector<PointAccumulator> merge_unit_results(
    const std::vector<WorkUnit>& units,
    std::vector<std::optional<PointAccumulator>> unit_results, std::size_t point_count) {
  AVGLOCAL_EXPECTS(units.size() == unit_results.size());
  std::vector<PointAccumulator> merged;
  merged.reserve(point_count);
  // Unit ids are point-major in ascending trial order, so a single id-
  // ordered pass appends each point's ranges in canonical trial order.
  // Nothing here knows which worker produced a unit or when it arrived.
  for (std::size_t index = 0; index < units.size(); ++index) {
    if (!unit_results[index].has_value()) {
      throw std::runtime_error("fabric merge: unit " + std::to_string(units[index].id) +
                               " has no accepted result (aborted run?)");
    }
    PointAccumulator& partial = *unit_results[index];
    if (units[index].trial_begin == 0) {
      merged.push_back(std::move(partial));
    } else {
      AVGLOCAL_REQUIRE_MSG(!merged.empty() && merged.back().point_index == units[index].point,
                           "fabric merge: unit ids out of point-major order");
      merged.back().append(std::move(partial));
    }
  }
  AVGLOCAL_REQUIRE_MSG(merged.size() == point_count,
                       "fabric merge: units do not cover every sweep point");
  return merged;
}

}  // namespace avglocal::core
