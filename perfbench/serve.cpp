// Workload `serve-mix`: an in-process core::Server on a Unix socket, driven
// by a closed loop of three client connections.
//
// Why it exists: reads beside writes on one result cache. About 80 % of
// the requests are warm repeats (memoised report bytes) and 20 % extend a
// workload by 4 trials (resident engines compute only the new tail). The
// cache serialises compute under one mutex, so warm repeats queue behind
// extensions; warm_p99_ms and cache.wait_ms show that queueing. Engine
// work per request is small; the cache, serialization and the socket
// carry the load. The view-sweep and fabric paths are not used.
//
// Identities: each client owns its own workloads (distinct seeds), so the
// path every request takes (hit, extension or miss) is fixed by the seed,
// never by thread interleaving, and every cache.* count repeats exactly.
// Per client: largest-id on a cycle (n = 8192), greedy on a torus
// (n = 4096), local3 on a cycle (n = 4096) and largest-id-msg on a cycle
// (n = 128) - both engines. Client 0 also owns one node_profile cv3
// identity at n = 2^16, whose ~1 MB reports load serialization and the
// socket. Memoised report bytes are never evicted, so peak_rss_mb grows
// with the plan.
//
// Closed loop: each client sends its next request only after the reply to
// the previous one; the plan has 1200 requests. A round is a fresh daemon,
// its cold fill and the whole plan; rounds repeat until --seconds is spent.
// setup_s is daemon construction and bind plus one cold request per
// identity (the cache fill); sweep_s is the wall time of the plan (medians
// over rounds); requests_per_s is requests served over loop time;
// peak_rss_mb is the process high-water mark over the first round, a fresh
// daemon serving the plan once. (Later rounds start higher: after a daemon
// is destroyed and the heap trimmed, 20-40 MB per round stay resident.)
//
// Correctness: every reply is ok; every warm reply's report equals the
// first reply for that schedule; every identity's final computed report
// equals run_scenario's bytes; the cache counts equal the plan's.
//
// Traced: the same set-up and loop with a span per request, then
// uncontended probes - direct ResultCache::sweep and Server::handle_request
// calls and a lone socket client - and a replay of each identity's cold
// fill and first extensions through SweepDriver with the forwarding
// backend (per-layer times of serve-mix are per extension, medians).
// perfbench_allocs runs the one-thread replay alone to count allocations.
#include <latch>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "core/serve.hpp"
#include "core/sweep_driver.hpp"
#include "scenarios.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "support/socket.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace avglocal;

constexpr std::size_t kClients = 3;
constexpr std::size_t kInitialTrials = 8;
constexpr std::size_t kExtendBy = 4;
constexpr std::size_t kExtendOneIn = 5;  // 20 % extensions
constexpr std::size_t kPlanRequests = 1200;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxRounds = 100;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kReplayExtensions = 2;

struct Identity {
  core::ScenarioSpec spec;  ///< resolved (canonical); schedule set per request
  std::size_t client = 0;
};

std::vector<Identity> serve_identities(const Options& options) {
  const bool toy = options.toy;
  std::vector<Identity> identities;
  for (std::size_t c = 0; c < kClients; ++c) {
    const auto add = [&](const char* family, const char* algorithm, std::size_t n,
                         bool node_profile = false) {
      const std::uint64_t seed = scenario_seed(options.seed, 100 + 10 * c + identities.size());
      core::ScenarioSpec spec =
          make_spec(family, algorithm, n, kInitialTrials, seed, node_profile);
      identities.push_back({core::resolve_scenario(spec).spec, c});
    };
    add("cycle", "largest-id", toy ? 256 : 8192);
    add("torus", "greedy", toy ? 256 : 4096);
    add("cycle", "local3", toy ? 256 : 4096);
    add("cycle", "largest-id-msg", toy ? 32 : 128);
    if (c == 0) add("cycle", "cv3", toy ? 1024 : 65536, true);
  }
  return identities;
}

core::ScenarioSpec with_trials(core::ScenarioSpec spec, std::size_t trials) {
  spec.schedule.max_trials = trials;
  return spec;
}

std::string sweep_line(const core::ScenarioSpec& spec) {
  support::JsonWriter json;
  json.begin_object();
  json.key("op").value("sweep");
  json.key("scenario");
  core::write_scenario_json(json, spec);
  json.end_object();
  return json.str();
}

struct Request {
  std::size_t identity = 0;
  std::size_t trials = 0;
  bool extend = false;
  std::string line;
};

/// The seeded closed-loop plan, one request list per client. Each client
/// spreads its requests evenly over its identities, one in kExtendOneIn of
/// them an extension (kExtendBy more trials), so every seed leaves the
/// cache the same size; the seed fixes the order and which served trial
/// count each warm repeat asks for again.
std::vector<std::vector<Request>> make_plan(const Options& options,
                                            const std::vector<Identity>& identities,
                                            std::vector<std::size_t>& final_trials) {
  const std::size_t per_client = (options.toy ? 60 : kPlanRequests) / kClients;
  std::vector<std::vector<std::size_t>> served(identities.size(), {kInitialTrials});
  final_trials.assign(identities.size(), kInitialTrials);
  std::vector<std::vector<Request>> plan(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    std::vector<std::size_t> own;
    for (std::size_t i = 0; i < identities.size(); ++i) {
      if (identities[i].client == c) own.push_back(i);
    }
    std::vector<Request>& requests = plan[c];
    for (std::size_t r = 0; r < per_client; ++r) {
      Request request;
      request.identity = own[r % own.size()];
      request.extend = (r / own.size()) % kExtendOneIn == 0;
      requests.push_back(request);
    }
    std::mt19937_64 rng(scenario_seed(options.seed, 200 + c));
    for (std::size_t r = requests.size(); r > 1; --r) {
      std::swap(requests[r - 1], requests[rng() % r]);
    }
    for (Request& request : requests) {
      std::vector<std::size_t>& history = served[request.identity];
      if (request.extend) {
        request.trials = final_trials[request.identity] += kExtendBy;
        history.push_back(request.trials);
      } else {
        request.trials = history[rng() % history.size()];
      }
      request.line = sweep_line(with_trials(identities[request.identity].spec, request.trials));
    }
  }
  return plan;
}

/// Hash of a sweep reply's report value (everything from the "report" key
/// on): equal hashes mean equal report bytes.
std::size_t report_hash(std::string_view reply) {
  const std::size_t at = reply.find("\"report\":");
  return std::hash<std::string_view>{}(at == std::string_view::npos ? reply : reply.substr(at));
}

bool reply_ok(std::string_view reply, bool warm) {
  return reply.rfind("{\"ok\":true", 0) == 0 &&
         reply.find(warm ? "\"warm\":true" : "\"warm\":false") != std::string_view::npos;
}

/// Per-client record of one closed-loop run.
struct ClientLog {
  std::vector<double> warm_ms;
  std::vector<double> extend_ms;
  std::vector<std::string> failures;
  std::size_t checked = 0;
};

/// A running daemon: Server plus its accept thread. The destructor stops
/// and joins it.
class Daemon {
 public:
  explicit Daemon(const std::string& path) {
    core::ServeOptions options;
    options.socket_path = path;
    options.threads = hardware_threads();
    options.max_clients = 2 * kClients;
    server_ = std::make_unique<core::Server>(options);
    server_->start();
    thread_ = std::thread([this] { server_->run(); });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    server_->request_stop();
    thread_.join();
  }
  core::Server& server() { return *server_; }

 private:
  std::unique_ptr<core::Server> server_;
  std::thread thread_;  // last: runs server_
};

/// Everything the set-up and the loop learn about served reports.
struct Served {
  /// First report hash per (identity, trials).
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> first;
  /// Last computed (cold or extension) reply per identity.
  std::vector<std::string> last_computed;
};

/// Cold-fills a fresh daemon: one request per identity, sequentially.
void cold_fill(const std::string& path, const std::vector<Identity>& identities, Served& served,
               Result& result) {
  support::Stream client = support::Stream::connect(path);
  served.last_computed.assign(identities.size(), "");
  for (std::size_t i = 0; i < identities.size(); ++i) {
    std::string reply;
    const bool sent = client.write_line(sweep_line(with_trials(identities[i].spec,
                                                               kInitialTrials))) &&
                      client.read_line(reply);
    result.check(sent && reply_ok(reply, false), "serve-mix: cold request failed: " +
                                                     reply.substr(0, 200));
    served.first[{i, kInitialTrials}] = report_hash(reply);
    served.last_computed[i] = std::move(reply);
  }
}

/// Runs the closed loop; returns its wall time.
double closed_loop(const std::string& path, const std::vector<std::vector<Request>>& plan,
                   Served& served, std::vector<ClientLog>& logs, Tracer* tracer) {
  logs.assign(kClients, {});
  std::vector<Served> own(kClients, served);
  std::latch start(kClients + 1);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      Served& mine = own[c];
      support::Stream stream;
      try {
        stream = support::Stream::connect(path);
      } catch (const std::exception& error) {
        log.failures.push_back(std::string("connect: ") + error.what());
      }
      start.arrive_and_wait();
      if (!stream.valid()) return;
      std::string reply;
      for (std::size_t r = 0; r < plan[c].size(); ++r) {
        const Request& request = plan[c][r];
        const Clock::time_point sent = Clock::now();
        bool ok = false;
        if (tracer != nullptr) {
          const ScopedSpan span(*tracer, "serve.request", c * plan[c].size() + r,
                                request.extend ? "extend" : "warm");
          ok = stream.write_line(request.line) && stream.read_line(reply);
        } else {
          ok = stream.write_line(request.line) && stream.read_line(reply);
        }
        const double ms = 1e3 * seconds_since(sent);
        (request.extend ? log.extend_ms : log.warm_ms).push_back(ms);

        ++log.checked;
        const std::size_t hash = report_hash(reply);
        const std::pair<std::size_t, std::size_t> key{request.identity, request.trials};
        if (!ok || !reply_ok(reply, !request.extend)) {
          log.failures.push_back("request failed: " + reply.substr(0, 200));
        } else if (request.extend) {
          mine.first[key] = hash;
          mine.last_computed[request.identity] = reply;
        } else if (const auto first = mine.first.find(key);
                   first == mine.first.end() || first->second != hash) {
          log.failures.push_back("warm reply differs from the first reply for its schedule");
        }
      }
    });
  }
  start.arrive_and_wait();
  const Clock::time_point begin = Clock::now();
  for (std::thread& client : clients) client.join();
  const double wall = seconds_since(begin);
  // Identities are client-owned, so each client's records of its own
  // identities are the only ones that changed.
  for (std::size_t c = 0; c < kClients; ++c) {
    for (const auto& [key, hash] : own[c].first) served.first[key] = hash;
    for (const Request& request : plan[c]) {
      if (request.extend) {
        served.last_computed[request.identity] = own[c].last_computed[request.identity];
      }
    }
  }
  return wall;
}

/// Checks after the loop: counts against the plan, final reports against
/// run_scenario. Returns the cache stats.
core::ResultCacheStats check_after_loop(Result& result, core::Server& server,
                                        const std::vector<Identity>& identities,
                                        const std::vector<std::vector<Request>>& plan,
                                        const std::vector<std::string>& references,
                                        const Served& served,
                                        const std::vector<ClientLog>& logs) {
  std::uint64_t warm = 0;
  std::uint64_t extensions = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (const Request& request : plan[c]) (request.extend ? extensions : warm) += 1;
    result.attempted += logs[c].checked;
    result.failed += logs[c].failures.size();
    for (const std::string& failure : logs[c].failures) {
      if (result.errors.size() < 20) result.errors.push_back("serve-mix: " + failure);
    }
  }
  const core::ResultCacheStats stats = server.cache().stats();
  const std::uint64_t count = identities.size();
  result.check(stats.full_hits == warm && stats.extensions == extensions &&
                   stats.misses == count && stats.entries == count &&
                   stats.trials_computed == count * kInitialTrials + extensions * kExtendBy,
               "serve-mix: cache counts differ from the plan's");
  for (std::size_t i = 0; i < identities.size(); ++i) {
    std::string report;
    try {
      report = support::parse_json(served.last_computed[i]).at("report").as_string();
    } catch (const std::exception& error) {
      report = error.what();
    }
    result.check(report == references[i], "serve-mix: final report of " +
                                              identities[i].spec.algorithm +
                                              " differs from run_scenario");
  }
  return stats;
}

/// run_scenario's bytes for every identity at its final trial count.
std::vector<std::string> final_references(const std::vector<Identity>& identities,
                                          const std::vector<std::size_t>& final_trials) {
  std::vector<std::string> references;
  for (std::size_t i = 0; i < identities.size(); ++i) {
    references.push_back(
        reference_report(with_trials(identities[i].spec, final_trials[i]), sweep_threads()));
  }
  return references;
}

std::string socket_path(const Options& options) {
  return options.workdir + "/serve-" + std::to_string(::getpid()) + ".sock";
}

Result serve_untraced(const Options& options) {
  Result result;
  const std::vector<Identity> identities = serve_identities(options);
  std::vector<std::size_t> final_trials;
  const std::vector<std::vector<Request>> plan = make_plan(options, identities, final_trials);
  const std::vector<std::string> references = final_references(identities, final_trials);
  const std::string path = socket_path(options);

  // Rounds until the budget is spent: a fresh daemon, its cold fill (the
  // set-up), then the whole plan. Every round serves the same plan.
  std::vector<double> setups, walls;
  double first_round_peak = 0.0;
  const Clock::time_point budget = Clock::now();
  while (keep_going(walls.size(), kMinRounds, kMaxRounds, budget, options)) {
    Served served;
    if (walls.empty()) reset_peak_rss();
    const Clock::time_point start = Clock::now();
    Daemon daemon(path);
    cold_fill(path, identities, served, result);
    setups.push_back(seconds_since(start));
    std::vector<ClientLog> logs;
    walls.push_back(closed_loop(path, plan, served, logs, nullptr));
    if (walls.size() == 1) first_round_peak = peak_rss_mb();
    check_after_loop(result, daemon.server(), identities, plan, references, served, logs);
  }

  std::size_t requests = 0;
  for (const auto& client : plan) requests += client.size();
  double total = 0.0;
  for (const double wall : walls) total += wall;
  result.add("setup_s", median(setups), "s");
  result.add("sweep_s", median(walls), "s");
  result.add("requests_per_s", static_cast<double>(requests * walls.size()) / total, "1/s");
  result.add("peak_rss_mb", first_round_peak, "MB");
  result.add("e2e_s", median(walls), "s");
  return result;
}

/// Replays one identity's cold fill and first extensions through a driver
/// shaped like the cache's (`pool` of nproc workers) or, with a null pool,
/// a one-thread driver. Spans carry one id per step (first_id is the cold
/// fill). With `report_bytes`, each extension is also finalized and
/// serialized, as the cache does.
void replay_identity(Tracer& tracer, const core::ScenarioSpec& spec, std::uint64_t first_id,
                     support::ThreadPool* pool, std::vector<double>* report_bytes) {
  {
    core::ResolvedScenario resolved;
    {
      const ScopedSpan span(tracer, "scenario.resolve", first_id);
      resolved = core::resolve_scenario(spec);
    }
    const core::GraphFactory graphs = [&](std::size_t n) {
      const ScopedSpan span(tracer, "graph.build", first_id);
      return resolved.graphs(n);
    };
    core::BatchedSweepOptions base = resolved.sweep_options();
    base.pool = pool;
    TracingBackend backend(resolved.make_backend(), tracer, spec.algorithm);
    const core::SweepDriver driver(backend, base, pool);
    const graph::Graph g = graphs(resolved.spec.ns.front());
    core::SweepDriver::Point point;
    {
      const ScopedSpan span(tracer, "driver.prepare", first_id);
      backend.set_context(span.index(), first_id);
      point = driver.prepare(g, 0);
    }
    core::PointAccumulator acc;
    {
      const ScopedSpan span(tracer, "driver.run_trials", first_id);
      backend.set_context(span.index(), first_id);
      acc = driver.run_trials(point, 0, kInitialTrials);
    }
    for (std::size_t step = 1; step <= kReplayExtensions; ++step) {
      const std::uint64_t id = first_id + step;
      const std::size_t have = acc.trial_count();
      {
        const ScopedSpan span(tracer, "driver.run_trials", id);
        backend.set_context(span.index(), id);
        acc.append(driver.run_trials(point, have, have + kExtendBy));
      }
      if (report_bytes == nullptr) continue;
      core::ScenarioPoint scenario_point;
      {
        const ScopedSpan span(tracer, "finalize", id);
        scenario_point.point = core::finalize_point(acc, resolved.sweep_options(acc.trial_count()));
        scenario_point.half_width =
            resolved.spec.schedule.half_width(scenario_point.point.avg_sd, acc.trial_count());
      }
      const ScopedSpan span(tracer, "report.serialize", id);
      report_bytes->push_back(static_cast<double>(
          core::sweep_report_json(with_trials(resolved.spec, acc.trial_count()), {scenario_point})
              .size()));
    }
  }
}

/// Allocation leg: the serial replay alone, counted by the hook.
Result serve_allocs(const Options& options) {
  Result result;
  Tracer tracer;
  const std::vector<Identity> identities = serve_identities(options);
  for (std::size_t i = 0; i < identities.size(); ++i) {
    replay_identity(tracer, identities[i].spec, 8 * i, nullptr, nullptr);
    ++result.attempted;
  }
  add_alloc_metrics(
      result, tracer, "driver.run_trials",
      static_cast<double>(identities.size() * (kInitialTrials + kReplayExtensions * kExtendBy)));
  return result;
}

Result serve_traced(const Options& options) {
  Result result;
  const std::vector<Identity> identities = serve_identities(options);
  std::vector<std::size_t> final_trials;
  const std::vector<std::vector<Request>> plan = make_plan(options, identities, final_trials);
  const std::vector<std::string> references = final_references(identities, final_trials);
  const std::string path = socket_path(options);

  Tracer tracer;
  std::unique_ptr<Daemon> daemon;
  Served served;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    served = {};
    const ScopedSpan span(tracer, "serve.setup", rep);
    daemon = std::make_unique<Daemon>(path);
    cold_fill(path, identities, served, result);
  }

  std::vector<ClientLog> logs;
  const double rss_before = current_rss_mb();
  const double wall = closed_loop(path, plan, served, logs, &tracer);
  const double rss_after = current_rss_mb();
  const core::ResultCacheStats stats =
      check_after_loop(result, daemon->server(), identities, plan, references, served, logs);

  LayerMetrics layers;
  std::vector<double> warm, extend;
  for (const ClientLog& log : logs) {
    warm.insert(warm.end(), log.warm_ms.begin(), log.warm_ms.end());
    extend.insert(extend.end(), log.extend_ms.begin(), log.extend_ms.end());
  }
  layers.warm_p50_ms = quantile(warm, 0.5);
  layers.warm_p99_ms = quantile(warm, 0.99);
  layers.extend_p50_ms = quantile(extend, 0.5);
  layers.extend_p95_ms = quantile(extend, 0.95);
  layers.cache_hits = stats.full_hits;
  layers.cache_extensions = stats.extensions;
  layers.cache_misses = stats.misses;
  layers.cache_trials_computed = stats.trials_computed;
  layers.cache_entries = stats.entries;
  layers.cache_rss_growth_mb = rss_after - rss_before;

  // Uncontended probes: warm repeats at the initial schedule through the
  // socket, through Server::handle_request and through ResultCache::sweep;
  // then one more extension per identity, straight into the cache.
  constexpr std::size_t kProbeRounds = 8;
  std::vector<double> socket_ms, handle_ms, cache_ms, extend_ms, reply_bytes;
  {
    support::Stream client = support::Stream::connect(path);
    core::Server& server = daemon->server();
    for (std::size_t round = 0; round < kProbeRounds; ++round) {
      for (const Identity& identity : identities) {
        const core::ScenarioSpec spec = with_trials(identity.spec, kInitialTrials);
        const std::string line = sweep_line(spec);
        std::string reply;
        Clock::time_point start = Clock::now();
        const bool ok = client.write_line(line) && client.read_line(reply);
        socket_ms.push_back(1e3 * seconds_since(start));
        result.check(ok && reply_ok(reply, true), "serve-mix (traced): warm probe failed");
        start = Clock::now();
        const core::Server::Reply handled = server.handle_request(line);
        handle_ms.push_back(1e3 * seconds_since(start));
        reply_bytes.push_back(static_cast<double>(handled.line.size()));
        result.check(handled.line == reply, "serve-mix (traced): handle_request differs from "
                                            "the socket reply");
        start = Clock::now();
        const core::ResultCacheOutcome outcome = server.cache().sweep(spec);
        cache_ms.push_back(1e3 * seconds_since(start));
        result.check(outcome.warm, "serve-mix (traced): cache probe was not warm");
      }
    }
    for (std::size_t i = 0; i < identities.size(); ++i) {
      const Clock::time_point start = Clock::now();
      const core::ResultCacheOutcome outcome =
          server.cache().sweep(with_trials(identities[i].spec, final_trials[i] + kExtendBy));
      extend_ms.push_back(1e3 * seconds_since(start));
      result.check(outcome.trials_computed == kExtendBy,
                   "serve-mix (traced): extension probe computed the wrong trial count");
    }
  }
  daemon.reset();
  layers.cache_warm_ms = median(cache_ms);
  layers.cache_extend_ms = median(extend_ms);
  layers.cache_wait_ms = layers.warm_p99_ms - layers.cache_warm_ms;
  layers.handle_warm_ms = median(handle_ms);
  layers.socket_ms = median(socket_ms) - layers.handle_warm_ms;
  layers.reply_bytes = median(reply_bytes);

  // Engine layers: replay of each identity's cold fill and first
  // extensions (ids: identity * 8 + step; step 0 is the cold fill).
  Tracer parallel;
  Tracer serial;
  std::vector<double> report_bytes;
  {
    support::ThreadPool pool(hardware_threads());
    for (std::size_t i = 0; i < identities.size(); ++i) {
      replay_identity(parallel, identities[i].spec, 8 * i, &pool, &report_bytes);
      replay_identity(serial, identities[i].spec, 8 * i, nullptr, nullptr);
    }
  }
  const auto per_extension = [](const std::map<std::uint64_t, double>& by_id) {
    std::vector<double> values;
    for (const auto& [id, value] : by_id) {
      if (id % 8 != 0) values.push_back(value);
    }
    return median(values);
  };
  const auto cold_sum = [](const std::map<std::uint64_t, double>& by_id) {
    double total = 0.0;
    for (const auto& [id, value] : by_id) {
      if (id % 8 == 0) total += value;
    }
    return total;
  };
  const double serial_run_batch = per_extension(serial.total_by_id("backend.run_batch"));
  layers.resolve_ms = 1e3 * cold_sum(parallel.self_by_id("scenario.resolve"));
  layers.graph_build_s = cold_sum(parallel.self_by_id("graph.build"));
  layers.prepare_s = cold_sum(parallel.self_by_id("backend.prepare"));
  layers.run_batch_s = per_extension(parallel.self_by_id("backend.run_batch"));
  for (const Identity& identity : identities) {
    const char* label = parallel.intern(identity.spec.algorithm);
    layers.run_batch_by_algorithm[identity.spec.algorithm] =
        per_extension(parallel.self_by_id("backend.run_batch", label));
  }
  layers.busy_s = per_extension(parallel.total_by_id("backend.run_batch"));
  layers.lane_inflation = serial_run_batch > 0.0 ? layers.busy_s / serial_run_batch : 0.0;
  layers.driver_self_s = per_extension(parallel.self_by_id("driver.run_trials"));
  layers.finalize_ms = 1e3 * per_extension(parallel.self_by_id("finalize"));
  layers.serialize_ms = 1e3 * per_extension(parallel.self_by_id("report.serialize"));
  layers.report_bytes = median(report_bytes);
  layers.e2e_s = wall;
  add_layer_metrics(result, layers);
  tracer.write_json(options.workdir + "/spans-serve-mix.jsonl");
  parallel.write_json(options.workdir + "/spans-serve-mix-replay.jsonl");
  return result;
}

}  // namespace

Result run_serve(const Options& options) {
  switch (options.mode) {
    case Mode::kTrace:
      return serve_traced(options);
    case Mode::kAllocs:
      return serve_allocs(options);
    case Mode::kEndToEnd:
      break;
  }
  return serve_untraced(options);
}

}  // namespace perfbench
