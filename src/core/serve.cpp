#include "core/serve.hpp"

#include <exception>
#include <utility>

#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace avglocal::core {

namespace {

std::string error_reply(const std::string& message) {
  support::JsonWriter json;
  json.begin_object();
  json.key("ok").value(false);
  json.key("error").value(message);
  json.end_object();
  return json.str();
}

}  // namespace

Server::Server(const ServeOptions& options)
    : options_(options),
      cache_(ResultCacheOptions{options.threads, options.batch_size}),
      server_(options.max_clients, [this](std::uint64_t, const std::string& line) {
        Reply reply = handle_request(line);
        // The reply still goes out: a stop half-closes reads only.
        if (reply.shutdown) request_stop();
        return support::LineServer::Reply{std::move(reply.line), reply.shutdown};
      }) {}

void Server::start() {
  support::Endpoint endpoint;
  endpoint.path = options_.socket_path;
  server_.start(endpoint);
}

void Server::run() { server_.run(); }

Server::Reply Server::handle_request(const std::string& line) {
  Reply reply;
  try {
    const support::JsonValue request = support::parse_json(line);
    const std::string& op = request.at("op").as_string();
    support::JsonWriter json;
    if (op == "ping") {
      json.begin_object();
      json.key("ok").value(true);
      json.key("op").value("ping");
      json.end_object();
    } else if (op == "stats") {
      const ResultCacheStats stats = cache_.stats();
      json.begin_object();
      json.key("ok").value(true);
      json.key("op").value("stats");
      json.key("requests").value(stats.requests);
      json.key("full_hits").value(stats.full_hits);
      json.key("extensions").value(stats.extensions);
      json.key("misses").value(stats.misses);
      json.key("trials_computed").value(stats.trials_computed);
      json.key("entries").value(stats.entries);
      json.end_object();
    } else if (op == "shutdown") {
      json.begin_object();
      json.key("ok").value(true);
      json.key("op").value("shutdown");
      json.end_object();
      reply.shutdown = true;
    } else if (op == "sweep") {
      const ScenarioSpec spec = scenario_from_json(request.at("scenario"));
      const ResultCacheOutcome outcome = cache_.sweep(spec);
      json.begin_object();
      json.key("ok").value(true);
      json.key("op").value("sweep");
      json.key("key").value(outcome.key);
      json.key("warm").value(outcome.warm);
      json.key("trials_computed").value(outcome.trials_computed);
      // The full report document rides along as one (escaped) string
      // value; the client writes it back out verbatim, so the file it
      // saves is byte-identical to a one-shot `sweep --json` run's.
      json.key("report").value(outcome.report);
      json.end_object();
    } else {
      reply.line = error_reply("unknown op '" + op + "'");
      return reply;
    }
    reply.line = json.str();
  } catch (const std::exception& error) {
    reply.line = error_reply(error.what());
    reply.shutdown = false;
  }
  return reply;
}

}  // namespace avglocal::core
