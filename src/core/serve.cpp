#include "core/serve.hpp"

namespace avglocal::core {

using support::JsonValue;
using support::JsonWriter;
using OpReply = support::LineServer::OpReply;

Server::Server(const ServeOptions& options)
    : options_(options),
      cache_(ResultCacheOptions{options.threads, options.batch_size}),
      server_(options.max_clients,
              {
                  {"ping", [](std::uint64_t, const JsonValue&, OpReply&) {}},
                  {"stats",
                   [this](std::uint64_t, const JsonValue&, OpReply& reply) {
                     const ResultCacheStats stats = cache_.stats();
                     JsonWriter& json = reply.fields();
                     json.key("requests").value(stats.requests);
                     json.key("full_hits").value(stats.full_hits);
                     json.key("extensions").value(stats.extensions);
                     json.key("misses").value(stats.misses);
                     json.key("trials_computed").value(stats.trials_computed);
                     json.key("entries").value(stats.entries);
                   }},
                  {"shutdown",
                   [this](std::uint64_t, const JsonValue&, OpReply& reply) {
                     // The reply still goes out: a stop half-closes reads only.
                     reply.close = true;
                     request_stop();
                   }},
                  {"sweep",
                   [this](std::uint64_t, const JsonValue& request, OpReply& reply) {
                     const ScenarioSpec spec = scenario_from_json(request.at("scenario"));
                     const ResultCacheOutcome outcome = cache_.sweep(spec);
                     JsonWriter& json = reply.fields();
                     json.key("key").value(outcome.key);
                     json.key("warm").value(outcome.warm);
                     json.key("trials_computed").value(outcome.trials_computed);
                     // The full report document rides along as one (escaped)
                     // string value; the client writes it back out verbatim,
                     // so the file it saves is byte-identical to a one-shot
                     // `sweep --json` run's.
                     json.key("report").value(outcome.report);
                   }},
              }) {}

void Server::start() { server_.start(support::parse_endpoint(options_.socket_path)); }

void Server::run() { server_.run(); }

}  // namespace avglocal::core
