// Sweep-as-a-service: a resident daemon over core::ResultCache.
//
// The server listens on any endpoint support::parse_endpoint reads
// (unix:PATH, a bare path or tcp:HOST:PORT) and speaks LineServer's
// newline-JSON envelope, one reply per request line, in order. Its ops:
//
//   {"op":"ping"}                     -> {"ok":true,"op":"ping"}
//   {"op":"stats"}                    -> {"ok":true,"op":"stats", ...counters}
//   {"op":"shutdown"}                 -> {"ok":true,"op":"shutdown"}, then stop
//   {"op":"sweep","scenario":{...}}   -> {"ok":true,"op":"sweep",
//                                         "key":"<cache key>","warm":bool,
//                                         "trials_computed":N,
//                                         "report":"<full report document>"}
//
// The scenario block is exactly the canonical block sweep reports embed
// (core/scenario.hpp), and the returned report string is byte-identical to
// what `avglocal_cli sweep --json` writes for the same spec - CI compares
// them with cmp. Any malformed line or failed request yields LineServer's
// error reply and the connection stays open.
//
// Concurrency and lifetime come from support::LineServer too: one handler
// thread per connection (at most ServeOptions::max_clients at once), all
// funnelling into the shared ResultCache, which runs requests for
// different workloads concurrently on one worker pool and queues requests
// for the same workload behind each other. The shutdown op and
// request_stop() - async-signal-safe, for SIGTERM handlers - both end
// run() through LineServer's draining stop.
#pragma once

#include <string>

#include "core/result_cache.hpp"
#include "support/line_server.hpp"

namespace avglocal::core {

struct ServeOptions {
  std::string socket_path;  ///< any support::parse_endpoint spelling
  /// ResultCacheOptions::threads for the shared sweep pool.
  std::size_t threads = 0;
  /// ResultCacheOptions::batch_size for cache-run sweeps.
  std::size_t batch_size = 0;
  /// Concurrent connections served at once; a connection beyond this gets
  /// the "busy" error reply and is closed.
  std::size_t max_clients = 16;
};

class Server {
 public:
  explicit Server(const ServeOptions& options);
  Server(const Server&) = delete;  // the connection handler holds `this`
  Server& operator=(const Server&) = delete;

  /// Binds and listens on options.socket_path. Throws std::runtime_error
  /// when the endpoint is malformed, unusable or already served. Separate
  /// from run() so callers can install signal handlers between "the
  /// socket exists" and "requests are being accepted".
  void start();

  /// The bound endpoint, with TCP port 0 resolved to the real port.
  const support::Endpoint& endpoint() const noexcept { return server_.endpoint(); }

  /// Accept loop; returns only after a stop request, with every handler
  /// joined and the socket file unlinked.
  void run();

  /// Requests shutdown. Async-signal-safe (an atomic store plus a socket
  /// shutdown()) - this is the SIGTERM handler's one call.
  void request_stop() noexcept { server_.request_stop(); }

  bool stopping() const noexcept { return server_.stopping(); }

  ResultCache& cache() noexcept { return cache_; }

  using Reply = support::LineServer::Reply;  ///< perfbench/serve.cpp's spelling

  /// LineServer::handle on this server's ops (a shutdown reply has `close`
  /// set and has asked the server to stop). Public for protocol tests.
  Reply handle_request(const std::string& line) { return server_.handle(0, line); }

 private:
  ServeOptions options_;
  ResultCache cache_;
  support::LineServer server_;  ///< last: its handler threads use cache_
};

}  // namespace avglocal::core
