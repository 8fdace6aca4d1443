// Sweep-as-a-service: a resident daemon over core::ResultCache.
//
// The server listens on a Unix-domain stream socket and speaks
// newline-delimited JSON - one request object per line, one response
// object per line, in order, per connection. Ops:
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
// them with cmp. Any malformed line or failed request yields
// {"ok":false,"error":"..."} and the connection stays open.
//
// Concurrency and lifetime come from support::LineServer: one handler
// thread per connection (at most ServeOptions::max_clients at once; one
// more gets a {"ok":false,"error":"busy"} line and is closed), all
// funnelling into the shared ResultCache, which runs requests for
// different workloads concurrently on one worker pool and queues requests
// for the same workload behind each other. The shutdown op and request_stop() - async-signal-safe, for
// SIGTERM handlers - both end run() through LineServer's draining stop.
#pragma once

#include <string>

#include "core/result_cache.hpp"
#include "support/line_server.hpp"

namespace avglocal::core {

struct ServeOptions {
  std::string socket_path;
  /// ResultCacheOptions::threads for the shared sweep pool.
  std::size_t threads = 0;
  /// ResultCacheOptions::batch_size for cache-run sweeps.
  std::size_t batch_size = 0;
  /// Concurrent connections served at once; a connection beyond this gets
  /// a {"ok":false,"error":"busy"} reply and is closed.
  std::size_t max_clients = 16;
};

class Server {
 public:
  explicit Server(const ServeOptions& options);
  Server(const Server&) = delete;  // the connection handler holds `this`
  Server& operator=(const Server&) = delete;

  /// Binds and listens on options.socket_path. Throws std::runtime_error
  /// when the path is unusable or already served. Separate from run() so
  /// callers can install signal handlers between "the socket exists" and
  /// "requests are being accepted".
  void start();

  /// Accept loop; returns only after a stop request, with every handler
  /// joined and the socket file unlinked.
  void run();

  /// Requests shutdown. Async-signal-safe (an atomic store plus a socket
  /// shutdown()) - this is the SIGTERM handler's one call.
  void request_stop() noexcept { server_.request_stop(); }

  bool stopping() const noexcept { return server_.stopping(); }

  ResultCache& cache() noexcept { return cache_; }

  /// One handled request line. `shutdown` marks the response to a shutdown
  /// op: the handler sends the line, then stops the server.
  struct Reply {
    std::string line;
    bool shutdown = false;
  };

  /// Parses and executes one request line and builds the response line.
  /// Never throws: malformed input becomes an {"ok":false,...} reply.
  /// Public so protocol tests can drive it without a socket.
  Reply handle_request(const std::string& line);

 private:
  ServeOptions options_;
  ResultCache cache_;
  support::LineServer server_;  ///< last: its handler threads use cache_
};

}  // namespace avglocal::core
