// One socket-server skeleton for every newline-JSON service in the repo:
// the sweep daemon (core/serve.hpp) and the fabric coordinator
// (core/fabric.hpp) are both a LineServer plus a handler.
//
// The server owns the Listener, the accept loop and one handler thread per
// connection. Each connection reads request lines, hands each one to the
// handler as (session, line) and writes the reply line back; a reply with
// `close` set ends the connection after it is written. Session ids are
// assigned in accept order and are unique for the server's lifetime; the
// on-close hook sees the same id once the connection is over.
//
// At most `max_connections` connections are served at once. A connection
// accepted while every slot is taken gets one {"ok":false,"error":"busy"}
// line and is closed, so clients see an explicit reply to back off on,
// never a silent drop. Finished connections are reaped on the next accept.
//
// Two ways to end run():
//   * request_stop() - async-signal-safe (an atomic store plus shutdown(2)
//     on the listening socket), so SIGTERM handlers call it directly.
//     Teardown half-closes every live connection with SHUT_RD: blocked
//     reads return, replies already being written still flush.
//   * stop_accepting() - the non-draining end: the accept loop exits but
//     live connections run until they end on their own (the fabric's
//     completion, where every worker leaves after its shutdown reply).
// Either way run() joins every handler thread and unlinks a Unix-domain
// socket path before it returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/socket.hpp"

namespace avglocal::support {

class LineServer {
 public:
  /// The handler's answer to one request line.
  struct Reply {
    std::string line;
    bool close = false;  ///< end the connection once `line` is written
  };

  using Handler = std::function<Reply(std::uint64_t session, const std::string& line)>;
  using CloseHook = std::function<void(std::uint64_t session)>;

  /// Handlers run on connection threads, concurrently with each other,
  /// and must not throw: a failed request is a reply line.
  LineServer(std::size_t max_connections, Handler handler, CloseHook on_close = {});
  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;
  ~LineServer();

  /// Binds and listens. Throws std::runtime_error like Listener::bind.
  void start(const Endpoint& endpoint);

  /// The bound endpoint, with TCP port 0 resolved to the real port.
  const Endpoint& endpoint() const noexcept { return listener_.endpoint(); }

  /// Accept loop; returns once request_stop() or stop_accepting() was
  /// called, with every handler joined.
  void run();

  /// Async-signal-safe stop; run()'s teardown drains live connections.
  void request_stop() noexcept;

  /// Stops accepting without draining: live connections end on their own.
  void stop_accepting() noexcept;

  bool stopping() const noexcept { return stop_.load(std::memory_order_relaxed); }

 private:
  /// One connection. `fd` mirrors the handler's stream while it is open
  /// so a drain can half-close it; `done` marks the slot for reaping. Both
  /// are guarded by mutex_.
  struct Connection {
    std::thread thread;
    int fd = -1;
    bool done = false;
  };

  bool accepting() const noexcept;
  void serve(Stream stream, Connection* connection, std::uint64_t session);
  void reap_finished_locked();
  void join_all(bool drain);

  std::size_t max_connections_;
  Handler handler_;
  CloseHook on_close_;
  Listener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> closed_{false};

  std::mutex mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_session_ = 0;
};

}  // namespace avglocal::support
