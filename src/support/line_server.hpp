// One server skeleton and one request envelope for every newline-JSON
// service in the repo: the sweep daemon (core/serve.hpp) and the fabric
// coordinator (core/fabric.hpp) are both a LineServer plus an op table.
//
// The envelope is written here and nowhere else: a request line is an
// object naming its "op", a reply line is {"ok":true,"op":<op>,...} or
// {"ok":false,"error":"<text>"}. handle() parses the line (nesting capped
// at 64 levels) and runs the op's handler, which picks the reply's op and
// writes only its own fields. A malformed line, an unknown op or a
// handler's exception becomes the error line; the connection stays open.
// parse_reply() is the client half.
//
// The server owns the Listener, the accept loop and one handler thread per
// connection, which answers each line through handle() with the
// connection's session id (unique, in accept order; the on-close hook sees
// it once the connection ends). A reply with `close` set ends the
// connection after it is written. At most `max_connections` connections
// are served at once; one more gets the error line "busy" and is closed,
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
#include <string_view>
#include <thread>
#include <vector>

#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "support/socket.hpp"

namespace avglocal::support {

class LineServer {
 public:
  /// The answer to one request line.
  struct Reply {
    std::string line;
    bool close = false;  ///< end the connection once `line` is written
  };

  /// What an op handler fills in; handle() writes the envelope around it.
  class OpReply {
   public:
    /// Opens the reply under `op` (default: the request's op) and returns
    /// the writer for the handler's fields. At most one call; a handler
    /// that makes none replies under the request's op with no fields.
    JsonWriter& fields(std::string_view op);
    JsonWriter& fields() { return fields(request_op_); }

    bool close = false;  ///< end the connection once the reply is written

   private:
    friend class LineServer;
    explicit OpReply(std::string_view request_op) : request_op_(request_op) {}

    std::string_view request_op_;
    JsonWriter json_;
    bool open_ = false;
  };

  /// One op of a service. `run` runs on connection threads, concurrently
  /// with other handlers, and reports a failed request by throwing.
  struct Op {
    std::string name;
    std::function<void(std::uint64_t session, const JsonValue& request, OpReply& reply)> run;
  };
  using Ops = std::vector<Op>;
  using CloseHook = std::function<void(std::uint64_t session)>;

  LineServer(std::size_t max_connections, Ops ops, CloseHook on_close = {});
  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;
  ~LineServer();

  /// Answers one request line from `session`; never throws. Protocol
  /// tests call it without a socket.
  Reply handle(std::uint64_t session, const std::string& line) const;

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
  Ops ops_;
  CloseHook on_close_;
  Listener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> closed_{false};

  std::mutex mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_session_ = 0;
};

/// Parses a reply line; a rejected request throws std::runtime_error with
/// `rejected` followed by the reply's "error" text.
JsonValue parse_reply(const std::string& line, std::string_view rejected = {});

}  // namespace avglocal::support
