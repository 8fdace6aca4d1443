// Stream sockets with newline framing, for support::LineServer (under the
// sweep-as-a-service daemon, core/serve.hpp, and the distributed sweep
// fabric, core/fabric.hpp) and their clients.
//
// Two small RAII wrappers over SOCK_STREAM sockets: Listener owns the
// bound endpoint (Unix-domain socket file or TCP host:port), Stream owns
// one connected end and frames messages as single lines - every protocol
// in this repo is newline-delimited JSON, one request or response per
// line. All blocking calls retry on EINTR; writes use MSG_NOSIGNAL so a
// vanished peer surfaces as an error return, never as SIGPIPE. The
// wrappers are deliberately synchronous: daemon concurrency comes from
// one handler thread per connection plus the shared sweep worker pool,
// not from non-blocking IO.
//
// Endpoints are spelled as strings:
//   unix:/path/to.sock   Unix-domain socket at that filesystem path
//   /path/to.sock        same (anything containing '/' and no scheme)
//   tcp:host:port        TCP; port 0 asks the kernel for an ephemeral
//                        port, resolved by Listener::endpoint() after bind
//   host:port            same (no scheme, has a ':')
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace avglocal::support {

/// A parsed socket address: either a Unix-domain path or a TCP host:port.
struct Endpoint {
  enum class Kind { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;        ///< Unix-domain socket file (kUnix only)
  std::string host;        ///< TCP host name or literal address (kTcp only)
  std::uint16_t port = 0;  ///< TCP port; 0 = ephemeral, chosen at bind

  /// Canonical spelling: "unix:<path>" or "tcp:<host>:<port>".
  std::string to_string() const;

  bool operator==(const Endpoint& other) const {
    return kind == other.kind && path == other.path && host == other.host && port == other.port;
  }
};

/// Parses the endpoint spellings documented at the top of this header.
/// Throws std::runtime_error on an empty spec, a bad port, or a TCP spec
/// without a host.
Endpoint parse_endpoint(const std::string& spec);

/// One connected stream endpoint (Unix-domain or TCP). Movable, closes on
/// destruction. Reads are buffered internally so pipelined lines are
/// handed out one at a time.
class Stream {
 public:
  Stream() = default;
  explicit Stream(int fd) noexcept : fd_(fd) {}
  Stream(Stream&& other) noexcept;
  Stream& operator=(Stream&& other) noexcept;
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;
  ~Stream();

  /// Connects to a listening Unix-domain daemon. Throws std::runtime_error
  /// (with errno text) when the path is absent or nothing is accepting.
  static Stream connect(const std::string& path);

  /// Non-throwing connect: returns an invalid stream and sets `error` to
  /// the failing errno (0 on success). DNS failures for TCP hosts report
  /// as ENOENT (the "daemon not there yet" class callers retry on).
  static Stream try_connect(const Endpoint& endpoint, int& error);

  /// Connects, retrying ENOENT/ECONNREFUSED with doubling backoff
  /// (10ms start, 200ms cap) until `timeout_ms` elapses - the window in
  /// which a just-launched daemon is still binding its endpoint. Other
  /// errors, and the timeout itself, throw std::runtime_error.
  static Stream connect_with_retry(const Endpoint& endpoint, long timeout_ms);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Reads one '\n'-terminated line (terminator stripped) into `line`.
  /// Returns false on orderly EOF or a read error; retries EINTR.
  bool read_line(std::string& line);

  /// Writes all of `data`, retrying partial writes and EINTR. Returns
  /// false when the peer is gone.
  bool write_all(std::string_view data);

  /// Frames and sends one message line (appends the '\n' terminator).
  bool write_line(std::string_view line);

  void close() noexcept;

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last returned line
};

/// A listening socket bound to an endpoint. For Unix-domain endpoints the
/// listener owns the path: it refuses to clobber a live daemon (connect
/// probe), silently replaces a stale socket file left by a crashed one,
/// and unlinks the path when destroyed. TCP listeners bind with
/// SO_REUSEADDR and resolve port 0 to the kernel-assigned ephemeral port.
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Binds and listens on a Unix-domain `path`. Throws std::runtime_error
  /// when the path is too long for sockaddr_un, another process is
  /// accepting on it, or any socket call fails.
  static Listener bind(const std::string& path, int backlog = 16);

  /// Binds and listens on either endpoint kind. For TCP the returned
  /// listener's endpoint() carries the resolved port (meaningful when the
  /// spec asked for port 0).
  static Listener bind(const Endpoint& endpoint, int backlog = 16);

  bool valid() const noexcept { return fd_.load(std::memory_order_relaxed) >= 0; }
  int fd() const noexcept { return fd_.load(std::memory_order_relaxed); }

  /// The bound Unix-domain path; empty for TCP listeners.
  const std::string& path() const noexcept { return endpoint_.path; }

  /// The bound endpoint, with TCP port 0 resolved to the real port.
  const Endpoint& endpoint() const noexcept { return endpoint_; }

  /// Blocks for one connection and returns its stream. Returns an invalid
  /// stream when the wait was interrupted by a signal (EINTR - the caller
  /// checks its stop flag and either loops or exits) or the listener was
  /// shut down from another thread or a signal handler.
  Stream accept_client();

  /// Async-signal-safe wake-up: makes the blocked accept_client return an
  /// invalid stream. Safe to call from a SIGTERM handler.
  void interrupt() noexcept;

  void close() noexcept;

 private:
  /// Atomic because interrupt() may fire from a signal handler or another
  /// thread while the accept loop is tearing the listener down; close()
  /// claims the descriptor with an exchange so the two never double-close
  /// or race on the value. Moves are still single-threaded by contract.
  std::atomic<int> fd_{-1};
  Endpoint endpoint_;
};

}  // namespace avglocal::support
