#include "support/socket.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace avglocal::support {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("socket path '" + path + "' is empty or longer than sockaddr_un");
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

int make_unix_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  return fd;
}

bool something_accepting(const std::string& path) {
  try {
    const Stream probe = Stream::connect(path);
    return probe.valid();
  } catch (const std::runtime_error&) {
    return false;
  }
}

/// RAII for getaddrinfo results so every exit path frees the list.
struct AddrList {
  addrinfo* head = nullptr;
  ~AddrList() {
    if (head != nullptr) ::freeaddrinfo(head);
  }
};

/// Resolves host:port for SOCK_STREAM use. Returns 0 or an errno-style
/// code (resolution failures collapse to ENOENT - the same "nothing there
/// yet" class a missing socket file raises).
int resolve_tcp(const Endpoint& endpoint, bool passive, AddrList& out) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  const std::string port = std::to_string(endpoint.port);
  const char* host = endpoint.host.empty() ? nullptr : endpoint.host.c_str();
  const int rc = ::getaddrinfo(host, port.c_str(), &hints, &out.head);
  if (rc == 0) return 0;
  if (rc == EAI_SYSTEM) return errno != 0 ? errno : ENOENT;
  return ENOENT;
}

/// Connects to one resolved TCP address list. Returns the connected fd or
/// -1 with `error` holding the last errno.
int connect_tcp(const AddrList& addresses, int& error) {
  error = ECONNREFUSED;
  for (const addrinfo* entry = addresses.head; entry != nullptr; entry = entry->ai_next) {
    const int fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) {
      error = errno;
      continue;
    }
    for (;;) {
      if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) return fd;
      if (errno == EINTR) continue;
      error = errno;
      ::close(fd);
      break;
    }
  }
  return -1;
}

std::uint16_t parse_port(const std::string& text, const std::string& spec) {
  if (text.empty()) {
    throw std::runtime_error("endpoint '" + spec + "' is missing a port");
  }
  unsigned long value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::runtime_error("endpoint '" + spec + "' has a non-numeric port");
    }
    value = value * 10 + static_cast<unsigned long>(c - '0');
    if (value > 65535) {
      throw std::runtime_error("endpoint '" + spec + "' has a port above 65535");
    }
  }
  return static_cast<std::uint16_t>(value);
}

Endpoint parse_tcp_spec(const std::string& rest, const std::string& spec) {
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos) {
    throw std::runtime_error("endpoint '" + spec + "' needs host:port");
  }
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kTcp;
  endpoint.host = rest.substr(0, colon);
  if (endpoint.host.empty()) {
    throw std::runtime_error("endpoint '" + spec + "' is missing a host");
  }
  endpoint.port = parse_port(rest.substr(colon + 1), spec);
  return endpoint;
}

}  // namespace

// -------------------------------------------------------------- Endpoint ----

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& spec) {
  if (spec.empty()) throw std::runtime_error("empty socket endpoint");
  if (spec.rfind("unix:", 0) == 0) {
    Endpoint endpoint;
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = spec.substr(5);
    if (endpoint.path.empty()) {
      throw std::runtime_error("endpoint '" + spec + "' is missing a path");
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) return parse_tcp_spec(spec.substr(4), spec);
  if (spec.find('/') != std::string::npos || spec.find(':') == std::string::npos) {
    Endpoint endpoint;
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = spec;
    return endpoint;
  }
  return parse_tcp_spec(spec, spec);
}

// ---------------------------------------------------------------- Stream ----

Stream::Stream(Stream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

Stream& Stream::operator=(Stream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

Stream::~Stream() { close(); }

Stream Stream::connect(const std::string& path) {
  const sockaddr_un address = make_address(path);
  const int fd = make_unix_socket();
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) == 0) {
      return Stream(fd);
    }
    if (errno == EINTR) continue;
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + path + ")");
  }
}

Stream Stream::try_connect(const Endpoint& endpoint, int& error) {
  error = 0;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un address{};
    try {
      address = make_address(endpoint.path);
    } catch (const std::runtime_error&) {
      error = EINVAL;
      return Stream();
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      error = errno;
      return Stream();
    }
    for (;;) {
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) == 0) {
        return Stream(fd);
      }
      if (errno == EINTR) continue;
      error = errno;
      ::close(fd);
      return Stream();
    }
  }
  AddrList addresses;
  error = resolve_tcp(endpoint, /*passive=*/false, addresses);
  if (error != 0) return Stream();
  const int fd = connect_tcp(addresses, error);
  if (fd < 0) return Stream();
  error = 0;
  return Stream(fd);
}

Stream Stream::connect_with_retry(const Endpoint& endpoint, long timeout_ms) {
  // steady_clock: wall-clock jumps must not shrink or stretch the window.
  // The deadline saturates: now + LONG_MAX ms would overflow the clock's
  // nanosecond count into the past and time out at once.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const std::chrono::milliseconds window(timeout_ms);
  const auto deadline = window < std::chrono::duration_cast<std::chrono::milliseconds>(
                                     Clock::time_point::max() - start)
                            ? start + window
                            : Clock::time_point::max();
  std::chrono::milliseconds backoff(10);
  for (;;) {
    int error = 0;
    Stream stream = try_connect(endpoint, error);
    if (stream.valid()) return stream;
    // Only the "daemon still binding" class is worth waiting out: the
    // socket file is not there yet (ENOENT) or exists without an
    // accepting listener (ECONNREFUSED). Anything else is a real fault.
    if (error != ENOENT && error != ECONNREFUSED) {
      errno = error;
      throw_errno("connect(" + endpoint.to_string() + ")");
    }
    const auto now = Clock::now();
    if (now >= deadline) {
      errno = error;
      throw_errno("connect(" + endpoint.to_string() + ") timed out after " +
                  std::to_string(timeout_ms) + "ms");
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    std::this_thread::sleep_for(backoff < remaining ? backoff : remaining);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(200));
  }
}

bool Stream::read_line(std::string& line) {
  // Bytes before `scanned` hold no '\n': each search starts where the last
  // one stopped, so a line split over many recv()s costs linear time.
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    scanned = buffer_.size();
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;  // orderly EOF (0) or a hard error
  }
}

bool Stream::write_all(std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE here, not
    // kill the whole daemon with SIGPIPE.
    const ssize_t sent = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent > 0) {
      data.remove_prefix(static_cast<std::size_t>(sent));
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Stream::write_line(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  return write_all(framed);
}

void Stream::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

// -------------------------------------------------------------- Listener ----

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_relaxed)),
      endpoint_(std::move(other.endpoint_)) {
  other.endpoint_ = Endpoint{};
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1, std::memory_order_relaxed), std::memory_order_relaxed);
    endpoint_ = std::move(other.endpoint_);
    other.endpoint_ = Endpoint{};
  }
  return *this;
}

Listener::~Listener() { close(); }

Listener Listener::bind(const std::string& path, int backlog) {
  const sockaddr_un address = make_address(path);
  const int fd = make_unix_socket();
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    if (errno != EADDRINUSE) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("bind(" + path + ")");
    }
    ::close(fd);
    // A socket file already exists. Probe it: a successful connect means
    // a live daemon owns the path and we must not steal it; a refused
    // connect means the file is a stale leftover of a crashed daemon and
    // replacing it is the right call.
    if (something_accepting(path)) {
      throw std::runtime_error("socket path '" + path + "' is already being served");
    }
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      throw_errno("unlink stale socket " + path);
    }
    const int retry = make_unix_socket();
    if (::bind(retry, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
      const int saved = errno;
      ::close(retry);
      errno = saved;
      throw_errno("bind(" + path + ")");
    }
    Listener listener;
    listener.fd_ = retry;
    listener.endpoint_.kind = Endpoint::Kind::kUnix;
    listener.endpoint_.path = path;
    if (::listen(retry, backlog) != 0) throw_errno("listen(" + path + ")");
    return listener;
  }
  Listener listener;
  listener.fd_ = fd;
  listener.endpoint_.kind = Endpoint::Kind::kUnix;
  listener.endpoint_.path = path;
  if (::listen(fd, backlog) != 0) throw_errno("listen(" + path + ")");
  return listener;
}

Listener Listener::bind(const Endpoint& endpoint, int backlog) {
  if (endpoint.kind == Endpoint::Kind::kUnix) return bind(endpoint.path, backlog);
  AddrList addresses;
  const int resolve_error = resolve_tcp(endpoint, /*passive=*/true, addresses);
  if (resolve_error != 0) {
    errno = resolve_error;
    throw_errno("resolve(" + endpoint.to_string() + ")");
  }
  int last_error = EADDRNOTAVAIL;
  for (const addrinfo* entry = addresses.head; entry != nullptr; entry = entry->ai_next) {
    const int fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) {
      last_error = errno;
      continue;
    }
    // SO_REUSEADDR: a coordinator restarted onto the same port must not
    // wait out the previous run's TIME_WAIT sockets.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, entry->ai_addr, entry->ai_addrlen) != 0 || ::listen(fd, backlog) != 0) {
      last_error = errno;
      ::close(fd);
      continue;
    }
    Listener listener;
    listener.fd_ = fd;
    listener.endpoint_ = endpoint;
    // Port 0 asked the kernel to pick; report what it chose so workers
    // can be pointed at the real port.
    sockaddr_storage bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
      if (bound.ss_family == AF_INET) {
        listener.endpoint_.port =
            ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        listener.endpoint_.port =
            ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    return listener;
  }
  errno = last_error;
  throw_errno("bind(" + endpoint.to_string() + ")");
}

Stream Listener::accept_client() {
  const int client = ::accept(fd_.load(std::memory_order_relaxed), nullptr, nullptr);
  // EINTR and the post-interrupt() failure modes (EBADF/EINVAL) all mean
  // "no connection this time"; the caller's stop flag decides what next.
  return Stream(client);
}

void Listener::interrupt() noexcept {
  // shutdown() is async-signal-safe and makes a blocked accept() return
  // immediately; close()/unlink() happen later on the normal path. The
  // atomic load may race with close() claiming the descriptor - worst
  // case shutdown() gets -1 or an already-closed fd and reports EBADF,
  // which is harmless here.
  const int fd = fd_.load(std::memory_order_relaxed);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void Listener::close() noexcept {
  const int fd = fd_.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
  if (endpoint_.kind == Endpoint::Kind::kUnix && !endpoint_.path.empty()) {
    ::unlink(endpoint_.path.c_str());
  }
  endpoint_ = Endpoint{};
}

}  // namespace avglocal::support
