#include "support/line_server.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "support/assert.hpp"

namespace avglocal::support {

namespace {

std::string error_line(std::string_view message) {
  JsonWriter json;
  json.begin_object().key("ok").value(false).key("error").value(message).end_object();
  return json.str();
}

}  // namespace

JsonWriter& LineServer::OpReply::fields(std::string_view op) {
  AVGLOCAL_EXPECTS_MSG(!open_, "an op reply is opened once");
  open_ = true;
  return json_.begin_object().key("ok").value(true).key("op").value(op);
}

JsonValue parse_reply(const std::string& line, std::string_view rejected) {
  JsonValue reply = parse_json(line);
  if (!reply.at("ok").as_bool()) {
    throw std::runtime_error(std::string(rejected) + reply.at("error").as_string());
  }
  return reply;
}

LineServer::LineServer(std::size_t max_connections, Ops ops, CloseHook on_close)
    : max_connections_(max_connections), ops_(std::move(ops)), on_close_(std::move(on_close)) {
  AVGLOCAL_EXPECTS_MSG(max_connections_ >= 1, "a line server needs at least one connection slot");
}

LineServer::Reply LineServer::handle(std::uint64_t session, const std::string& line) const {
  try {
    const JsonValue request = parse_json(line);
    const std::string& name = request.at("op").as_string();
    const auto op = std::find_if(ops_.begin(), ops_.end(),
                                 [&name](const Op& candidate) { return candidate.name == name; });
    if (op == ops_.end()) return Reply{error_line("unknown op '" + name + "'"), false};
    OpReply reply(name);
    op->run(session, request, reply);
    if (!reply.open_) reply.fields();
    reply.json_.end_object();
    return Reply{reply.json_.str(), reply.close};
  } catch (const std::exception& error) {
    return Reply{error_line(error.what()), false};
  }
}

LineServer::~LineServer() {
  // run() joins everything it started; this covers a server destroyed
  // between start() and run().
  request_stop();
  join_all(/*drain=*/true);
}

void LineServer::start(const Endpoint& endpoint) { listener_ = Listener::bind(endpoint); }

void LineServer::request_stop() noexcept {
  // Called from SIGTERM/SIGINT handlers: only the atomic store and
  // shutdown(2) below are async-signal-safe, so nothing else happens here.
  stop_.store(true, std::memory_order_relaxed);
  listener_.interrupt();
}

void LineServer::stop_accepting() noexcept {
  closed_.store(true, std::memory_order_relaxed);
  listener_.interrupt();
}

bool LineServer::accepting() const noexcept {
  return !stopping() && !closed_.load(std::memory_order_relaxed);
}

void LineServer::serve(Stream stream, Connection* connection, std::uint64_t session) {
  std::string line;
  while (!stopping() && stream.read_line(line)) {
    const Reply reply = handle(session, line);
    if (!stream.write_line(reply.line) || reply.close) break;
  }
  if (on_close_) on_close_(session);
  // Under the lock, so a drain never half-closes a descriptor this thread
  // has already closed (the stream closes after this returns).
  const std::lock_guard<std::mutex> lock(mutex_);
  connection->fd = -1;
  connection->done = true;
}

void LineServer::reap_finished_locked() {
  for (std::size_t index = 0; index < connections_.size();) {
    if (connections_[index]->done) {
      // A done handler takes the lock no more, so joining here is safe.
      if (connections_[index]->thread.joinable()) connections_[index]->thread.join();
      connections_.erase(connections_.begin() + static_cast<std::ptrdiff_t>(index));
    } else {
      ++index;
    }
  }
}

void LineServer::join_all(bool drain) {
  if (drain) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& connection : connections_) {
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RD);
    }
  }
  // The accept loop is over, so nobody resizes connections_ any more;
  // handlers only touch their own slot. Join without the lock (handlers
  // take it on exit).
  for (const auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  connections_.clear();
}

void LineServer::run() {
  AVGLOCAL_EXPECTS_MSG(listener_.valid(), "LineServer::run called before start()");
  while (accepting()) {
    Stream stream = listener_.accept_client();
    if (!accepting()) break;
    if (!stream.valid()) continue;  // interrupted accept; the loop re-checks the flags

    std::unique_lock<std::mutex> lock(mutex_);
    reap_finished_locked();
    if (connections_.size() >= max_connections_) {
      lock.unlock();
      stream.write_line(error_line("busy"));
      continue;
    }
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->fd = stream.fd();
    const std::uint64_t session = next_session_++;
    raw->thread = std::thread([this, raw, session, s = std::move(stream)]() mutable {
      serve(std::move(s), raw, session);
    });
    connections_.push_back(std::move(connection));
  }
  join_all(/*drain=*/stopping());
  listener_.close();
}

}  // namespace avglocal::support
