// Per-node execution context handed to message-passing algorithms.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>

#include "local/message.hpp"
#include "local/message_arena.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

class Engine;

/// What a node may see and do during a round. The context exposes exactly
/// the knowledge the LOCAL model grants: its own identifier, its degree,
/// the round number, and - only when the engine runs in knows-n mode - the
/// network size.
///
/// Sends are written straight into the engine's flat message arena (no
/// per-node outbox buffers): an algorithm that assembles its payloads in
/// reused storage sends without any heap allocation. send() and
/// broadcast() are inline: they run once per node per round, and a
/// broadcast stores its words once however many ports it reaches.
class NodeContext {
 public:
  /// This node's identifier.
  std::uint64_t id() const noexcept { return id_; }

  /// Number of ports (incident edges).
  std::size_t degree() const noexcept { return degree_; }

  /// Network size, engaged only in Knowledge::kKnowsN runs.
  std::optional<std::size_t> n() const noexcept {
    if (n_ == kUnknownN) return std::nullopt;
    return n_;
  }

  /// Current round: 0 during on_start, k during the k-th on_round.
  std::size_t round() const noexcept { return round_; }

  /// Queues a message on `port` for delivery next round; the words are
  /// copied immediately, so the span may point at caller-owned scratch. At
  /// most one message per port per round; violations throw
  /// std::invalid_argument and queue nothing.
  void send(std::size_t port, std::span<const std::uint64_t> payload) {
    if (port >= degree_) reject("send: port out of range");
    MessageArena& out = **outgoing_;
    // Receiver-side slot: port q's payload lands at the mirror arc, so the
    // receiving node drains one contiguous arc window. The mirror mapping
    // is a bijection on arcs, so the one-message-per-port rule is
    // unchanged.
    const std::size_t arc = mirror_arcs_[port];
    if (out.has(arc)) reject(kPortTaken);
    // The slot is free, so bind cannot fail.
    const std::uint32_t offset = out.store(payload);
    out.bind(arc, offset, support::checked_u32(payload.size()));
  }

  /// Queues the same payload on every port. The words are stored once and
  /// every port's slot binds them. If any port already holds a message this
  /// round, throws std::invalid_argument and queues nothing.
  void broadcast(std::span<const std::uint64_t> payload) {
    if (degree_ == 0) return;
    MessageArena& out = **outgoing_;
    for (std::size_t port = 0; port < degree_; ++port) {
      if (out.has(mirror_arcs_[port])) reject(kPortTaken);
    }
    // Every slot is free, so no bind can fail.
    const std::uint32_t offset = out.store(payload);
    const std::uint32_t length = support::checked_u32(payload.size());
    for (std::size_t port = 0; port < degree_; ++port) out.bind(mirror_arcs_[port], offset, length);
  }

  /// Commits this node's output at the current round. A node outputs exactly
  /// once; a second call throws std::logic_error. Per the unknown-n variant
  /// of the model, the node keeps receiving rounds (to relay messages) after
  /// outputting, unless its algorithm halts after output
  /// (Algorithm::halts_after_output): then the engine repeats the sends of
  /// this round in its place.
  void output(std::int64_t value);

  bool has_output() const noexcept { return output_round_ != kNoOutput; }

  /// The committed value; throws std::bad_optional_access before output().
  std::int64_t output_value() const {
    if (!has_output()) throw std::bad_optional_access();
    return output_;
  }

  /// Round at which output() was called; only valid once has_output().
  std::size_t output_round() const { return output_round_; }

  /// Rounds are 32 bits; the engine stops before the round counter would
  /// reach this value, which marks "no output yet".
  static constexpr std::uint32_t kNoOutput = std::numeric_limits<std::uint32_t>::max();

 private:
  friend class Engine;

  static constexpr const char* kPortTaken = "send: one message per port per round";
  /// n_ of a kUnknownN run; no graph the engine runs has 0 vertices and a
  /// node to ask.
  static constexpr std::uint32_t kUnknownN = 0;

  /// Throws std::invalid_argument(what); out of line so the inline send
  /// paths stay small.
  [[noreturn]] static void reject(const char* what);

  // 48 bytes: the engine walks one context per active node per round.
  // Rounds, degree and n are 32 bits (graphs have at most 2^32 arcs), and
  // sentinels stand in for the two optionals.
  std::uint64_t id_ = 0;
  /// Engine-owned view of "the arena collecting this round's sends"; the
  /// engine retargets the pointee when it flips its double buffer.
  MessageArena* const* outgoing_ = nullptr;
  /// Engine-owned mirror-arc table at this node's arc base:
  /// mirror_arcs_[q] is the receiver-side arc of a send on port q. Sends
  /// bind straight to the receiver's slot, so each round's delivery is a
  /// wide bitmask scan over the receiver's contiguous arc window.
  const std::uint32_t* mirror_arcs_ = nullptr;
  std::int64_t output_ = 0;  ///< valid once has_output()
  std::uint32_t n_ = kUnknownN;
  std::uint32_t round_ = 0;
  std::uint32_t degree_ = 0;
  std::uint32_t output_round_ = kNoOutput;
};

static_assert(sizeof(NodeContext) <= 48, "the engine walks one context per node per round");

}  // namespace avglocal::local
