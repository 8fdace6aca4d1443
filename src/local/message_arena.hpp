// Flat, reusable storage for one round of in-flight messages.
//
// The engine keeps two arenas and ping-pongs between them: algorithms write
// the round-k sends into one while the engine delivers the round-(k-1)
// sends from the other. A slot exists per directed arc of the graph (CSR
// arc index = Graph::arc_index(v, port)); presence is a bitmask, payload
// words live back-to-back in a single buffer. A message is two steps:
// store() appends its words once and returns their offset, bind() points an
// arc's slot at them. A broadcast stores once and binds every port, so
// slots may share words; receivers only read them. begin_round() resets
// cursors without releasing capacity, so after a warm-up phase in which the
// buffers grow to the round high-water mark, rounds perform zero heap
// allocations. The engine's standing store is a third arena that is not
// cleared between rounds: it holds the constant sends of halted nodes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "support/annotations.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

/// Invokes fn(bit_index) for every set bit in [begin, end) of the mask
/// whose 64-bit word i is load(i), ascending. One count_trailing_zeros per
/// set bit, one load per 64 bits - never a per-bit test.
template <typename Load, typename Fn>
AVGLOCAL_HOT inline void for_each_set_bit_of(Load&& load, std::size_t begin, std::size_t end,
                                             Fn&& fn) {
  if (begin >= end) return;
  std::size_t w = begin >> 6;
  const std::size_t w_last = (end - 1) >> 6;
  std::uint64_t mask = load(w) & (~std::uint64_t{0} << (begin & 63));
  while (true) {
    if (w == w_last && (end & 63) != 0) {
      mask &= ~std::uint64_t{0} >> (64 - (end & 63));
    }
    while (mask != 0) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
    }
    if (w == w_last) return;
    mask = load(++w);
  }
}

/// for_each_set_bit_of over the mask whose i-th bit is words[i >> 6] bit
/// (i & 63). This is how the message engine drains a vertex's contiguous
/// presence window.
template <typename Fn>
AVGLOCAL_HOT inline void for_each_set_bit(const std::uint64_t* words, std::size_t begin,
                                          std::size_t end, Fn&& fn) {
  for_each_set_bit_of([words](std::size_t w) { return words[w]; }, begin, end,
                      std::forward<Fn>(fn));
}

/// for_each_set_bit over the union of two masks of equal layout.
template <typename Fn>
AVGLOCAL_HOT inline void for_each_set_bit_either(const std::uint64_t* a, const std::uint64_t* b,
                                                 std::size_t begin, std::size_t end, Fn&& fn) {
  for_each_set_bit_of([a, b](std::size_t w) { return a[w] | b[w]; }, begin, end,
                      std::forward<Fn>(fn));
}

class MessageArena {
 public:
  /// Sizes the per-arc tables. Called once per run; clears everything.
  void attach(std::size_t arc_count);

  /// Forgets all messages; keeps capacity. O(arc_count / 64).
  void begin_round() noexcept;

  /// Appends `words` to this round's payload buffer and returns their
  /// offset; no slot refers to them until bind(). Slot offsets and lengths
  /// are 32 bits, so a payload and a whole round's buffer are each capped at
  /// 2^32 words (mirroring the 2^32-arc guard of GraphBuilder::build); a
  /// payload over either cap throws and stores nothing.
  std::uint32_t store(std::span<const std::uint64_t> words) {
    AVGLOCAL_EXPECTS_MSG(words.size() <= std::numeric_limits<std::uint32_t>::max(),
                         "payload exceeds 2^32 words");
    const std::size_t needed = used_words_ + words.size();
    AVGLOCAL_EXPECTS_MSG(needed <= std::numeric_limits<std::uint32_t>::max(),
                         "round payload exceeds 2^32 words");
    if (needed > words_.size()) [[unlikely]] grow(needed);
    std::copy(words.begin(), words.end(), words_.data() + used_words_);
    const std::uint32_t offset = support::checked_u32(used_words_);
    used_words_ = needed;
    return offset;
  }

  /// Puts the `length` words stored at `offset` in `arc`'s slot; false, and
  /// nothing changes, if the slot is already taken this round (one message
  /// per port per round). Any number of slots may bind the same words.
  AVGLOCAL_HOT bool bind(std::size_t arc, std::uint32_t offset, std::uint32_t length) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (arc & 63);
    std::uint64_t& mask = present_[arc >> 6];
    if (mask & bit) return false;
    mask |= bit;
    slots_[arc] = Slot{offset, length};
    ++messages_;
    bound_words_ += length;
    return true;
  }

  AVGLOCAL_HOT bool has(std::size_t arc) const noexcept {
    return (present_[arc >> 6] >> (arc & 63)) & 1u;
  }

  /// Payload stored in `arc`'s slot; valid only when has(arc), and only
  /// until the next begin_round/attach.
  AVGLOCAL_HOT std::span<const std::uint64_t> payload(std::size_t arc) const noexcept {
    const Slot& slot = slots_[arc];
    return {words_.data() + slot.offset, slot.length};
  }

  /// Invokes fn(arc) for every message-bearing arc in [arc_begin, arc_end),
  /// ascending. A wide scan over the presence bitmask - one load per 64
  /// arcs, one count_trailing_zeros per message - instead of a per-arc
  /// has() test; this is how the engine drains a vertex's contiguous
  /// receive window each round.
  template <typename Fn>
  AVGLOCAL_HOT void for_each_present(std::size_t arc_begin, std::size_t arc_end, Fn&& fn) const {
    for_each_set_bit(present_.data(), arc_begin, arc_end, std::forward<Fn>(fn));
  }

  /// for_each_present over the arcs that hold a message here or in
  /// `other`, an arena attached to the same arc count. The engine drains a
  /// window this way while some halted node's sends stand in a second
  /// arena: an arc holds a message in at most one of the two.
  template <typename Fn>
  AVGLOCAL_HOT void for_each_present_with(const MessageArena& other, std::size_t arc_begin,
                                          std::size_t arc_end, Fn&& fn) const {
    for_each_set_bit_either(present_.data(), other.present_.data(), arc_begin, arc_end,
                            std::forward<Fn>(fn));
  }

  /// Messages bound since begin_round.
  std::size_t message_count() const noexcept { return messages_; }

  /// Payload words of every message bound since begin_round, counted per
  /// message: a broadcast to d ports counts its words d times.
  std::size_t word_count() const noexcept { return bound_words_; }

  /// Words stored since begin_round: the write cursor of the payload
  /// buffer. A broadcast's words are stored once.
  std::size_t stored_word_count() const noexcept { return used_words_; }

 private:
  // Geometric growth of the payload buffer; out of line, since it runs
  // only while warming up.
  void grow(std::size_t needed);

  // 8-byte slots (was 16 with a size_t offset): the slot table is touched
  // once per send and once per delivery, so at 2m slots per arena the
  // narrow offset halves the table's cache traffic. A round's payload
  // buffer is capped at 2^32 words by store() - 32 GiB of payload per
  // round.
  struct Slot {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  std::vector<std::uint64_t> words_;    // payload arena, first used_words_ live
  std::vector<Slot> slots_;             // per arc, valid where present
  std::vector<std::uint64_t> present_;  // bitmask, one bit per arc
  std::size_t used_words_ = 0;    // store() cursor
  std::size_t bound_words_ = 0;   // words of bound messages, per message
  std::size_t messages_ = 0;
};

}  // namespace avglocal::local
