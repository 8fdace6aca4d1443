#include "local/message_arena.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

void MessageArena::attach(std::size_t arc_count) {
  slots_.assign(arc_count, Slot{});
  present_.assign((arc_count + 63) / 64, 0);
  used_words_ = 0;
  messages_ = 0;
}

AVGLOCAL_HOT void MessageArena::begin_round() noexcept {
  std::fill(present_.begin(), present_.end(), 0);
  used_words_ = 0;
  messages_ = 0;
}

bool MessageArena::push(std::size_t arc, std::span<const std::uint64_t> words) {
  // Slot offsets and lengths are 32 bits; reject rather than truncate
  // (mirrors the 2^32-arc guard in GraphBuilder::build). The offset guard
  // bounds a whole round's payload arena at 2^32 words.
  AVGLOCAL_EXPECTS_MSG(words.size() <= std::numeric_limits<std::uint32_t>::max(),
                       "payload exceeds 2^32 words");
  const std::size_t needed = used_words_ + words.size();
  AVGLOCAL_EXPECTS_MSG(needed <= std::numeric_limits<std::uint32_t>::max(),
                       "round payload exceeds 2^32 words");
  const std::uint64_t bit = std::uint64_t{1} << (arc & 63);
  std::uint64_t& mask = present_[arc >> 6];
  if (mask & bit) return false;
  mask |= bit;
  if (needed > words_.size()) {
    // Geometric growth: reallocations stop once the busiest round has been
    // seen, which is what makes rounds allocation-free at steady state.
    words_.resize(std::max(needed, words_.size() * 2));
  }
  // Bulk word move (memcpy-class), not a per-word loop: payloads are raw
  // uint64 words with no construction semantics.
  if (!words.empty()) {
    std::memcpy(words_.data() + used_words_, words.data(), words.size() * sizeof(std::uint64_t));
  }
  slots_[arc] = Slot{support::checked_u32(used_words_), support::checked_u32(words.size())};
  used_words_ = needed;
  ++messages_;
  return true;
}

}  // namespace avglocal::local
