#include "local/message_arena.hpp"

#include <algorithm>

namespace avglocal::local {

void MessageArena::attach(std::size_t arc_count) {
  slots_.assign(arc_count, Slot{});
  present_.assign((arc_count + 63) / 64, 0);
  used_words_ = 0;
  bound_words_ = 0;
  messages_ = 0;
}

AVGLOCAL_HOT void MessageArena::begin_round() noexcept {
  std::fill(present_.begin(), present_.end(), 0);
  used_words_ = 0;
  bound_words_ = 0;
  messages_ = 0;
}

void MessageArena::grow(std::size_t needed) {
  // Reallocations stop once the busiest round has been seen, which is what
  // makes rounds allocation-free at steady state.
  words_.resize(std::max(needed, words_.size() * 2));
}

}  // namespace avglocal::local
