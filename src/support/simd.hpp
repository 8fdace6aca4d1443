// The instruction-set label perfbench records next to its numbers. Every
// host runs one scalar path; no kernel carries an ISA specialisation, so
// this header stays only for perfbench/main.cpp (ROADMAP item 1(e)).
#pragma once

namespace avglocal::support::simd {

/// Instruction set the hot loops run: always "scalar".
inline const char* active_isa() noexcept { return "scalar"; }

}  // namespace avglocal::support::simd
