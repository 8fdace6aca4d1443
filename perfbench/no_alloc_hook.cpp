// Linked into the timed perfbench binary: the global allocator is the
// system's own.
#include "common.hpp"

bool perfbench::alloc_hook_installed() { return false; }
