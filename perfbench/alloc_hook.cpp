// Linked into perfbench_allocs only: counting operator new for the
// allocs_per_trial metrics. The timed binary never pays for it.
#include "common.hpp"
#include "support/alloc_hook.hpp"

AVGLOCAL_DEFINE_ALLOC_HOOK();

bool perfbench::alloc_hook_installed() { return true; }
