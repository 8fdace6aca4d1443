// The determinism contract of the avglocal engines, encoded as lint checks.
//
// The repo's load-bearing invariant is that every execution topology -
// serial, pooled, sharded, batched, layer-jump - merges bit-identically into
// the monolithic sweep. The golden-corpus tests enforce that dynamically;
// these checks reject the usual ways of breaking it at build time:
//
//   raw-entropy            entropy sources outside support/rng.* (a stray
//                          std::random_device / rand / time() seed makes a
//                          run unreproducible by construction)
//   unordered-iteration    iterating std::unordered_{map,set} (iteration
//                          order is implementation- and seed-dependent, so
//                          any value accumulated in that order leaks
//                          nondeterminism into artefacts)
//   float-accumulation     float/double inside functions named merge/append
//                          in src/core + src/local (the PointAccumulator
//                          merge paths must stay exact integers; floating
//                          point is only allowed at finalize time)
//   hot-path-alloc         allocation-capable calls (new, push_back,
//                          resize, std::function, make_unique, ...) inside
//                          functions annotated AVGLOCAL_HOT
//                          (support/annotations.hpp) - the static
//                          complement of the runtime alloc_hook gates
//   thread-id-dependence   std::this_thread::get_id / std::thread::id /
//                          pthread_self anywhere: worker identity must
//                          never feed values (workers are addressed by
//                          stable indices instead)
//   narrowing-index        raw static_cast to a 32-bit vertex/arc index
//                          type (graph::Vertex, local::LocalVertex,
//                          graph::vid32, std::uint32_t) outside
//                          support/narrow.* - the compact-CSR layout makes
//                          silent 64->32 truncation a correctness bug, so
//                          every narrowing goes through the assert-checked
//                          checked_u32 / checked_narrow helpers
//   arrival-order-dependence  connection/arrival identity (client_id,
//                          session_id, *slot*, *arrival*, worker_id, ...)
//                          inside merge/append/accumulate bodies under
//                          src/core - the fabric's merge rule is "index
//                          accepted partials by unit id only", so which
//                          socket delivered a partial, in what accept
//                          order, must never steer how it is combined
//
// Suppression: `// avglocal-lint: allow(check-name)` on the same or the
// preceding line. Every suppression is visible in review - there are no
// file- or directory-level opt-outs.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace avglocal::lint {

struct Diagnostic {
  std::string path;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string check;
  std::string message;
};

struct CheckInfo {
  std::string name;
  std::string description;
};

/// The registered checks, in reporting order.
const std::vector<CheckInfo>& all_checks();

/// True when `name` names a registered check.
bool is_check_name(const std::string& name);

/// Runs `enabled` checks (all when empty) over one lexed file. Diagnostics
/// suppressed by allow-comments are already filtered out.
std::vector<Diagnostic> run_checks(const SourceFile& file, const std::set<std::string>& enabled);

/// Formats one diagnostic in the clang style:
///   path:line:col: warning: message [check-name]
std::string format(const Diagnostic& d);

}  // namespace avglocal::lint
