// String-keyed registry of every graph family in generators.hpp.
//
// The registry is the declarative face of the generators: each family is
// named, documented, parameterised (numeric parameters with defaults, e.g.
// the gnp average degree or the random-regular degree), and exposes the
// sizes it can actually realise. Sweep layers ask for "about n vertices";
// the family answers with the nearest size it can build exactly (a torus
// needs a square, a regular graph needs n*d even), so downstream code that
// requires `vertex_count() == n` - core::SweepDriver, the shard planner -
// holds by construction for every family. Sizes beyond the Vertex index
// range are rejected up front (checked_realised_size), never wrapped.
//
// Randomised families draw from the caller's RNG only; building the same
// (family, n, params) from an equally seeded stream is deterministic, which
// is what lets every shard of a sweep rebuild identical graphs.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace avglocal::graph {

/// Largest vertex count any graph can have: vertices are Vertex indices.
inline constexpr std::size_t kMaxVertices = std::numeric_limits<Vertex>::max();

/// One declared numeric parameter of a family (e.g. "degree" = 3).
struct FamilyParam {
  std::string name;
  double default_value = 0.0;
  std::string description;
};

/// Parsed parameter overrides, by name. Unknown names are rejected when
/// resolved against a family's declaration.
using FamilyParamOverrides = std::vector<std::pair<std::string, double>>;

/// One registered graph family. `realised_size` and `build` receive the
/// resolved parameter values positionally, aligned with `params`.
struct GraphFamily {
  std::string name;
  std::string description;
  std::vector<FamilyParam> params;
  /// True when `build` consumes randomness (gnp, random trees, ...).
  bool randomised = false;
  /// Smallest size the family exists at (before snapping).
  std::size_t min_size = 2;
  /// Nearest realisable size >= max(n, min_size): the family guarantees
  /// build(realised_size(n), ...) has exactly that many vertices.
  std::function<std::size_t(std::size_t n, std::span<const double> params)> realised_size;
  std::function<Graph(std::size_t n, std::span<const double> params, support::Xoshiro256& rng)>
      build;
};

/// A parsed "family spec" string: a registry key plus optional overrides,
/// e.g. "torus", "gnp:avg-degree=6" or "random-regular:degree=4".
struct FamilySpec {
  std::string family;
  FamilyParamOverrides params;

  friend bool operator==(const FamilySpec&, const FamilySpec&) = default;
};

FamilySpec parse_family_spec(std::string_view text);

/// Renders a FamilySpec back to its canonical string form (params in the
/// family's declaration order once resolved; here, in the given order).
std::string family_spec_to_string(const FamilySpec& spec);

class FamilyRegistry {
 public:
  /// The process-wide registry holding every generator in generators.hpp.
  static const FamilyRegistry& global();

  const GraphFamily* find(std::string_view name) const noexcept;

  /// Like find, but throws std::invalid_argument naming the known families
  /// - callers get a usable error before any sweep work starts.
  const GraphFamily& at(std::string_view name) const;

  /// Registry keys in registration order (the order `list` prints).
  std::vector<std::string> names() const;

  /// Resolves overrides against the family's declared parameters: defaults
  /// filled in, unknown or duplicate names rejected with
  /// std::invalid_argument.
  static std::vector<double> resolve_params(const GraphFamily& family,
                                            const FamilyParamOverrides& overrides);

  /// The exact vertex count `family` realises for a requested size n, with
  /// `params` resolved by resolve_params. The one size gate: throws
  /// std::invalid_argument, naming the value and the limit, when n or the
  /// realised size exceeds kMaxVertices - before any graph work, and
  /// before a family's size arithmetic can wrap. build and
  /// core::resolve_scenario both size graphs through it.
  static std::size_t checked_realised_size(const GraphFamily& family,
                                           std::span<const double> params, std::size_t n);

  /// Builds the realised-size member of the family. The returned graph has
  /// exactly checked_realised_size(family, params, n) vertices.
  Graph build(const FamilySpec& spec, std::size_t n, support::Xoshiro256& rng) const;

  void register_family(GraphFamily family);

 private:
  std::vector<GraphFamily> families_;
};

}  // namespace avglocal::graph
