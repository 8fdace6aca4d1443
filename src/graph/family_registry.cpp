#include "graph/family_registry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "graph/generators.hpp"
#include "support/assert.hpp"

namespace avglocal::graph {

namespace {

[[noreturn]] void spec_error(const std::string& what) { throw std::invalid_argument(what); }

/// Parameters that are semantically counts (tree arity, regular degree).
std::size_t as_count(double value, const char* what) {
  if (!(value >= 1.0) || value != std::floor(value) || value > 1e9) {
    spec_error(std::string(what) + " must be a positive integer, got " + std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

std::size_t square_side(std::size_t n, std::size_t min_side) {
  const auto side = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(std::max<std::size_t>(n, 1)))));
  return std::max(side, min_side);
}

/// Vertex count of the complete k-ary tree with the fewest levels holding
/// at least n vertices: 1 + k + k^2 + ... (k = 1 degenerates to a path).
std::size_t kary_size_at_least(std::size_t n, std::size_t k) {
  if (k == 1) return std::max<std::size_t>(n, 1);
  std::size_t size = 1;
  std::size_t level = 1;
  while (size < n) {
    level *= k;
    size += level;
  }
  return size;
}

std::size_t kary_levels_for(std::size_t size, std::size_t k) {
  std::size_t levels = 1;
  std::size_t total = 1;
  std::size_t level = 1;
  while (total < size) {
    level *= k;
    total += level;
    ++levels;
  }
  AVGLOCAL_REQUIRE_MSG(total == size, "size is not a complete k-ary tree size");
  return levels;
}

std::size_t regular_size_at_least(std::size_t n, std::size_t degree) {
  std::size_t size = std::max(n, degree + 1);
  if (size * degree % 2 != 0) ++size;  // configuration model needs n*d even
  return size;
}

FamilyRegistry build_global_registry() {
  FamilyRegistry registry;

  registry.register_family(
      {"cycle",
       "the n-cycle, the paper's main topology (oriented ring ports)",
       {},
       /*randomised=*/false,
       /*min_size=*/3,
       [](std::size_t n, std::span<const double>) { return std::max<std::size_t>(n, 3); },
       [](std::size_t n, std::span<const double>, support::Xoshiro256&) {
         return make_cycle(n);
       }});

  registry.register_family(
      {"path",
       "the n-vertex path",
       {},
       /*randomised=*/false,
       /*min_size=*/2,
       [](std::size_t n, std::span<const double>) { return std::max<std::size_t>(n, 2); },
       [](std::size_t n, std::span<const double>, support::Xoshiro256&) {
         return make_path(n);
       }});

  registry.register_family(
      {"complete",
       "the complete graph K_n",
       {},
       /*randomised=*/false,
       /*min_size=*/2,
       [](std::size_t n, std::span<const double>) { return std::max<std::size_t>(n, 2); },
       [](std::size_t n, std::span<const double>, support::Xoshiro256&) {
         return make_complete(n);
       }});

  registry.register_family(
      {"star",
       "one centre with n-1 leaves",
       {},
       /*randomised=*/false,
       /*min_size=*/2,
       [](std::size_t n, std::span<const double>) { return std::max<std::size_t>(n, 2); },
       [](std::size_t n, std::span<const double>, support::Xoshiro256&) { return make_star(n); }});

  registry.register_family(
      {"grid",
       "the side x side square grid nearest to n vertices",
       {},
       /*randomised=*/false,
       /*min_size=*/4,
       [](std::size_t n, std::span<const double>) {
         const std::size_t side = square_side(n, 2);
         return side * side;
       },
       [](std::size_t n, std::span<const double>, support::Xoshiro256&) {
         const std::size_t side = square_side(n, 2);
         AVGLOCAL_REQUIRE(side * side == n);
         return make_grid(side, side);
       }});

  registry.register_family(
      {"torus",
       "the side x side torus (wrap-around grid) nearest to n vertices",
       {},
       /*randomised=*/false,
       /*min_size=*/9,
       [](std::size_t n, std::span<const double>) {
         const std::size_t side = square_side(n, 3);
         return side * side;
       },
       [](std::size_t n, std::span<const double>, support::Xoshiro256&) {
         const std::size_t side = square_side(n, 3);
         AVGLOCAL_REQUIRE(side * side == n);
         return make_torus(side, side);
       }});

  registry.register_family(
      {"kary-tree",
       "the smallest complete k-ary tree with at least n vertices",
       {{"arity", 2.0, "branching factor k (>= 1; 1 degenerates to a path)"}},
       /*randomised=*/false,
       /*min_size=*/2,
       [](std::size_t n, std::span<const double> params) {
         return kary_size_at_least(std::max<std::size_t>(n, 2), as_count(params[0], "arity"));
       },
       [](std::size_t n, std::span<const double> params, support::Xoshiro256&) {
         const std::size_t k = as_count(params[0], "arity");
         if (k == 1) return make_kary_tree(1, n);
         return make_kary_tree(k, kary_levels_for(n, k));
       }});

  registry.register_family(
      {"random-tree",
       "a uniformly random labelled tree (random Pruefer sequence)",
       {},
       /*randomised=*/true,
       /*min_size=*/2,
       [](std::size_t n, std::span<const double>) { return std::max<std::size_t>(n, 2); },
       [](std::size_t n, std::span<const double>, support::Xoshiro256& rng) {
         return make_random_tree(n, rng);
       }});

  registry.register_family(
      {"gnp",
       "Erdos-Renyi G(n, p) conditioned on connectivity",
       {{"avg-degree", 8.0, "expected degree; p = avg-degree / n, clamped to 1"}},
       /*randomised=*/true,
       /*min_size=*/2,
       [](std::size_t n, std::span<const double>) { return std::max<std::size_t>(n, 2); },
       [](std::size_t n, std::span<const double> params, support::Xoshiro256& rng) {
         const double avg_degree = params[0];
         if (!(avg_degree > 0.0)) spec_error("gnp avg-degree must be positive");
         const double p = std::min(1.0, avg_degree / static_cast<double>(n));
         return make_gnp_connected(n, p, rng);
       }});

  registry.register_family(
      {"random-regular",
       "a random d-regular graph (configuration model, connected)",
       {{"degree", 3.0, "vertex degree d (>= 2; n is bumped so n*d is even)"}},
       /*randomised=*/true,
       /*min_size=*/2,
       [](std::size_t n, std::span<const double> params) {
         return regular_size_at_least(n, as_count(params[0], "degree"));
       },
       [](std::size_t n, std::span<const double> params, support::Xoshiro256& rng) {
         return make_random_regular(n, as_count(params[0], "degree"), rng);
       }});

  return registry;
}

}  // namespace

FamilySpec parse_family_spec(std::string_view text) {
  FamilySpec spec;
  const auto colon = text.find(':');
  spec.family = std::string(text.substr(0, colon));
  if (spec.family.empty()) spec_error("empty graph family name");
  if (colon == std::string_view::npos) return spec;

  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    const auto equals = item.find('=');
    if (equals == std::string_view::npos || equals == 0) {
      spec_error("family parameter must be name=value, got '" + std::string(item) + "'");
    }
    const std::string name(item.substr(0, equals));
    const std::string value_text(item.substr(equals + 1));
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (value_text.empty() || end != value_text.c_str() + value_text.size()) {
      spec_error("family parameter '" + name + "' has non-numeric value '" + value_text + "'");
    }
    spec.params.emplace_back(name, value);
  }
  return spec;
}

std::string family_spec_to_string(const FamilySpec& spec) {
  std::string out = spec.family;
  for (std::size_t i = 0; i < spec.params.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += spec.params[i].first;
    out += '=';
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, spec.params[i].second);
    out.append(buf, ec == std::errc{} ? end : buf);
  }
  return out;
}

const FamilyRegistry& FamilyRegistry::global() {
  static const FamilyRegistry registry = build_global_registry();
  return registry;
}

const GraphFamily* FamilyRegistry::find(std::string_view name) const noexcept {
  for (const GraphFamily& family : families_) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

const GraphFamily& FamilyRegistry::at(std::string_view name) const {
  const GraphFamily* family = find(name);
  if (family == nullptr) {
    std::string known;
    for (const GraphFamily& f : families_) {
      if (!known.empty()) known += ' ';
      known += f.name;
    }
    spec_error("unknown graph family '" + std::string(name) + "' (known: " + known + ")");
  }
  return *family;
}

std::vector<std::string> FamilyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const GraphFamily& family : families_) out.push_back(family.name);
  return out;
}

std::vector<double> FamilyRegistry::resolve_params(const GraphFamily& family,
                                                   const FamilyParamOverrides& overrides) {
  std::vector<double> values;
  values.reserve(family.params.size());
  for (const FamilyParam& param : family.params) values.push_back(param.default_value);
  std::vector<bool> seen(family.params.size(), false);
  for (const auto& [name, value] : overrides) {
    std::size_t index = family.params.size();
    for (std::size_t i = 0; i < family.params.size(); ++i) {
      if (family.params[i].name == name) {
        index = i;
        break;
      }
    }
    if (index == family.params.size()) {
      std::string known;
      for (const FamilyParam& p : family.params) {
        if (!known.empty()) known += ' ';
        known += p.name;
      }
      spec_error("family '" + family.name + "' has no parameter '" + name + "'" +
                 (known.empty() ? " (it takes none)" : " (known: " + known + ")"));
    }
    if (seen[index]) spec_error("duplicate family parameter '" + name + "'");
    seen[index] = true;
    values[index] = value;
  }
  return values;
}

std::size_t FamilyRegistry::checked_realised_size(const GraphFamily& family,
                                                  std::span<const double> params, std::size_t n) {
  const std::string limit = std::to_string(kMaxVertices);
  if (n > kMaxVertices) {
    spec_error("graph size " + std::to_string(n) + " exceeds the vertex limit " + limit);
  }
  const std::size_t realised = family.realised_size(std::max(n, family.min_size), params);
  if (realised > kMaxVertices) {
    spec_error("family '" + family.name + "' realises size " + std::to_string(n) + " as " +
               std::to_string(realised) + " vertices, which exceeds the vertex limit " + limit);
  }
  return realised;
}

Graph FamilyRegistry::build(const FamilySpec& spec, std::size_t n,
                            support::Xoshiro256& rng) const {
  const GraphFamily& family = at(spec.family);
  const std::vector<double> params = resolve_params(family, spec.params);
  const std::size_t size = checked_realised_size(family, params, n);
  Graph g = family.build(size, params, rng);
  AVGLOCAL_REQUIRE_MSG(g.vertex_count() == size, "family realised an unexpected size");
  return g;
}

void FamilyRegistry::register_family(GraphFamily family) {
  AVGLOCAL_REQUIRE_MSG(find(family.name) == nullptr, "duplicate graph family registration");
  families_.push_back(std::move(family));
}

}  // namespace avglocal::graph
