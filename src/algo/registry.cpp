#include "algo/registry.hpp"

#include <stdexcept>
#include <utility>

#include "algo/cole_vishkin.hpp"
#include "algo/greedy_colouring.hpp"
#include "algo/largest_id.hpp"
#include "algo/local_colouring.hpp"
#include "algo/mis_ring.hpp"
#include "algo/validity.hpp"
#include "graph/properties.hpp"
#include "support/assert.hpp"

namespace avglocal::algo {

namespace {

bool validate_largest_id(const graph::Graph&, const graph::IdAssignment& ids,
                         const std::vector<std::int64_t>& outputs) {
  return is_valid_largest_id(ids, outputs);
}

bool validate_three_colouring(const graph::Graph& g, const graph::IdAssignment&,
                              const std::vector<std::int64_t>& outputs) {
  return is_valid_colouring(g, outputs, 3);
}

bool validate_mis(const graph::Graph& g, const graph::IdAssignment&,
                  const std::vector<std::int64_t>& outputs) {
  return is_maximal_independent_set(g, outputs);
}

bool validate_greedy_colouring(const graph::Graph& g, const graph::IdAssignment&,
                               const std::vector<std::int64_t>& outputs) {
  return is_valid_colouring(g, outputs,
                            static_cast<std::int64_t>(graph::max_degree(g)) + 1);
}

AlgorithmRegistry build_global_registry() {
  AlgorithmRegistry registry;

  AlgorithmInfo largest_id;
  largest_id.name = "largest-id";
  largest_id.description = "the paper's largest-ID election (grow until a larger id or closure)";
  largest_id.kind = AlgorithmKind::kView;
  largest_id.constraint = "any connected graph";
  largest_id.view = [](std::size_t) { return make_largest_id_view(); };
  largest_id.validate = validate_largest_id;
  registry.register_algorithm(std::move(largest_id));

  AlgorithmInfo largest_id_ua;
  largest_id_ua.name = "largest-id-ua";
  largest_id_ua.description = "universe-aware largest-ID (ids known to be a permutation of 1..n)";
  largest_id_ua.kind = AlgorithmKind::kView;
  largest_id_ua.constraint = "any connected graph";
  largest_id_ua.view = [](std::size_t) { return make_largest_id_universe_aware_view(); };
  largest_id_ua.validate = validate_largest_id;
  registry.register_algorithm(std::move(largest_id_ua));

  AlgorithmInfo cv3;
  cv3.name = "cv3";
  cv3.description = "Cole-Vishkin 3-colouring on the known-n schedule";
  cv3.kind = AlgorithmKind::kView;
  cv3.constraint = "oriented cycles (make_cycle ports)";
  cv3.view = [](std::size_t n) { return make_cole_vishkin_view(n); };
  cv3.validate = validate_three_colouring;
  registry.register_algorithm(std::move(cv3));

  AlgorithmInfo mis;
  mis.name = "mis";
  mis.description = "maximal independent set via 3-colouring";
  mis.kind = AlgorithmKind::kView;
  mis.constraint = "oriented cycles (make_cycle ports)";
  mis.view = [](std::size_t n) { return make_mis_ring_view(n); };
  mis.validate = validate_mis;
  registry.register_algorithm(std::move(mis));

  AlgorithmInfo greedy;
  greedy.name = "greedy";
  greedy.description = "greedy (Delta+1)-colouring by identifier order";
  greedy.kind = AlgorithmKind::kView;
  greedy.constraint = "any connected graph";
  greedy.view = [](std::size_t) { return make_greedy_colouring_view(); };
  greedy.validate = validate_greedy_colouring;
  registry.register_algorithm(std::move(greedy));

  AlgorithmInfo local3;
  local3.name = "local3";
  local3.description = "locally-terminating 3-colouring, unknown n (message engine)";
  local3.kind = AlgorithmKind::kMessage;
  local3.constraint = "oriented cycles (make_cycle ports)";
  local3.messages = [](std::size_t) { return make_local_three_colouring(); };
  local3.knowledge = local::Knowledge::kUnknownN;
  local3.validate = validate_three_colouring;
  registry.register_algorithm(std::move(local3));

  AlgorithmInfo largest_id_msg;
  largest_id_msg.name = "largest-id-msg";
  largest_id_msg.description = "largest-ID by token flooding (message engine)";
  largest_id_msg.kind = AlgorithmKind::kMessage;
  largest_id_msg.constraint = "cycles (degree 2 at every vertex)";
  largest_id_msg.messages = [](std::size_t) { return make_largest_id_messages(); };
  largest_id_msg.knowledge = local::Knowledge::kUnknownN;
  largest_id_msg.validate = validate_largest_id;
  registry.register_algorithm(std::move(largest_id_msg));

  AlgorithmInfo cv3_msg;
  cv3_msg.name = "cv3-msg";
  cv3_msg.description = "Cole-Vishkin 3-colouring (message engine, knows n)";
  cv3_msg.kind = AlgorithmKind::kMessage;
  cv3_msg.constraint = "oriented cycles (make_cycle ports)";
  cv3_msg.messages = [](std::size_t) { return make_cole_vishkin_messages(); };
  cv3_msg.knowledge = local::Knowledge::kKnowsN;
  cv3_msg.validate = validate_three_colouring;
  registry.register_algorithm(std::move(cv3_msg));

  AlgorithmInfo greedy_msg;
  greedy_msg.name = "greedy-msg";
  greedy_msg.description = "greedy (Delta+1)-colouring (message engine)";
  greedy_msg.kind = AlgorithmKind::kMessage;
  greedy_msg.constraint = "any connected graph";
  greedy_msg.messages = [](std::size_t) { return make_greedy_colouring_messages(); };
  greedy_msg.knowledge = local::Knowledge::kUnknownN;
  greedy_msg.validate = validate_greedy_colouring;
  registry.register_algorithm(std::move(greedy_msg));

  return registry;
}

}  // namespace

const AlgorithmRegistry& AlgorithmRegistry::global() {
  static const AlgorithmRegistry registry = build_global_registry();
  return registry;
}

const AlgorithmInfo* AlgorithmRegistry::find(std::string_view name) const noexcept {
  for (const AlgorithmInfo& info : algorithms_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

const AlgorithmInfo& AlgorithmRegistry::at(std::string_view name) const {
  const AlgorithmInfo* info = find(name);
  if (info == nullptr) {
    std::string known;
    for (const AlgorithmInfo& a : algorithms_) {
      if (!known.empty()) known += ' ';
      known += a.name;
    }
    throw std::invalid_argument("unknown algorithm '" + std::string(name) +
                                "' (known: " + known + ")");
  }
  return *info;
}

std::vector<std::string> AlgorithmRegistry::names(AlgorithmKind kind) const {
  std::vector<std::string> out;
  for (const AlgorithmInfo& info : algorithms_) {
    if (info.kind == kind) out.push_back(info.name);
  }
  return out;
}

ViewCapabilities AlgorithmRegistry::probe(const AlgorithmInfo& info, std::size_t n) {
  AVGLOCAL_EXPECTS_MSG(info.kind == AlgorithmKind::kView,
                       "capabilities exist for view algorithms only");
  const local::ViewAlgorithmFactory factory = info.view(n);
  const auto instance = factory();
  AVGLOCAL_REQUIRE(instance != nullptr);
  ViewCapabilities caps;
  caps.ids_only_view = instance->ids_only_view();
  caps.min_radius = instance->min_radius();
  return caps;
}

void AlgorithmRegistry::register_algorithm(AlgorithmInfo info) {
  AVGLOCAL_REQUIRE_MSG(find(info.name) == nullptr, "duplicate algorithm registration");
  algorithms_.push_back(std::move(info));
}

}  // namespace avglocal::algo
