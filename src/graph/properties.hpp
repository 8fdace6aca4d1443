// Structural predicates and summaries over graphs.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"

namespace avglocal::graph {

/// True when the graph is connected (single-vertex graphs are connected).
bool is_connected(const Graph& g);

std::size_t max_degree(const Graph& g);

}  // namespace avglocal::graph
