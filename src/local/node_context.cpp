#include "local/node_context.hpp"

#include <stdexcept>

namespace avglocal::local {

void NodeContext::reject(const char* what) { throw std::invalid_argument(what); }

void NodeContext::output(std::int64_t value) {
  if (has_output()) throw std::logic_error("output: node already output");
  output_ = value;
  output_round_ = round_;
}

}  // namespace avglocal::local
