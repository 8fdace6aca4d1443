// Malformed request lines, each with the one error line that every
// newline-JSON service answers it with. The sweep daemon's and the fabric
// coordinator's protocol tests both run this table, so the two services
// are held to the same bytes for every line.
#pragma once

#include <string>
#include <vector>

namespace avglocal::support {

struct BadRequestLine {
  std::string request;
  std::string reply;
};

inline std::vector<BadRequestLine> bad_request_lines() {
  return {
      {"not json", R"({"ok":false,"error":"json: bad literal at offset 0"})"},
      // Nested past the parser's depth cap: an error reply, not a stack
      // overflow, and the service keeps answering.
      {std::string(200'000, '['), R"({"ok":false,"error":"json: nesting deeper than 64 levels"})"},
      {"{}", R"({"ok":false,"error":"json: missing key 'op'"})"},
      {R"({"op":1})", R"({"ok":false,"error":"json: expected a string"})"},
      {R"({"op":"frobnicate"})", R"({"ok":false,"error":"unknown op 'frobnicate'"})"},
  };
}

}  // namespace avglocal::support
