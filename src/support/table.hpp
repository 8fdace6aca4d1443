// Markdown table rendering for experiment output.
//
// `avglocal_cli experiments` prints the tables that stand in for the
// paper's evaluation; this renderer keeps them readable in a terminal and
// pasteable into markdown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace avglocal::support {

/// A simple column-aligned table: set headers, append rows of cells, render.
class Table {
 public:
  Table() = default;

  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Appends one row. The row is padded / truncated to the header width.
  void add_row(std::vector<std::string> cells);

  /// Convenience cell formatters. (std::size_t and std::uint64_t are the
  /// same type on the supported platforms, hence a single overload.)
  static std::string cell(std::int64_t v);
  static std::string cell(std::uint64_t v);
  static std::string cell(int v);
  static std::string cell(double v, int precision = 3);
  static std::string cell(std::string s) { return s; }

  std::size_t rows() const noexcept { return rows_.size(); }
  std::size_t columns() const noexcept { return headers_.size(); }

  /// Renders as a GitHub-flavoured markdown table.
  std::string to_markdown() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace avglocal::support
