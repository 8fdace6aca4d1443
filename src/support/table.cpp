#include "support/table.hpp"

#include <algorithm>
#include <cstdio>

#include "support/assert.hpp"

namespace avglocal::support {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  AVGLOCAL_EXPECTS(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::cell(std::int64_t v) { return std::to_string(v); }
std::string Table::cell(std::uint64_t v) { return std::to_string(v); }
std::string Table::cell(int v) { return std::to_string(v); }

std::string Table::cell(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

namespace {

std::vector<std::size_t> column_widths(const std::vector<std::string>& headers,
                                       const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(headers.size());
  for (std::size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
  for (const auto& row : rows)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  return widths;
}

void append_padded(std::string& out, const std::string& s, std::size_t width) {
  out += s;
  out.append(width - s.size(), ' ');
}

}  // namespace

std::string Table::to_markdown() const {
  const auto widths = column_widths(headers_, rows_);
  std::string out;
  out += "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += " ";
    append_padded(out, headers_[c], widths[c]);
    out += " |";
  }
  out += "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += std::string(widths[c] + 2, '-');
    out += "|";
  }
  out += "\n";
  for (const auto& row : rows_) {
    out += "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      out += " ";
      append_padded(out, row[c], widths[c]);
      out += " |";
    }
    out += "\n";
  }
  return out;
}

}  // namespace avglocal::support
