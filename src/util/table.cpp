#include "util/table.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace flowtime::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::begin_row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(std::string cell) {
  assert(!rows_.empty() && "call begin_row() before add()");
  rows_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double value, int precision) {
  return add(format_double(value, precision));
}

Table& Table::add(std::int64_t value) {
  return add(std::to_string(value));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      if (c > 0) out << " | ";
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << cell;
      out << std::string(widths[c] - std::min(widths[c], cell.size()), ' ');
    }
    out << "\n";
  };

  emit_row(header_);
  for (std::size_t c = 0; c < widths.size(); ++c) {
    if (c > 0) out << "-+-";
    out << std::string(widths[c], '-');
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string format_double(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

}  // namespace flowtime::util
