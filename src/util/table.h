// Console table rendering shared by the bench harnesses.
//
// Every bench binary prints the rows/series of the paper figure it
// regenerates; this keeps that output uniform and grep-friendly.
#pragma once

#include <string>
#include <vector>

namespace flowtime::util {

/// A rectangular table with a header row. Cells are strings; numeric helpers
/// format with fixed precision so columns line up.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add_* calls append cells to it.
  Table& begin_row();
  Table& add(std::string cell);
  Table& add(double value, int precision = 2);
  Table& add(std::int64_t value);
  Table& add(int value) { return add(static_cast<std::int64_t>(value)); }
  Table& add(std::size_t value) {
    return add(static_cast<std::int64_t>(value));
  }

  /// Renders with aligned columns, e.g.
  ///   algorithm  | misses | turnaround_s
  ///   -----------+--------+-------------
  ///   FlowTime   |      0 |       522.50
  std::string to_string() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (drop-in for benches that
/// print values outside a table).
std::string format_double(double value, int precision = 2);

}  // namespace flowtime::util
