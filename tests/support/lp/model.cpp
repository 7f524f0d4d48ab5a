#include "lp/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

namespace flowtime::lp {

int LpProblem::add_column(double objective, double lower, double upper,
                          std::string name) {
  assert(lower <= upper && "variable bounds crossed");
  columns_.push_back(Column{objective, lower, upper, std::move(name)});
  col_entries_.emplace_back();
  return num_columns() - 1;
}

int LpProblem::add_row(RowSense sense, double rhs,
                       std::vector<RowEntry> entries, std::string name) {
  // Merge duplicate columns so solvers can assume one entry per column.
  std::map<int, double> merged;
  for (const RowEntry& e : entries) {
    assert(e.column >= 0 && e.column < num_columns());
    merged[e.column] += e.coeff;
  }
  std::vector<RowEntry> clean;
  clean.reserve(merged.size());
  for (const auto& [column, coeff] : merged) {
    if (coeff != 0.0) clean.push_back(RowEntry{column, coeff});
  }
  const int row = num_rows();
  // Rows only ever grow, so appending keeps each column's entries sorted.
  for (const RowEntry& e : clean) {
    col_entries_[static_cast<std::size_t>(e.column)].push_back(
        ColEntry{row, e.coeff});
  }
  rows_.push_back(Row{sense, rhs, std::move(clean), std::move(name)});
  return num_rows() - 1;
}

void LpProblem::set_row(int row, RowSense sense, double rhs) {
  auto& r = rows_[static_cast<std::size_t>(row)];
  r.sense = sense;
  r.rhs = rhs;
}

void LpProblem::set_bounds(int column, double lower, double upper) {
  assert(lower <= upper && "variable bounds crossed");
  auto& c = columns_[static_cast<std::size_t>(column)];
  c.lower = lower;
  c.upper = upper;
}

void LpProblem::set_objective_coeff(int column, double coeff) {
  columns_[static_cast<std::size_t>(column)].objective = coeff;
}

void LpProblem::set_row_coeff(int row, int column, double coeff) {
  assert(column >= 0 && column < num_columns());
  auto& entries = rows_[static_cast<std::size_t>(row)].entries;
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (it->column != column) continue;
    if (coeff == 0.0) {
      entries.erase(it);
    } else {
      it->coeff = coeff;
    }
    set_col_coeff(column, row, coeff);
    return;
  }
  if (coeff != 0.0) {
    entries.push_back(RowEntry{column, coeff});
    set_col_coeff(column, row, coeff);
  }
}

void LpProblem::set_col_coeff(int column, int row, double coeff) {
  auto& entries = col_entries_[static_cast<std::size_t>(column)];
  // Keep row order so iteration order stays independent of mutation history.
  auto it = std::lower_bound(
      entries.begin(), entries.end(), row,
      [](const ColEntry& e, int r) { return e.row < r; });
  if (it != entries.end() && it->row == row) {
    if (coeff == 0.0) {
      entries.erase(it);
    } else {
      it->coeff = coeff;
    }
  } else if (coeff != 0.0) {
    entries.insert(it, ColEntry{row, coeff});
  }
}

double LpProblem::row_value(int row, const std::vector<double>& x) const {
  const auto& r = rows_[static_cast<std::size_t>(row)];
  double value = 0.0;
  for (const RowEntry& e : r.entries) {
    value += e.coeff * x[static_cast<std::size_t>(e.column)];
  }
  return value;
}

bool LpProblem::is_feasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != num_columns()) return false;
  for (int j = 0; j < num_columns(); ++j) {
    const auto& c = columns_[static_cast<std::size_t>(j)];
    const double v = x[static_cast<std::size_t>(j)];
    if (v < c.lower - tol || v > c.upper + tol) return false;
  }
  for (int i = 0; i < num_rows(); ++i) {
    const auto& r = rows_[static_cast<std::size_t>(i)];
    const double lhs = row_value(i, x);
    switch (r.sense) {
      case RowSense::kLessEqual:
        if (lhs > r.rhs + tol) return false;
        break;
      case RowSense::kEqual:
        if (std::abs(lhs - r.rhs) > tol) return false;
        break;
      case RowSense::kGreaterEqual:
        if (lhs < r.rhs - tol) return false;
        break;
    }
  }
  return true;
}

double LpProblem::objective_value(const std::vector<double>& x) const {
  double value = 0.0;
  for (int j = 0; j < num_columns(); ++j) {
    value += columns_[static_cast<std::size_t>(j)].objective *
             x[static_cast<std::size_t>(j)];
  }
  return value;
}

}  // namespace flowtime::lp
