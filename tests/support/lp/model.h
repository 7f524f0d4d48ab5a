// Linear-program model types.
//
// FlowTime's scheduler (paper §V) formulates resource allocation as an ILP
// whose constraint matrix is totally unimodular, so an LP solver returning
// vertex solutions yields the integral optimum. The scheduler solves it by
// parametric max flow (core/flow_placement.h); the tests check that solver
// and the paper's Lemmas against this test-only LP stack:
//
//   LpProblem (this header)  — column/row model with bounds,
//   SimplexSolver            — two-phase bounded-variable primal simplex,
//   BranchAndBound           — reference MILP solver,
//   LexMinMaxSolver          — the paper's lexicographic min-max objective.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "lp/solve_status.h"

namespace flowtime::lp {

/// +infinity for variable/row bounds.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Row sense for constraints.
enum class RowSense { kLessEqual, kEqual, kGreaterEqual };

/// One nonzero coefficient of a row.
struct RowEntry {
  int column = 0;
  double coeff = 0.0;
};

/// One nonzero coefficient of a column (the CSC-style view the revised
/// simplex prices and factorizes from).
struct ColEntry {
  int row = 0;
  double coeff = 0.0;
};

/// Snapshot of a simplex basis, for warm-starting a later solve.
///
/// Column indices use the solver's internal layout: [0, num_structural)
/// are the problem's columns, [num_structural, num_structural + num_rows)
/// the row slacks, and [num_structural + num_rows, num_structural +
/// 2*num_rows) the phase-1 artificials (basic artificials survive only in
/// degenerate optima, pinned at zero). `nonbasic_state` records the rest
/// position of every column (0 = at lower bound, 1 = at upper bound,
/// 2 = free); entries for basic columns are present but meaningless.
///
/// A basis is only a *hint*: SimplexSolver validates dimensions, repairs
/// primal feasibility after data changes, and falls back to a cold solve
/// when the hint is unusable, so callers may pass stale bases freely as
/// long as the problem shape (rows/columns) still matches.
struct Basis {
  int num_rows = 0;
  int num_structural = 0;
  std::vector<int> basic;  // column basic in row i, one per row
  std::vector<std::uint8_t> nonbasic_state;  // one per internal column

  bool empty() const { return basic.empty(); }
};

/// Result of an LP (or MILP) solve.
struct Solution {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  std::vector<double> x;             // primal values, one per column
  std::vector<double> row_activity;  // Ax, one per row
  std::vector<double> duals;         // y, one per row (LP only)
  std::int64_t iterations = 0;       // simplex pivots (or B&B nodes)
  std::int64_t phase1_iterations = 0;  // pivots spent reaching feasibility
  /// Wall time of the solve; populated only while obs is enabled.
  double solve_seconds = 0.0;
  /// Final basis, for warm-starting the next solve of a same-shaped
  /// problem. Empty when the solve failed before reaching a basis.
  Basis basis;
  /// True when a caller-provided warm basis was actually used.
  bool warm_start_used = false;
  /// True when a caller-provided warm basis had to be abandoned (shape
  /// mismatch, singular, or unrepairable) and the solve restarted cold.
  bool warm_start_fallback = false;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

/// A minimization LP in computational form:
///
///   minimize    c^T x
///   subject to  row_lhs ( <= | = | >= ) rhs
///               lb <= x <= ub
///
/// Columns and rows are added incrementally; the solvers treat the problem
/// as immutable input. Coefficients are stored both row-wise (for row
/// evaluation and the mutation API) and column-wise (column_entries, the
/// view the revised simplex consumes); the two views are kept in sync by
/// every mutator.
class LpProblem {
 public:
  /// Adds a variable, returns its column index.
  int add_column(double objective, double lower, double upper,
                 std::string name = {});

  /// Adds a constraint row from sparse entries, returns its row index.
  /// Entries with duplicate column indices are summed.
  int add_row(RowSense sense, double rhs, std::vector<RowEntry> entries,
              std::string name = {});

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  double objective_coeff(int column) const {
    return columns_[static_cast<std::size_t>(column)].objective;
  }
  double lower_bound(int column) const {
    return columns_[static_cast<std::size_t>(column)].lower;
  }
  double upper_bound(int column) const {
    return columns_[static_cast<std::size_t>(column)].upper;
  }
  const std::string& column_name(int column) const {
    return columns_[static_cast<std::size_t>(column)].name;
  }

  RowSense row_sense(int row) const {
    return rows_[static_cast<std::size_t>(row)].sense;
  }
  double row_rhs(int row) const {
    return rows_[static_cast<std::size_t>(row)].rhs;
  }
  const std::vector<RowEntry>& row_entries(int row) const {
    return rows_[static_cast<std::size_t>(row)].entries;
  }
  /// Column-wise (CSC-style) view of the constraint matrix, maintained
  /// incrementally by add_row / set_row_coeff. Entries are sorted by row
  /// index and never carry explicit zeros. The revised simplex prices and
  /// factorizes straight from this view, so re-solves of a mutated problem
  /// (the lexmin driver's freeze-and-resolve loop) pay no column rebuild.
  const std::vector<ColEntry>& column_entries(int column) const {
    return col_entries_[static_cast<std::size_t>(column)];
  }
  const std::string& row_name(int row) const {
    return rows_[static_cast<std::size_t>(row)].name;
  }

  /// Mutators used by the lexicographic driver to freeze binding rows and by
  /// branch-and-bound to tighten variable bounds. Indices must be valid.
  void set_row(int row, RowSense sense, double rhs);
  void set_bounds(int column, double lower, double upper);
  void set_objective_coeff(int column, double coeff);
  /// Sets one coefficient of an existing row: updates the entry in place,
  /// inserts it when absent, erases it when `coeff` is zero (rows never
  /// carry explicit zeros). Lets the lexmin driver retarget its per-load
  /// rows in place instead of rebuilding the whole problem.
  void set_row_coeff(int row, int column, double coeff);

  /// Evaluates one row's left-hand side at a point.
  double row_value(int row, const std::vector<double>& x) const;

  /// Checks that a point satisfies all bounds and rows within `tol`.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Evaluates the objective at a point.
  double objective_value(const std::vector<double>& x) const;

 private:
  struct Column {
    double objective = 0.0;
    double lower = 0.0;
    double upper = kInfinity;
    std::string name;
  };
  struct Row {
    RowSense sense = RowSense::kLessEqual;
    double rhs = 0.0;
    std::vector<RowEntry> entries;
    std::string name;
  };

  void set_col_coeff(int column, int row, double coeff);

  std::vector<Column> columns_;
  std::vector<Row> rows_;
  // CSC mirror of rows_[*].entries, one row-sorted entry vector per column.
  std::vector<std::vector<ColEntry>> col_entries_;
};

}  // namespace flowtime::lp
