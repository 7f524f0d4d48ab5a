#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>
#include <vector>

#include "lp/solve_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace flowtime::lp {

namespace {

// Clock read for the profiled path only: the engine checks its cached
// thread-local profile pointer first, so the unprofiled hot loop never
// touches the clock.
inline std::uint64_t prof_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Nonbasic rest position of a variable.
enum class NonbasicState : std::uint8_t { kAtLower, kAtUpper, kFree };

// Borrowed view of one sparse column (entries sorted by row).
struct ColSpan {
  const ColEntry* data = nullptr;
  std::size_t size = 0;
  const ColEntry* begin() const { return data; }
  const ColEntry* end() const { return data + size; }
};

// The basis representation behind the revised simplex: left-looking LU
// factorization of the basis (threshold-free partial pivoting — on totally
// unimodular bases every pivot is ±1, so magnitude-greedy selection is
// already exact) plus a product-form eta file absorbing pivots between
// refactorizations. The eta file is bounded by
// SimplexOptions::refactor_interval, after which the engine refactorizes
// and the file resets.
//
// Index conventions: "row" means constraint row, "position" means basis
// slot (both range over [0, m) and coincide in the pivot loop — basic
// variable of slot i leaves on constraint row i). ftran/solve_dense map
// row-indexed inputs to position-indexed outputs; btran maps
// position-indexed costs to row-indexed duals. `update` is called only
// with |w[leaving_row]| > pivot_tol.
//
// Factoring B with columns taken in a fill-reducing order cperm (ascending
// column nonzero count) and pivot rows rperm gives, with C[:,k] =
// B[:, cperm[k]]:   (P_r C) = L U,  L unit lower triangular, both in step
// space. ftran solves L, then U, then scatters v into position space via
// cperm and replays etas oldest-to-newest; btran applies eta transposes
// newest-to-oldest, gathers through cperm, solves U^T then L^T, and scatters
// through rperm back to constraint-row space.
class SparseLuBasis {
 public:
  SparseLuBasis() = default;
  SparseLuBasis(int m, double pivot_tol) : m_(m), pivot_tol_(pivot_tol) {}

  /// Installs B = diag(signs) (the all-artificial start basis) and clears
  /// any update history.
  void install_diagonal(const std::vector<double>& signs) {
    lcols_.assign(static_cast<std::size_t>(m_), {});
    ucols_.assign(static_cast<std::size_t>(m_), {});
    udiag_ = signs;
    rperm_.resize(static_cast<std::size_t>(m_));
    cperm_.resize(static_cast<std::size_t>(m_));
    rowstep_.resize(static_cast<std::size_t>(m_));
    std::iota(rperm_.begin(), rperm_.end(), 0);
    std::iota(cperm_.begin(), cperm_.end(), 0);
    std::iota(rowstep_.begin(), rowstep_.end(), 0);
    etas_.clear();
  }

  /// Rebuilds the factorization from the basis columns, one per position.
  /// Returns false when the basis is (numerically) singular.
  bool refactorize(const std::vector<ColSpan>& cols) {
    const int m = m_;
    // Ascending-nonzero column order: singleton columns (slacks, pinned
    // artificials) pivot first and generate no fill.
    cperm_.resize(static_cast<std::size_t>(m));
    std::iota(cperm_.begin(), cperm_.end(), 0);
    std::stable_sort(cperm_.begin(), cperm_.end(), [&](int a, int b) {
      return cols[static_cast<std::size_t>(a)].size <
             cols[static_cast<std::size_t>(b)].size;
    });
    lcols_.assign(static_cast<std::size_t>(m), {});
    ucols_.assign(static_cast<std::size_t>(m), {});
    udiag_.assign(static_cast<std::size_t>(m), 0.0);
    rperm_.assign(static_cast<std::size_t>(m), -1);
    rowstep_.assign(static_cast<std::size_t>(m), -1);
    etas_.clear();
    work_.assign(static_cast<std::size_t>(m), 0.0);

    for (int k = 0; k < m; ++k) {
      std::fill(work_.begin(), work_.end(), 0.0);
      for (const ColEntry& e :
           cols[static_cast<std::size_t>(cperm_[static_cast<std::size_t>(k)])]) {
        work_[static_cast<std::size_t>(e.row)] = e.coeff;
      }
      // Left-looking elimination: apply every earlier L column; the value
      // sitting on an earlier pivot row at its turn is U(s, k).
      for (int s = 0; s < k; ++s) {
        const double u = work_[static_cast<std::size_t>(
            rperm_[static_cast<std::size_t>(s)])];
        if (u == 0.0) continue;
        ucols_[static_cast<std::size_t>(k)].push_back(Entry{s, u});
        for (const Entry& e : lcols_[static_cast<std::size_t>(s)]) {
          work_[static_cast<std::size_t>(e.index)] -= e.value * u;
        }
      }
      int prow = -1;
      double best = pivot_tol_;
      for (int row = 0; row < m; ++row) {
        if (rowstep_[static_cast<std::size_t>(row)] >= 0) continue;
        const double mag = std::abs(work_[static_cast<std::size_t>(row)]);
        if (mag > best) {
          best = mag;
          prow = row;
        }
      }
      if (prow < 0) return false;  // structurally or numerically singular
      rperm_[static_cast<std::size_t>(k)] = prow;
      rowstep_[static_cast<std::size_t>(prow)] = k;
      const double diag = work_[static_cast<std::size_t>(prow)];
      udiag_[static_cast<std::size_t>(k)] = diag;
      for (int row = 0; row < m; ++row) {
        if (rowstep_[static_cast<std::size_t>(row)] >= 0) continue;
        const double v = work_[static_cast<std::size_t>(row)];
        if (v != 0.0) {
          lcols_[static_cast<std::size_t>(k)].push_back(Entry{row, v / diag});
        }
      }
    }
    return true;
  }

  /// out = B^{-1} a for a sparse column a.
  void ftran(ColSpan a, std::vector<double>& out) const {
    work_.assign(static_cast<std::size_t>(m_), 0.0);
    for (const ColEntry& e : a) {
      work_[static_cast<std::size_t>(e.row)] = e.coeff;
    }
    factor_solve(out);
    apply_etas_forward(out);
  }

  /// out = B^{-1} rhs for a dense row-indexed rhs (basic-value recompute).
  void solve_dense(const std::vector<double>& rhs,
                   std::vector<double>& out) const {
    work_ = rhs;
    factor_solve(out);
    apply_etas_forward(out);
  }

  /// y^T = cb^T B^{-1} for the dense basic-cost vector cb (one per slot).
  void btran(const std::vector<double>& cb, std::vector<double>& y) const {
    // g = (E_1^T ... E_k^T applied newest-to-oldest) cb, in position space.
    g_ = cb;
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double acc = g_[static_cast<std::size_t>(it->pos)];
      for (const Entry& e : it->w) {
        acc -= e.value * g_[static_cast<std::size_t>(e.index)];
      }
      g_[static_cast<std::size_t>(it->pos)] = acc / it->wp;
    }
    // Solve U^T t = P^T g (forward, using U's columns), then L^T s = t
    // (backward), and scatter through the row permutation.
    z_.resize(static_cast<std::size_t>(m_));
    for (int k = 0; k < m_; ++k) {
      double acc = g_[static_cast<std::size_t>(cperm_[static_cast<std::size_t>(k)])];
      for (const Entry& e : ucols_[static_cast<std::size_t>(k)]) {
        acc -= e.value * z_[static_cast<std::size_t>(e.index)];
      }
      z_[static_cast<std::size_t>(k)] = acc / udiag_[static_cast<std::size_t>(k)];
    }
    y.assign(static_cast<std::size_t>(m_), 0.0);
    for (int k = m_ - 1; k >= 0; --k) {
      double acc = z_[static_cast<std::size_t>(k)];
      for (const Entry& e : lcols_[static_cast<std::size_t>(k)]) {
        // e.index is a constraint row pivoted at a later step; its solved
        // value is already scattered into y.
        acc -= e.value * y[static_cast<std::size_t>(e.index)];
      }
      y[static_cast<std::size_t>(rperm_[static_cast<std::size_t>(k)])] = acc;
    }
  }

  /// Absorbs a pivot: the column in slot `leaving_row` was replaced by the
  /// entering column whose ftran image is `w`.
  void update(int leaving_row, const std::vector<double>& w) {
    Eta eta;
    eta.pos = leaving_row;
    eta.wp = w[static_cast<std::size_t>(leaving_row)];
    for (int i = 0; i < m_; ++i) {
      if (i == leaving_row) continue;
      const double v = w[static_cast<std::size_t>(i)];
      if (v != 0.0) eta.w.push_back(Entry{i, v});
    }
    etas_.push_back(std::move(eta));
  }

 private:
  struct Entry {
    int index = 0;  // L: constraint row; U: earlier step; eta: position
    double value = 0.0;
  };
  struct Eta {
    int pos = 0;
    double wp = 0.0;         // pivot element w[pos]
    std::vector<Entry> w;    // off-pivot nonzeros of the ftran image
  };

  // Solves (factor only, no etas) B0 x = work_ (row-indexed) into `out`
  // (position-indexed). Consumes work_.
  void factor_solve(std::vector<double>& out) const {
    z_.resize(static_cast<std::size_t>(m_));
    for (int s = 0; s < m_; ++s) {
      const double zs =
          work_[static_cast<std::size_t>(rperm_[static_cast<std::size_t>(s)])];
      z_[static_cast<std::size_t>(s)] = zs;
      if (zs == 0.0) continue;
      for (const Entry& e : lcols_[static_cast<std::size_t>(s)]) {
        work_[static_cast<std::size_t>(e.index)] -= e.value * zs;
      }
    }
    for (int k = m_ - 1; k >= 0; --k) {
      const double vk =
          z_[static_cast<std::size_t>(k)] / udiag_[static_cast<std::size_t>(k)];
      z_[static_cast<std::size_t>(k)] = vk;
      if (vk == 0.0) continue;
      for (const Entry& e : ucols_[static_cast<std::size_t>(k)]) {
        z_[static_cast<std::size_t>(e.index)] -= e.value * vk;
      }
    }
    out.assign(static_cast<std::size_t>(m_), 0.0);
    for (int k = 0; k < m_; ++k) {
      out[static_cast<std::size_t>(cperm_[static_cast<std::size_t>(k)])] =
          z_[static_cast<std::size_t>(k)];
    }
  }

  void apply_etas_forward(std::vector<double>& x) const {
    for (const Eta& eta : etas_) {
      const double xp = x[static_cast<std::size_t>(eta.pos)];
      if (xp == 0.0) continue;
      const double t = xp / eta.wp;
      x[static_cast<std::size_t>(eta.pos)] = t;
      for (const Entry& e : eta.w) {
        x[static_cast<std::size_t>(e.index)] -= e.value * t;
      }
    }
  }

  int m_ = 0;
  double pivot_tol_ = 0.0;
  std::vector<std::vector<Entry>> lcols_;  // per step: (row, multiplier)
  std::vector<std::vector<Entry>> ucols_;  // per step k: (s < k, U(s,k))
  std::vector<double> udiag_;              // per step: U(k,k)
  std::vector<int> rperm_;                 // step -> pivot constraint row
  std::vector<int> rowstep_;               // constraint row -> step
  std::vector<int> cperm_;                 // step -> basis position
  std::vector<Eta> etas_;
  mutable std::vector<double> work_;  // row-indexed scratch
  mutable std::vector<double> z_;     // step-indexed scratch
  mutable std::vector<double> g_;     // position-indexed scratch
};

// Internal working problem: min c.x  s.t.  A x = b,  lb <= x <= ub, where
// columns [0, n_struct) are structural, [n_struct, n_struct+m) slacks and
// [n_struct+m, n_struct+2m) artificials. Structural columns are read
// straight from the LpProblem's CSC view; only slack/artificial columns are
// materialized here.
struct Working {
  int m = 0;        // rows
  int n_total = 0;  // all columns including slacks and artificials
  int n_struct = 0;
  std::vector<std::vector<ColEntry>> extra_cols;  // slacks then artificials
  std::vector<double> lb, ub;
  std::vector<double> cost;  // phase-2 objective
  std::vector<double> b;
};

class Engine {
 public:
  Engine(const LpProblem& problem, const SimplexOptions& options)
      : options_(options) {
    build(problem);
    lu_ = SparseLuBasis(w_.m, options_.pivot_tol);
  }

  ColSpan col(int j) const {
    if (j < w_.n_struct) {
      const std::vector<ColEntry>& c = problem_->column_entries(j);
      return ColSpan{c.data(), c.size()};
    }
    const std::vector<ColEntry>& c =
        w_.extra_cols[static_cast<std::size_t>(j - w_.n_struct)];
    return ColSpan{c.data(), c.size()};
  }

  Solution run(const Basis* warm) {
    Solution result;
    const std::int64_t limit =
        options_.max_iterations > 0
            ? options_.max_iterations
            : 200LL * (w_.m + w_.n_total) + 2000;

    bool warmed = false;
    if (warm != nullptr && !warm->empty()) {
      warmed = warm_start(*warm, limit, &result);
      result.warm_start_used = warmed;
      result.warm_start_fallback = !warmed;
    }

    if (!warmed) {
      init_basis();

      // Phase 1: minimize the sum of artificials.
      std::vector<double> phase1_cost(static_cast<std::size_t>(w_.n_total),
                                      0.0);
      for (int j = artificial_begin(); j < w_.n_total; ++j) {
        phase1_cost[static_cast<std::size_t>(j)] = 1.0;
      }
      const SolveStatus phase1 =
          optimize(phase1_cost, limit, &result.iterations);
      result.phase1_iterations = result.iterations;
      if (phase1 != SolveStatus::kOptimal) {
        result.status = phase1 == SolveStatus::kUnbounded
                            ? SolveStatus::kNumericalFailure  // phase 1 bounded
                            : phase1;
        return result;
      }
      // The phase-1 optimum is a residual: it only proves infeasibility
      // when it is nonzero *relative to the problem's scale*. A hard-coded
      // absolute cutoff misclassifies large-RHS formulations (residual
      // roundoff grows with ‖b‖) as infeasible.
      if (objective(phase1_cost) > infeasibility_threshold()) {
        result.status = SolveStatus::kInfeasible;
        return result;
      }
      // Pin artificials at zero for phase 2.
      for (int j = artificial_begin(); j < w_.n_total; ++j) {
        w_.lb[static_cast<std::size_t>(j)] = 0.0;
        w_.ub[static_cast<std::size_t>(j)] = 0.0;
        if (!in_basis_[static_cast<std::size_t>(j)]) {
          state_[static_cast<std::size_t>(j)] = NonbasicState::kAtLower;
        }
      }
    }

    // Phase 2: the real objective. An iteration-limit or budget cutoff
    // still returns the current feasible point and basis — truncated, not
    // failed.
    const SolveStatus phase2 = optimize(w_.cost, limit, &result.iterations);
    result.status = phase2;
    if (phase2 != SolveStatus::kOptimal &&
        phase2 != SolveStatus::kIterationLimit &&
        phase2 != SolveStatus::kTimeout) {
      return result;
    }
    result.basis = capture_basis();

    // Extract primal values for structural columns.
    std::vector<double> full = current_point();
    result.x.assign(full.begin(), full.begin() + w_.n_struct);
    result.objective = 0.0;
    for (int j = 0; j < w_.n_struct; ++j) {
      result.objective += w_.cost[static_cast<std::size_t>(j)] *
                          full[static_cast<std::size_t>(j)];
    }
    result.row_activity.resize(static_cast<std::size_t>(w_.m));
    for (int i = 0; i < w_.m; ++i) {
      // Row activity of the original row = rhs - slack value.
      const int slack = slack_begin() + i;
      result.row_activity[static_cast<std::size_t>(i)] =
          w_.b[static_cast<std::size_t>(i)] -
          full[static_cast<std::size_t>(slack)];
    }
    compute_duals(w_.cost, y_);
    result.duals = y_;
    return result;
  }

 private:
  int slack_begin() const { return w_.n_struct; }
  int artificial_begin() const { return w_.n_struct + w_.m; }

  std::vector<ColEntry>& extra(int j) {
    return w_.extra_cols[static_cast<std::size_t>(j - w_.n_struct)];
  }

  void build(const LpProblem& p) {
    problem_ = &p;
    w_.m = p.num_rows();
    w_.n_struct = p.num_columns();
    w_.n_total = w_.n_struct + 2 * w_.m;
    w_.extra_cols.resize(static_cast<std::size_t>(2 * w_.m));
    w_.lb.assign(static_cast<std::size_t>(w_.n_total), 0.0);
    w_.ub.assign(static_cast<std::size_t>(w_.n_total), kInfinity);
    w_.cost.assign(static_cast<std::size_t>(w_.n_total), 0.0);
    w_.b.resize(static_cast<std::size_t>(w_.m));

    for (int j = 0; j < w_.n_struct; ++j) {
      w_.lb[static_cast<std::size_t>(j)] = p.lower_bound(j);
      w_.ub[static_cast<std::size_t>(j)] = p.upper_bound(j);
      w_.cost[static_cast<std::size_t>(j)] = p.objective_coeff(j);
    }
    for (int i = 0; i < w_.m; ++i) {
      w_.b[static_cast<std::size_t>(i)] = p.row_rhs(i);
      const int slack = slack_begin() + i;
      extra(slack).push_back(ColEntry{i, 1.0});
      switch (p.row_sense(i)) {
        case RowSense::kLessEqual:
          w_.lb[static_cast<std::size_t>(slack)] = 0.0;
          w_.ub[static_cast<std::size_t>(slack)] = kInfinity;
          break;
        case RowSense::kEqual:
          w_.lb[static_cast<std::size_t>(slack)] = 0.0;
          w_.ub[static_cast<std::size_t>(slack)] = 0.0;
          break;
        case RowSense::kGreaterEqual:
          w_.lb[static_cast<std::size_t>(slack)] = -kInfinity;
          w_.ub[static_cast<std::size_t>(slack)] = 0.0;
          break;
      }
    }
  }

  // Rest value of a nonbasic variable.
  double nonbasic_value(int j) const {
    switch (state_[static_cast<std::size_t>(j)]) {
      case NonbasicState::kAtLower:
        return w_.lb[static_cast<std::size_t>(j)];
      case NonbasicState::kAtUpper:
        return w_.ub[static_cast<std::size_t>(j)];
      case NonbasicState::kFree:
        return 0.0;
    }
    return 0.0;
  }

  // Sets state_[j] to the natural rest position given its bounds.
  void rest_nonbasic(int j) {
    const double lo = w_.lb[static_cast<std::size_t>(j)];
    const double hi = w_.ub[static_cast<std::size_t>(j)];
    if (std::isfinite(lo)) {
      state_[static_cast<std::size_t>(j)] = NonbasicState::kAtLower;
    } else if (std::isfinite(hi)) {
      state_[static_cast<std::size_t>(j)] = NonbasicState::kAtUpper;
    } else {
      state_[static_cast<std::size_t>(j)] = NonbasicState::kFree;
    }
  }

  // Starts from the all-artificial basis: artificial i carries the residual
  // of row i with a +/-1 coefficient chosen so its value is nonnegative.
  void init_basis() {
    const auto n = static_cast<std::size_t>(w_.n_total);
    state_.assign(n, NonbasicState::kAtLower);
    in_basis_.assign(n, false);
    basis_.assign(static_cast<std::size_t>(w_.m), -1);

    for (int j = 0; j < artificial_begin(); ++j) rest_nonbasic(j);

    std::vector<double> residual = w_.b;
    for (int j = 0; j < artificial_begin(); ++j) {
      const double v = nonbasic_value(j);
      if (v == 0.0) continue;
      for (const ColEntry& e : col(j)) {
        residual[static_cast<std::size_t>(e.row)] -= e.coeff * v;
      }
    }
    xb_.resize(static_cast<std::size_t>(w_.m));
    std::vector<double> signs(static_cast<std::size_t>(w_.m));
    for (int i = 0; i < w_.m; ++i) {
      const double r = residual[static_cast<std::size_t>(i)];
      const double sign = r < 0.0 ? -1.0 : 1.0;
      const int art = artificial_begin() + i;
      // A failed warm-start attempt leaves artificials pinned at zero;
      // phase 1 needs their full range back.
      w_.lb[static_cast<std::size_t>(art)] = 0.0;
      w_.ub[static_cast<std::size_t>(art)] = kInfinity;
      extra(art).clear();
      extra(art).push_back(ColEntry{i, sign});
      basis_[static_cast<std::size_t>(i)] = art;
      in_basis_[static_cast<std::size_t>(art)] = true;
      signs[static_cast<std::size_t>(i)] = sign;  // B = diag(sign)
      xb_[static_cast<std::size_t>(i)] = std::abs(r);
    }
    lu_.install_diagonal(signs);
  }

  // Phase-1 residual above which the problem is declared infeasible,
  // scaled by the RHS magnitude so the test is invariant under row scaling.
  // The 10x headroom keeps the default (1e-6 for ‖b‖∞ <= 1) identical to
  // the solver's historical absolute cutoff.
  double infeasibility_threshold() const {
    double b_norm = 0.0;
    for (int i = 0; i < w_.m; ++i) {
      b_norm = std::max(b_norm, std::abs(w_.b[static_cast<std::size_t>(i)]));
    }
    return 10.0 * options_.feasibility_tol * std::max(1.0, b_norm);
  }

  Basis capture_basis() const {
    Basis basis;
    basis.num_rows = w_.m;
    basis.num_structural = w_.n_struct;
    basis.basic.assign(basis_.begin(), basis_.end());
    basis.nonbasic_state.resize(static_cast<std::size_t>(w_.n_total));
    for (int j = 0; j < w_.n_total; ++j) {
      basis.nonbasic_state[static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>(state_[static_cast<std::size_t>(j)]);
    }
    return basis;
  }

  // Installs a hinted basis: validates dimensions, refactorizes, and
  // repairs primal feasibility if the data changed under the basis.
  // Returns false (leaving the engine ready for init_basis) when the hint
  // is unusable; `result` accumulates the repair pivots either way.
  bool warm_start(const Basis& hint, std::int64_t limit, Solution* result) {
    if (hint.num_rows != w_.m || hint.num_structural != w_.n_struct ||
        static_cast<int>(hint.basic.size()) != w_.m ||
        static_cast<int>(hint.nonbasic_state.size()) != w_.n_total) {
      return false;
    }
    const auto n = static_cast<std::size_t>(w_.n_total);
    in_basis_.assign(n, false);
    basis_.assign(static_cast<std::size_t>(w_.m), -1);
    state_.assign(n, NonbasicState::kAtLower);
    // Artificials exist only to carry a cold phase 1; under a warm start
    // they are pinned at zero from the outset (a hinted basic artificial
    // keeps its fixed [0,0] range and the repair pass handles the rest).
    for (int i = 0; i < w_.m; ++i) {
      const int art = artificial_begin() + i;
      extra(art).clear();
      extra(art).push_back(ColEntry{i, 1.0});
      w_.lb[static_cast<std::size_t>(art)] = 0.0;
      w_.ub[static_cast<std::size_t>(art)] = 0.0;
    }
    for (int i = 0; i < w_.m; ++i) {
      const int j = hint.basic[static_cast<std::size_t>(i)];
      if (j < 0 || j >= w_.n_total || in_basis_[static_cast<std::size_t>(j)]) {
        return false;
      }
      basis_[static_cast<std::size_t>(i)] = j;
      in_basis_[static_cast<std::size_t>(j)] = true;
    }
    for (int j = 0; j < w_.n_total; ++j) {
      if (in_basis_[static_cast<std::size_t>(j)]) continue;
      const auto raw = hint.nonbasic_state[static_cast<std::size_t>(j)];
      NonbasicState s = raw <= 2 ? static_cast<NonbasicState>(raw)
                                 : NonbasicState::kAtLower;
      // Bounds may have changed since the snapshot; an infinite rest
      // position is meaningless, so re-derive it from the current bounds.
      if ((s == NonbasicState::kAtLower &&
           !std::isfinite(w_.lb[static_cast<std::size_t>(j)])) ||
          (s == NonbasicState::kAtUpper &&
           !std::isfinite(w_.ub[static_cast<std::size_t>(j)]))) {
        rest_nonbasic(j);
      } else {
        state_[static_cast<std::size_t>(j)] = s;
      }
    }
    xb_.resize(static_cast<std::size_t>(w_.m));
    if (!refactorize()) {
      // A stale hint can be singular against the current matrix (e.g. a
      // coefficient edit emptied a basic column). Swap the dependent
      // columns for row artificials and retry — the repair pass below then
      // acts as a phase 1 restricted to the patched rows.
      patch_singular_basis();
      if (!refactorize()) return false;
    }
    return repair_primal_feasibility(limit, result);
  }

  // Finds the linearly dependent columns of the current basis and replaces
  // each with the artificial of a row no independent column pivots on, so
  // the basis becomes nonsingular by construction. Displaced columns rest
  // at a bound. Called only on the warm-start path, where the artificials
  // are pinned at [0, 0]: any value the patched artificial has to carry
  // shows up as a bound violation for repair_primal_feasibility to clear.
  void patch_singular_basis() {
    if (profile_ != nullptr) ++profile_->basis_patches;
    const int m = w_.m;
    std::vector<std::vector<double>> reduced;  // accepted columns, reduced
    std::vector<int> pivot_rows;
    std::vector<char> row_used(static_cast<std::size_t>(m), 0);
    std::vector<int> dependent;
    for (int p = 0; p < m; ++p) {
      std::vector<double> v(static_cast<std::size_t>(m), 0.0);
      const int j = basis_[static_cast<std::size_t>(p)];
      for (const ColEntry& e : col(j)) {
        v[static_cast<std::size_t>(e.row)] = e.coeff;
      }
      for (std::size_t k = 0; k < reduced.size(); ++k) {
        const int r = pivot_rows[k];
        const double f = v[static_cast<std::size_t>(r)] /
                         reduced[k][static_cast<std::size_t>(r)];
        if (f == 0.0) continue;
        for (int i = 0; i < m; ++i) {
          v[static_cast<std::size_t>(i)] -=
              f * reduced[k][static_cast<std::size_t>(i)];
        }
      }
      int pivot = -1;
      double best = options_.pivot_tol;
      for (int i = 0; i < m; ++i) {
        if (row_used[static_cast<std::size_t>(i)]) continue;
        if (std::abs(v[static_cast<std::size_t>(i)]) > best) {
          best = std::abs(v[static_cast<std::size_t>(i)]);
          pivot = i;
        }
      }
      if (pivot < 0) {
        dependent.push_back(p);
        continue;
      }
      row_used[static_cast<std::size_t>(pivot)] = 1;
      reduced.push_back(std::move(v));
      pivot_rows.push_back(pivot);
    }
    int next_free_row = 0;
    for (const int p : dependent) {
      while (row_used[static_cast<std::size_t>(next_free_row)]) {
        ++next_free_row;
      }
      const int old = basis_[static_cast<std::size_t>(p)];
      in_basis_[static_cast<std::size_t>(old)] = false;
      rest_nonbasic(old);
      // The uncovered row's artificial cannot already be basic: it would
      // have pivoted on that row.
      const int art = artificial_begin() + next_free_row;
      row_used[static_cast<std::size_t>(next_free_row)] = 1;
      basis_[static_cast<std::size_t>(p)] = art;
      in_basis_[static_cast<std::size_t>(art)] = true;
    }
  }

  // The hinted basis solves B x_B = b - N x_N exactly, but data changes
  // (rhs, bounds, coefficients) may have pushed basic values outside their
  // bounds. Relax only the violated variables' offending bound and minimize
  // a cost that pushes each one back toward its range — phase 1 restricted
  // to the actual violations. Returns false when the violation cannot be
  // driven out (caller falls back to a cold solve, which settles
  // feasibility authoritatively).
  bool repair_primal_feasibility(std::int64_t limit, Solution* result) {
    const double tol = options_.feasibility_tol;
    struct Relaxed {
      int column;
      double lb, ub;    // true bounds, restored after the pass
      double direction; // +1: came down toward ub, -1: came up toward lb
    };
    // The linear repair objective can trade one variable's violation
    // against another's depth inside its range, so a single pass is not
    // always enough; refreshed violation sets settle the common cases and
    // anything deeper falls back to a cold solve.
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<Relaxed> relaxed;
      std::vector<double> repair_cost;
      for (int i = 0; i < w_.m; ++i) {
        const int j = basis_[static_cast<std::size_t>(i)];
        const double v = xb_[static_cast<std::size_t>(i)];
        const double lo = w_.lb[static_cast<std::size_t>(j)];
        const double hi = w_.ub[static_cast<std::size_t>(j)];
        const double scale = 1.0 + std::abs(v);
        double direction = 0.0;
        if (v > hi + tol * scale) {
          direction = +1.0;  // too high: minimize it back down
        } else if (v < lo - tol * scale) {
          direction = -1.0;  // too low: maximize it back up
        } else {
          continue;
        }
        if (repair_cost.empty()) {
          repair_cost.assign(static_cast<std::size_t>(w_.n_total), 0.0);
        }
        relaxed.push_back(Relaxed{j, lo, hi, direction});
        repair_cost[static_cast<std::size_t>(j)] = direction;
        // Swap in a temporary box whose finite end is the violated bound:
        // the cost drives the variable exactly back to it and no further,
        // which also keeps the repair objective bounded (relaxing to an
        // open ray can make the repair LP unbounded through compensating
        // variables).
        if (direction > 0.0) {
          w_.lb[static_cast<std::size_t>(j)] = hi;  // box [ub, inf)
          w_.ub[static_cast<std::size_t>(j)] = kInfinity;
        } else {
          w_.lb[static_cast<std::size_t>(j)] = -kInfinity;  // box (-inf, lb]
          w_.ub[static_cast<std::size_t>(j)] = lo;
        }
      }
      if (relaxed.empty()) return true;  // primal feasible

      std::int64_t repair_iterations = 0;
      const SolveStatus status =
          optimize(repair_cost, limit, &repair_iterations);
      result->iterations += repair_iterations;
      result->phase1_iterations += repair_iterations;
      for (const Relaxed& r : relaxed) {
        const auto j = static_cast<std::size_t>(r.column);
        if (!in_basis_[j]) {
          // Parked on the finite end of the temporary box — numerically the
          // *opposite* true bound. Rename the rest state so restoring the
          // box keeps the variable's value unchanged.
          if (r.direction > 0.0 && state_[j] == NonbasicState::kAtLower) {
            state_[j] = NonbasicState::kAtUpper;  // value ub, was temp lb
          } else if (r.direction < 0.0 &&
                     state_[j] == NonbasicState::kAtUpper) {
            state_[j] = NonbasicState::kAtLower;  // value lb, was temp ub
          }
        }
        w_.lb[j] = r.lb;
        w_.ub[j] = r.ub;
      }
      if (status != SolveStatus::kOptimal) return false;
      // Nonbasic variables are back on true bounds after the renaming
      // above; only basic values can still violate, which the next pass
      // re-collects.
    }
    for (int i = 0; i < w_.m; ++i) {
      const int j = basis_[static_cast<std::size_t>(i)];
      const double v = xb_[static_cast<std::size_t>(i)];
      const double scale = 1.0 + std::abs(v);
      if (v > w_.ub[static_cast<std::size_t>(j)] + tol * scale ||
          v < w_.lb[static_cast<std::size_t>(j)] - tol * scale) {
        return false;
      }
    }
    return true;
  }

  // y = c_B^T B^{-1}, via the representation's btran.
  void compute_duals(const std::vector<double>& cost,
                     std::vector<double>& y) {
    cb_.resize(static_cast<std::size_t>(w_.m));
    for (int i = 0; i < w_.m; ++i) {
      cb_[static_cast<std::size_t>(i)] = cost[static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(i)])];
    }
    lu_.btran(cb_, y);
  }

  double reduced_cost(int j, const std::vector<double>& cost,
                      const std::vector<double>& y) const {
    double d = cost[static_cast<std::size_t>(j)];
    for (const ColEntry& e : col(j)) {
      d -= y[static_cast<std::size_t>(e.row)] * e.coeff;
    }
    return d;
  }

  double objective(const std::vector<double>& cost) const {
    double value = 0.0;
    const std::vector<double> point = current_point();
    for (int j = 0; j < w_.n_total; ++j) {
      value += cost[static_cast<std::size_t>(j)] *
               point[static_cast<std::size_t>(j)];
    }
    return value;
  }

  std::vector<double> current_point() const {
    std::vector<double> x(static_cast<std::size_t>(w_.n_total), 0.0);
    for (int j = 0; j < w_.n_total; ++j) {
      if (!in_basis_[static_cast<std::size_t>(j)]) x[static_cast<std::size_t>(j)] = nonbasic_value(j);
    }
    for (int i = 0; i < w_.m; ++i) {
      x[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
          xb_[static_cast<std::size_t>(i)];
    }
    return x;
  }

  // Rebuilds the basis representation and xb_; returns false on a singular
  // basis (numerical failure). Timed as its own profile phase — it is the
  // expensive step the refactor_interval knob trades against update drift,
  // and the number ROADMAP item 1 wants pinned.
  bool refactorize() {
    if (profile_ == nullptr) return refactorize_impl();
    const std::uint64_t t0 = prof_now_ns();
    const bool ok = refactorize_impl();
    ++profile_->refactorizations;
    profile_->refactor_s += static_cast<double>(prof_now_ns() - t0) * 1e-9;
    return ok;
  }

  bool refactorize_impl() {
    basis_cols_.resize(basis_.size());
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      basis_cols_[i] = col(basis_[i]);
    }
    if (!lu_.refactorize(basis_cols_)) return false;
    recompute_basic_values();
    return true;
  }

  void recompute_basic_values() {
    std::vector<double> residual = w_.b;
    for (int j = 0; j < w_.n_total; ++j) {
      if (in_basis_[static_cast<std::size_t>(j)]) continue;
      const double v = nonbasic_value(j);
      if (v == 0.0) continue;
      for (const ColEntry& e : col(j)) {
        residual[static_cast<std::size_t>(e.row)] -= e.coeff * v;
      }
    }
    lu_.solve_dense(residual, xb_);
  }

  // Core primal iteration loop for a given cost vector; assumes the current
  // basis is primal feasible.
  SolveStatus optimize(const std::vector<double>& cost, std::int64_t limit,
                       std::int64_t* iteration_counter) {
    int degenerate_run = 0;
    int since_refactor = 0;
    std::vector<double> w(static_cast<std::size_t>(w_.m));

    while (true) {
      if (*iteration_counter >= limit) return SolveStatus::kIterationLimit;
      // Watchdog: the shared budget is polled at pivot granularity, so a
      // pathological basis can never stall past the caller's deadline by
      // more than one pivot's work.
      if (options_.budget != nullptr && options_.budget->exhausted()) {
        return options_.budget->exhausted_status();
      }

      // Phase attribution (profiled solves only): prof_t0 rolls forward at
      // each phase boundary so the three windows tile the iteration.
      std::uint64_t prof_t0 = profile_ != nullptr ? prof_now_ns() : 0;

      compute_duals(cost, y_);
      const std::vector<double>& y = y_;
      const bool bland = degenerate_run > options_.degenerate_before_bland;

      // Pricing. Reduced costs are evaluated lazily: columns are scanned in
      // rotating sections of `section` and the best violated candidate of
      // the first section containing one enters. Optimality is declared
      // only after a whole wrap finds no candidate, so partial pricing
      // changes the pivot sequence, never the answer. Bland's rule needs
      // the lowest eligible index for its termination guarantee and scans
      // from zero.
      const int section =
          options_.pricing_section > 0
              ? options_.pricing_section
              : std::max(64, w_.n_total / 8);
      int entering = -1;
      double best_violation = options_.optimality_tol;
      int direction = +1;
      int scanned = 0;
      int j = bland ? 0 : pricing_cursor_;
      if (j >= w_.n_total) j = 0;
      for (; scanned < w_.n_total; ++scanned) {
        const int col = j;
        ++j;
        if (j == w_.n_total) j = 0;
        if (!bland && entering >= 0 && scanned % section == 0 &&
            scanned > 0) {
          break;  // section boundary with a candidate in hand
        }
        if (in_basis_[static_cast<std::size_t>(col)]) continue;
        const double lo = w_.lb[static_cast<std::size_t>(col)];
        const double hi = w_.ub[static_cast<std::size_t>(col)];
        if (lo == hi) continue;  // fixed variable never enters
        const double d = reduced_cost(col, cost, y);
        int dir = 0;
        double violation = 0.0;
        switch (state_[static_cast<std::size_t>(col)]) {
          case NonbasicState::kAtLower:
            if (d < -options_.optimality_tol) {
              dir = +1;
              violation = -d;
            }
            break;
          case NonbasicState::kAtUpper:
            if (d > options_.optimality_tol) {
              dir = -1;
              violation = d;
            }
            break;
          case NonbasicState::kFree:
            if (std::abs(d) > options_.optimality_tol) {
              dir = d < 0.0 ? +1 : -1;
              violation = std::abs(d);
            }
            break;
        }
        if (dir == 0) continue;
        if (bland) {  // first eligible index
          entering = col;
          direction = dir;
          break;
        }
        if (violation > best_violation) {
          best_violation = violation;
          entering = col;
          direction = dir;
        }
      }
      if (!bland) pricing_cursor_ = j;
      if (profile_ != nullptr) {
        const std::uint64_t t1 = prof_now_ns();
        profile_->pricing_s += static_cast<double>(t1 - prof_t0) * 1e-9;
        prof_t0 = t1;
      }
      if (entering < 0) return SolveStatus::kOptimal;

      lu_.ftran(col(entering), w);

      // Ratio test. The entering variable moves by t >= 0 in `direction`;
      // basic variable i moves at rate -direction * w_i.
      const double own_gap =
          w_.ub[static_cast<std::size_t>(entering)] -
          w_.lb[static_cast<std::size_t>(entering)];
      double t_best = std::isfinite(own_gap) ? own_gap : kInfinity;
      int leaving_row = -1;       // -1 => bound flip
      bool leaving_at_upper = false;
      double best_pivot_mag = 0.0;  // |w_i| of the current leaving row
      for (int i = 0; i < w_.m; ++i) {
        const double rate = -direction * w[static_cast<std::size_t>(i)];
        if (std::abs(rate) <= options_.pivot_tol) continue;
        const int bj = basis_[static_cast<std::size_t>(i)];
        const double xi = xb_[static_cast<std::size_t>(i)];
        double t_i = kInfinity;
        bool hits_upper = false;
        if (rate > 0.0) {
          const double hi = w_.ub[static_cast<std::size_t>(bj)];
          if (std::isfinite(hi)) {
            t_i = (hi - xi) / rate;
            hits_upper = true;
          }
        } else {
          const double lo = w_.lb[static_cast<std::size_t>(bj)];
          if (std::isfinite(lo)) {
            t_i = (lo - xi) / rate;
            hits_upper = false;
          }
        }
        if (t_i < -options_.feasibility_tol) t_i = 0.0;  // clamp tiny drift
        t_i = std::max(t_i, 0.0);
        if (!std::isfinite(t_i)) continue;
        // Among (near-)equal ratios — the norm in degenerate scheduling
        // LPs — prefer the largest |pivot|: near-singular pivots poison
        // the updated inverse and force refactorize churn. Under Bland's
        // rule the lowest basic index wins instead (termination proof).
        bool take = false;
        if (t_i < t_best - 1e-12) {
          take = true;
        } else if (t_i <= t_best + 1e-12 && leaving_row >= 0) {
          take = bland ? bj < basis_[static_cast<std::size_t>(leaving_row)]
                       : std::abs(rate) > best_pivot_mag;
        }
        if (take) {
          t_best = std::min(t_best, t_i);
          leaving_row = i;
          leaving_at_upper = hits_upper;
          best_pivot_mag = std::abs(rate);
        }
      }

      if (profile_ != nullptr) {
        const std::uint64_t t1 = prof_now_ns();
        profile_->ratio_test_s += static_cast<double>(t1 - prof_t0) * 1e-9;
        prof_t0 = t1;
        if (std::isfinite(t_best) && t_best <= options_.feasibility_tol) {
          ++profile_->degenerate_pivots;
        }
      }
      if (!std::isfinite(t_best)) return SolveStatus::kUnbounded;

      degenerate_run = t_best <= options_.feasibility_tol
                           ? degenerate_run + 1
                           : 0;
      ++*iteration_counter;
      if (options_.budget != nullptr) options_.budget->charge_pivot();

      if (leaving_row < 0) {
        // Bound flip: entering travels its whole gap, basis unchanged.
        for (int i = 0; i < w_.m; ++i) {
          xb_[static_cast<std::size_t>(i)] +=
              -direction * w[static_cast<std::size_t>(i)] * t_best;
        }
        state_[static_cast<std::size_t>(entering)] =
            state_[static_cast<std::size_t>(entering)] ==
                    NonbasicState::kAtLower
                ? NonbasicState::kAtUpper
                : NonbasicState::kAtLower;
        if (profile_ != nullptr) {
          ++profile_->bound_flips;
          profile_->basis_update_s +=
              static_cast<double>(prof_now_ns() - prof_t0) * 1e-9;
        }
        continue;
      }

      // Pivot: update values, basis bookkeeping and the representation.
      const double entering_value = nonbasic_value(entering) +
                                    direction * t_best;
      for (int i = 0; i < w_.m; ++i) {
        if (i == leaving_row) continue;
        xb_[static_cast<std::size_t>(i)] +=
            -direction * w[static_cast<std::size_t>(i)] * t_best;
      }
      const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
      in_basis_[static_cast<std::size_t>(leaving)] = false;
      state_[static_cast<std::size_t>(leaving)] =
          leaving_at_upper ? NonbasicState::kAtUpper : NonbasicState::kAtLower;
      basis_[static_cast<std::size_t>(leaving_row)] = entering;
      in_basis_[static_cast<std::size_t>(entering)] = true;
      xb_[static_cast<std::size_t>(leaving_row)] = entering_value;

      const double pivot = w[static_cast<std::size_t>(leaving_row)];
      if (std::abs(pivot) <= options_.pivot_tol) {
        if (profile_ != nullptr) {
          profile_->basis_update_s +=
              static_cast<double>(prof_now_ns() - prof_t0) * 1e-9;
        }
        if (!refactorize()) return SolveStatus::kNumericalFailure;
        continue;
      }
      lu_.update(leaving_row, w);
      if (profile_ != nullptr) {
        profile_->basis_update_s +=
            static_cast<double>(prof_now_ns() - prof_t0) * 1e-9;
      }

      if (++since_refactor >= options_.refactor_interval) {
        since_refactor = 0;
        if (!refactorize()) return SolveStatus::kNumericalFailure;
      }
    }
  }

  SimplexOptions options_;
  const LpProblem* problem_ = nullptr;
  Working w_;
  SparseLuBasis lu_;
  /// The thread's active profiling scope, cached once per engine so the
  /// pivot loop pays a plain pointer test, not a thread_local lookup.
  SolveProfile* profile_ = current_profile();
  int pricing_cursor_ = 0;             // partial-pricing scan position
  std::vector<int> basis_;             // column basic in each row
  std::vector<bool> in_basis_;         // per column
  std::vector<NonbasicState> state_;   // per column, meaningful if nonbasic
  std::vector<double> xb_;             // values of basic variables
  std::vector<double> cb_;             // btran input scratch
  std::vector<double> y_;              // dual scratch, reused per pivot
  std::vector<ColSpan> basis_cols_;    // refactorization input scratch
};

}  // namespace

SimplexSolver::SimplexSolver(SimplexOptions options) : options_(options) {}

Solution SimplexSolver::solve(const LpProblem& problem,
                              const Basis* warm) const {
  if (!obs::enabled()) {
    Solution result = solve_impl(problem, warm);
    if (SolveProfile* profile = current_profile()) {
      ++profile->solves;
      profile->pivots += result.iterations;
    }
    return result;
  }

  Solution result;
  {
    // The timer's destructor stamps result.solve_seconds when this scope
    // closes, i.e. after the assignment below.
    obs::ScopedTimer timer(
        &result.solve_seconds,
        &obs::registry().histogram("lp.simplex.solve_seconds"));
    result = solve_impl(problem, warm);
  }
  if (SolveProfile* profile = current_profile()) {
    ++profile->solves;
    profile->pivots += result.iterations;
  }
  obs::Registry& reg = obs::registry();
  reg.counter("lp.simplex.solves").add();
  reg.counter("lp.simplex.pivots").add(result.iterations);
  if (result.status == SolveStatus::kInfeasible) {
    reg.counter("lp.simplex.infeasible").add();
  }
  if (result.warm_start_used) reg.counter("lp.simplex.warm_starts").add();
  if (result.warm_start_fallback) {
    reg.counter("lp.simplex.warm_start_fallbacks").add();
  }
  if (options_.budget != nullptr && options_.budget->exhausted() &&
      (result.status == SolveStatus::kTimeout ||
       result.status == SolveStatus::kIterationLimit)) {
    reg.counter("lp.budget_exhausted").add();
  }
  obs::emit(obs::TraceEvent("simplex_solve")
                .field("rows", problem.num_rows())
                .field("cols", problem.num_columns())
                .field("status", to_string(result.status))
                .field("pivots", result.iterations)
                .field("phase1_iters", result.phase1_iterations)
                .field("phase2_iters",
                       result.iterations - result.phase1_iterations)
                .field("objective", result.objective)
                .field("warm_start", result.warm_start_used)
                .field("warm_start_fallback", result.warm_start_fallback)
                .field("wall_s", result.solve_seconds));
  return result;
}

Solution SimplexSolver::solve_impl(const LpProblem& problem,
                                   const Basis* warm) const {
  if (problem.num_rows() == 0) {
    // Pure bound problem: each variable rests at whichever bound minimizes.
    Solution result;
    result.status = SolveStatus::kOptimal;
    result.x.resize(static_cast<std::size_t>(problem.num_columns()));
    for (int j = 0; j < problem.num_columns(); ++j) {
      const double c = problem.objective_coeff(j);
      const double lo = problem.lower_bound(j);
      const double hi = problem.upper_bound(j);
      double v;
      if (c > 0.0) {
        v = lo;
      } else if (c < 0.0) {
        v = hi;
      } else {
        v = std::isfinite(lo) ? lo : (std::isfinite(hi) ? hi : 0.0);
      }
      if (!std::isfinite(v)) {
        result.status = SolveStatus::kUnbounded;
        return result;
      }
      result.x[static_cast<std::size_t>(j)] = v;
      result.objective += c * v;
    }
    return result;
  }
  Engine engine(problem, options_);
  return engine.run(warm);
}

}  // namespace flowtime::lp
