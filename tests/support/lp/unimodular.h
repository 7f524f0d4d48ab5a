// Total unimodularity checking (paper Lemma 2).
//
// The paper's integrality argument rests on the constraint matrix of the
// scheduling LP being totally unimodular (every square submatrix has
// determinant in {-1, 0, 1}); Meyer's theorem then makes the LP relaxation
// exact. This module lets the tests *verify* that claim on the matrices the
// formulation actually builds, rather than trusting it:
//
//  * is_totally_unimodular(): exact check by enumerating square submatrices
//    (exponential; fine for the small matrices tests use).
//  * ghouila_houri_certificate(): the Ghouila-Houri characterization — a
//    matrix is TU iff every subset of rows can be 2-coloured so the signed
//    column sums lie in {-1, 0, 1}. Also exponential but in rows only, so
//    it handles wider matrices; returns a violating row subset when not TU.
//  * interval_matrix / network-structure helpers: the polynomial sufficient
//    conditions that the scheduling matrices satisfy by construction.
#pragma once

#include <optional>
#include <vector>

#include "lp/lexmin.h"
#include "lp/model.h"

namespace flowtime::lp {

/// Dense integer matrix, row-major.
struct IntMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<int> data;

  int at(int r, int c) const {
    return data[static_cast<std::size_t>(r) * cols + c];
  }
  int& at(int r, int c) {
    return data[static_cast<std::size_t>(r) * cols + c];
  }
};

/// Extracts the coefficient matrix of a problem's rows (columns in order).
/// Requires every coefficient to be integral; returns nullopt otherwise.
std::optional<IntMatrix> coefficient_matrix(const LpProblem& problem);

/// Exact TU check by submatrix enumeration. Use only for small matrices
/// (determinants of all square submatrices up to min(rows, cols)).
bool is_totally_unimodular(const IntMatrix& m, int max_order = 6);

/// Ghouila-Houri: m is TU iff every row subset R admits a partition
/// R = R1 ∪ R2 with column sums (sum_{R1} - sum_{R2}) in {-1,0,1}.
/// Returns nullopt when TU, otherwise a violating subset of row indices.
/// Exponential in rows; practical to ~20 rows.
std::optional<std::vector<int>> ghouila_houri_violation(const IntMatrix& m);

/// True when the matrix is a 0/1 interval matrix (consecutive ones in each
/// column) — a classic polynomial sufficient condition for TU.
bool has_consecutive_ones_columns(const IntMatrix& m);

/// True when every column has at most one +1 and at most one -1 and no
/// other nonzeros (network matrix) — another sufficient condition.
bool is_network_matrix(const IntMatrix& m);

/// True when every column has at most two nonzero entries, all in {-1,+1},
/// and the rows can be 2-coloured so that within each column, two entries
/// of equal sign land in different classes and two entries of opposite
/// signs land in the same class (the bipartite-incidence condition; the
/// scheduling matrix — one demand row + one load row per column — passes
/// with the trivial colouring {demand rows | load rows}).
bool is_bipartite_incidence_like(const IntMatrix& m);

/// Structural gate for the flow lexmin: true when the lexmin system
/// (base rows + load rows) is exactly the bipartite transportation
/// structure a parametric max flow solves — every base row an equality with
/// nonnegative rhs and all-(+1) coefficients, every column in [0, finite
/// ub] appearing in exactly one base row and exactly one load row with
/// coefficient +1, and every load normalizer positive. Such a system is TU
/// (each column is a bipartite incidence column), and its lexmin is the
/// lexicographically optimal base the flow lexmin (core/flow_placement.h)
/// computes. O(nnz). Only tests call it, on LPs they build.
bool flow_representable(const LpProblem& base,
                        const std::vector<LoadRow>& loads);

}  // namespace flowtime::lp
