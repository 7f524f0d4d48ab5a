// Direct unit tests for lp/unimodular (a test-only checker under
// tests/support): the exact TU check (Bareiss determinant enumeration), the
// Ghouila-Houri certificate, and the O(nnz) flow_representable check that an
// LP is the transportation system the flow lexmin solves. lemma_test.cpp
// checks TU on the matrices the formulation builds; this file pins the
// checker itself on hand-constructed matrices, including the classic
// non-TU counterexamples and the Bareiss pivoting edge cases.
#include <gtest/gtest.h>

#include <vector>

#include "lp/lexmin.h"
#include "lp/model.h"
#include "lp/unimodular.h"

namespace flowtime::lp {
namespace {

IntMatrix make(int rows, int cols, std::vector<int> data) {
  IntMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.data = std::move(data);
  return m;
}

TEST(Unimodular, KnownTuMatrices) {
  // Identity, a network matrix, and an interval matrix are all TU.
  EXPECT_TRUE(is_totally_unimodular(make(2, 2, {1, 0, 0, 1})));
  EXPECT_TRUE(is_totally_unimodular(make(3, 2, {1, 0, -1, 1, 0, -1})));
  EXPECT_TRUE(is_totally_unimodular(make(3, 3,
      {1, 1, 0,
       0, 1, 1,
       0, 0, 1})));
}

TEST(Unimodular, OddCycleIncidenceIsNotTu) {
  // The vertex-edge incidence matrix of a triangle (odd cycle) has
  // determinant 2 — the canonical non-TU example.
  const IntMatrix triangle = make(3, 3,
      {1, 1, 0,
       0, 1, 1,
       1, 0, 1});
  EXPECT_FALSE(is_totally_unimodular(triangle));
  const auto violation = ghouila_houri_violation(triangle);
  ASSERT_TRUE(violation.has_value());
  EXPECT_FALSE(violation->empty());
}

TEST(Unimodular, EntryOutsideMinusOneZeroOneFailsImmediately) {
  // A 2 anywhere is a 1x1 submatrix with |det| = 2.
  EXPECT_FALSE(is_totally_unimodular(make(2, 2, {1, 0, 0, 2})));
  EXPECT_FALSE(is_totally_unimodular(make(1, 1, {-3})));
}

TEST(Unimodular, BareissHandlesZeroPivotAndSingularSubmatrices) {
  // First leading entry zero forces the row-swap path inside the Bareiss
  // determinant; the matrix is a permutation so still TU.
  EXPECT_TRUE(is_totally_unimodular(make(3, 3,
      {0, 1, 0,
       1, 0, 0,
       0, 0, 1})));
  // A singular (rank-1) all-ones matrix: every 2x2 minor is 0, so TU.
  EXPECT_TRUE(is_totally_unimodular(make(3, 3,
      {1, 1, 1,
       1, 1, 1,
       1, 1, 1})));
  // Anti-diagonal: det = -1 after swaps; sign bookkeeping must not report 1
  // incorrectly (TU either way, but the 3x3 det must be in {-1, 0, 1}).
  EXPECT_TRUE(is_totally_unimodular(make(3, 3,
      {0, 0, 1,
       0, 1, 0,
       1, 0, 0})));
}

TEST(Unimodular, GhouilaHouriAgreesOnSmallMatrices) {
  const IntMatrix tu = make(3, 3,
      {1, -1, 0,
       0, 1, -1,
       0, 0, 1});
  EXPECT_TRUE(is_totally_unimodular(tu));
  EXPECT_FALSE(ghouila_houri_violation(tu).has_value());

  const IntMatrix not_tu = make(3, 3,
      {1, 1, 0,
       0, 1, 1,
       1, 0, 1});
  EXPECT_TRUE(ghouila_houri_violation(not_tu).has_value());
}

// --- flow_representable: the transportation structure of the flow lexmin ---

// Builds the canonical 2-job / 2-slot transportation system the gate is
// designed for: one equality demand row per job over its window columns,
// one load row per slot.
struct GateFixture {
  LpProblem base;
  std::vector<LoadRow> loads;
  // columns: x00 x01 x10 x11  (job, slot)
  GateFixture() {
    for (int j = 0; j < 4; ++j) base.add_column(0.0, 0.0, 5.0);
    base.add_row(RowSense::kEqual, 6.0, {{0, 1.0}, {1, 1.0}});
    base.add_row(RowSense::kEqual, 4.0, {{2, 1.0}, {3, 1.0}});
    loads.resize(2);
    loads[0].entries = {{0, 1.0}, {2, 1.0}};
    loads[0].normalizer = 10.0;
    loads[1].entries = {{1, 1.0}, {3, 1.0}};
    loads[1].normalizer = 10.0;
  }
};

TEST(FlowRepresentable, AcceptsTransportationStructure) {
  GateFixture f;
  EXPECT_TRUE(flow_representable(f.base, f.loads));
}

TEST(FlowRepresentable, RejectsEmptyAndNonEqualityRows) {
  EXPECT_FALSE(flow_representable(LpProblem{}, {}));
  GateFixture f;
  f.base.set_row(0, RowSense::kLessEqual, 6.0);
  EXPECT_FALSE(flow_representable(f.base, f.loads));
}

TEST(FlowRepresentable, RejectsNegativeRhsAndNonUnitCoefficients) {
  {
    GateFixture f;
    f.base.set_row(0, RowSense::kEqual, -1.0);
    EXPECT_FALSE(flow_representable(f.base, f.loads));
  }
  {
    GateFixture f;
    f.base.set_row_coeff(0, 1, 2.0);  // demand coefficient != 1
    EXPECT_FALSE(flow_representable(f.base, f.loads));
  }
  {
    GateFixture f;
    f.loads[0].entries[0].coeff = 0.5;  // load coefficient != 1
    EXPECT_FALSE(flow_representable(f.base, f.loads));
  }
}

TEST(FlowRepresentable, RequiresExactlyOneBaseAndOneLoadRowPerColumn) {
  {
    // Column 0 in two demand rows: not a bipartite incidence column.
    GateFixture f;
    f.base.set_row_coeff(1, 0, 1.0);
    EXPECT_FALSE(flow_representable(f.base, f.loads));
  }
  {
    // Column 0 in two load rows.
    GateFixture f;
    f.loads[1].entries.push_back({0, 1.0});
    EXPECT_FALSE(flow_representable(f.base, f.loads));
  }
  {
    // Column 3 in no load row.
    GateFixture f;
    f.loads[1].entries.pop_back();
    EXPECT_FALSE(flow_representable(f.base, f.loads));
  }
}

TEST(FlowRepresentable, RejectsBadBoundsAndNormalizers) {
  {
    GateFixture f;
    f.base.set_bounds(2, 0.0, kInfinity);  // width bound must be finite
    EXPECT_FALSE(flow_representable(f.base, f.loads));
  }
  {
    GateFixture f;
    f.base.set_bounds(2, 1.0, 5.0);  // nonzero lower bound
    EXPECT_FALSE(flow_representable(f.base, f.loads));
  }
  {
    GateFixture f;
    f.loads[0].normalizer = 0.0;  // zero capacity cannot normalize
    EXPECT_FALSE(flow_representable(f.base, f.loads));
  }
}

}  // namespace
}  // namespace flowtime::lp
