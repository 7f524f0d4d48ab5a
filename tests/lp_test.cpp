// Unit and property tests for the LP stack: model, simplex, branch-and-bound
// and the lexicographic min-max driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/flow_placement.h"
#include "lp/branch_and_bound.h"
#include "lp/lexmin.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace flowtime::lp {
namespace {

SimplexSolver solver;

TEST(LpProblem, MergesDuplicateRowEntries) {
  LpProblem p;
  const int x = p.add_column(1.0, 0.0, 10.0);
  const int row = p.add_row(RowSense::kLessEqual, 4.0,
                            {{x, 1.0}, {x, 2.0}});
  ASSERT_EQ(p.row_entries(row).size(), 1u);
  EXPECT_DOUBLE_EQ(p.row_entries(row)[0].coeff, 3.0);
}

TEST(LpProblem, DropsCancelledEntries) {
  LpProblem p;
  const int x = p.add_column(1.0, 0.0, 10.0);
  const int row = p.add_row(RowSense::kLessEqual, 4.0,
                            {{x, 1.0}, {x, -1.0}});
  EXPECT_TRUE(p.row_entries(row).empty());
}

TEST(LpProblem, FeasibilityCheck) {
  LpProblem p;
  const int x = p.add_column(0.0, 0.0, 5.0);
  p.add_row(RowSense::kGreaterEqual, 2.0, {{x, 1.0}});
  EXPECT_TRUE(p.is_feasible({3.0}));
  EXPECT_FALSE(p.is_feasible({1.0}));   // row violated
  EXPECT_FALSE(p.is_feasible({6.0}));   // bound violated
  EXPECT_FALSE(p.is_feasible({}));      // wrong dimension
}

TEST(Simplex, SolvesTextbookTwoVariableLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Dantzig's example)
  // => min -3x - 5y, optimum x=2, y=6, objective -36.
  LpProblem p;
  const int x = p.add_column(-3.0, 0.0, kInfinity);
  const int y = p.add_column(-5.0, 0.0, kInfinity);
  p.add_row(RowSense::kLessEqual, 4.0, {{x, 1.0}});
  p.add_row(RowSense::kLessEqual, 12.0, {{y, 2.0}});
  p.add_row(RowSense::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal()) << to_string(s.status);
  EXPECT_NEAR(s.objective, -36.0, 1e-7);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
  EXPECT_NEAR(s.x[1], 6.0, 1e-7);
}

TEST(Simplex, HandlesEqualityRows) {
  // min x + y s.t. x + y = 10, x - y = 4  => x=7, y=3.
  LpProblem p;
  const int x = p.add_column(1.0, 0.0, kInfinity);
  const int y = p.add_column(1.0, 0.0, kInfinity);
  p.add_row(RowSense::kEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  p.add_row(RowSense::kEqual, 4.0, {{x, 1.0}, {y, -1.0}});
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 7.0, 1e-7);
  EXPECT_NEAR(s.x[1], 3.0, 1e-7);
}

TEST(Simplex, DetectsInfeasibility) {
  LpProblem p;
  const int x = p.add_column(1.0, 0.0, 1.0);
  p.add_row(RowSense::kGreaterEqual, 5.0, {{x, 1.0}});
  EXPECT_EQ(solver.solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInconsistentEqualities) {
  LpProblem p;
  const int x = p.add_column(0.0, -kInfinity, kInfinity);
  p.add_row(RowSense::kEqual, 1.0, {{x, 1.0}});
  p.add_row(RowSense::kEqual, 2.0, {{x, 1.0}});
  EXPECT_EQ(solver.solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LpProblem p;
  const int x = p.add_column(-1.0, 0.0, kInfinity);
  p.add_row(RowSense::kGreaterEqual, 0.0, {{x, 1.0}});
  EXPECT_EQ(solver.solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, RespectsUpperBoundsViaBoundFlips) {
  // min -x - 2y with 0 <= x,y <= 3 and x + y <= 5  => x=2, y=3 or x,y split;
  // unique optimum y=3 (higher reward), x=2.
  LpProblem p;
  const int x = p.add_column(-1.0, 0.0, 3.0);
  const int y = p.add_column(-2.0, 0.0, 3.0);
  p.add_row(RowSense::kLessEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[1], 3.0, 1e-7);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
  EXPECT_NEAR(s.objective, -8.0, 1e-7);
}

TEST(Simplex, HandlesNegativeLowerBounds) {
  // min x s.t. x >= -5 (bound), x + y = 0, 0 <= y <= 5 => x = -5, y = 5.
  LpProblem p;
  const int x = p.add_column(1.0, -5.0, kInfinity);
  const int y = p.add_column(0.0, 0.0, 5.0);
  p.add_row(RowSense::kEqual, 0.0, {{x, 1.0}, {y, 1.0}});
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], -5.0, 1e-7);
}

TEST(Simplex, HandlesFreeVariables) {
  // min |structure|: x free, min x s.t. x >= y - 3, y = 1  => x = -2.
  LpProblem p;
  const int x = p.add_column(1.0, -kInfinity, kInfinity);
  const int y = p.add_column(0.0, 1.0, 1.0);
  p.add_row(RowSense::kGreaterEqual, -3.0, {{x, 1.0}, {y, -1.0}});
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], -2.0, 1e-7);
}

TEST(Simplex, FixedVariablesStayFixed) {
  LpProblem p;
  const int x = p.add_column(-1.0, 2.0, 2.0);  // fixed at 2
  const int y = p.add_column(-1.0, 0.0, kInfinity);
  p.add_row(RowSense::kLessEqual, 6.0, {{x, 1.0}, {y, 1.0}});
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 4.0, 1e-7);
}

TEST(Simplex, ReportsRowActivity) {
  LpProblem p;
  const int x = p.add_column(-1.0, 0.0, 10.0);
  const int row = p.add_row(RowSense::kLessEqual, 7.0, {{x, 2.0}});
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.row_activity[static_cast<std::size_t>(row)], 7.0, 1e-7);
}

TEST(Simplex, DualsSatisfyStrongDuality) {
  // For the textbook LP above, strong duality: c^T x* = y^T b (all rows <=).
  LpProblem p;
  const int x = p.add_column(-3.0, 0.0, kInfinity);
  const int y = p.add_column(-5.0, 0.0, kInfinity);
  p.add_row(RowSense::kLessEqual, 4.0, {{x, 1.0}});
  p.add_row(RowSense::kLessEqual, 12.0, {{y, 2.0}});
  p.add_row(RowSense::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  const double dual_obj = s.duals[0] * 4.0 + s.duals[1] * 12.0 +
                          s.duals[2] * 18.0;
  EXPECT_NEAR(dual_obj, s.objective, 1e-6);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate LP (many redundant constraints through the origin).
  LpProblem p;
  const int x = p.add_column(-1.0, 0.0, kInfinity);
  const int y = p.add_column(-1.0, 0.0, kInfinity);
  for (int i = 1; i <= 10; ++i) {
    p.add_row(RowSense::kLessEqual, 0.0,
              {{x, 1.0}, {y, -static_cast<double>(i)}});
  }
  p.add_row(RowSense::kLessEqual, 1.0, {{y, 1.0}});
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[1], 1.0, 1e-7);
  EXPECT_NEAR(s.x[0], 1.0, 1e-7);  // x <= 1*y is tightest
}

TEST(Simplex, EmptyProblemIsOptimal) {
  LpProblem p;
  const Solution s = solver.solve(p);
  EXPECT_TRUE(s.optimal());
  EXPECT_EQ(s.objective, 0.0);
}

TEST(Simplex, PureBoundProblem) {
  LpProblem p;
  p.add_column(2.0, -1.0, 3.0);   // min at lower bound
  p.add_column(-2.0, -1.0, 3.0);  // min at upper bound
  const Solution s = solver.solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.x[0], -1.0);
  EXPECT_DOUBLE_EQ(s.x[1], 3.0);
  EXPECT_DOUBLE_EQ(s.objective, -8.0);
}

TEST(Simplex, PureBoundProblemUnbounded) {
  LpProblem p;
  p.add_column(1.0, -kInfinity, kInfinity);
  EXPECT_EQ(solver.solve(p).status, SolveStatus::kUnbounded);
}

// ---------------------------------------------------------------------------
// Transportation-structured property tests. These instances have exactly the
// structure of the paper's scheduling LP (each variable in one demand row and
// one capacity row), whose constraint matrix is totally unimodular (Lemma 2).
// ---------------------------------------------------------------------------

struct TransportationCase {
  int jobs;
  int slots;
  std::uint64_t seed;
};

class TransportationProperty
    : public ::testing::TestWithParam<TransportationCase> {};

// Builds: min sum(cost * x) s.t. per-job demand equality over a window,
// per-slot capacity <=, integer data.
LpProblem make_transportation(const TransportationCase& c, bool* feasible) {
  util::Rng rng(c.seed);
  LpProblem p;
  std::vector<std::vector<int>> vars(
      static_cast<std::size_t>(c.jobs));
  std::vector<double> slot_load(static_cast<std::size_t>(c.slots), 0.0);

  std::vector<std::vector<RowEntry>> slot_entries(
      static_cast<std::size_t>(c.slots));
  double total_demand = 0.0;
  for (int i = 0; i < c.jobs; ++i) {
    const int a = static_cast<int>(rng.uniform_int(0, c.slots - 1));
    const int d = static_cast<int>(rng.uniform_int(a, c.slots - 1));
    // Bounded by the job's own window width times its per-slot cap (6) so
    // every generated instance is feasible.
    const double demand = static_cast<double>(
        rng.uniform_int(1, std::min<std::int64_t>(8, (d - a + 1) * 6)));
    total_demand += demand;
    std::vector<RowEntry> row;
    for (int t = a; t <= d; ++t) {
      const int col = p.add_column(rng.uniform_real(0.1, 2.0), 0.0, 6.0);
      vars[static_cast<std::size_t>(i)].push_back(col);
      row.push_back(RowEntry{col, 1.0});
      slot_entries[static_cast<std::size_t>(t)].push_back(
          RowEntry{col, 1.0});
    }
    p.add_row(RowSense::kEqual, demand, std::move(row));
  }
  const double cap = std::ceil(total_demand / c.slots) + 4.0;
  for (int t = 0; t < c.slots; ++t) {
    p.add_row(RowSense::kLessEqual, cap,
              std::move(slot_entries[static_cast<std::size_t>(t)]));
  }
  (void)slot_load;
  *feasible = true;  // not guaranteed; the test handles infeasible cases
  return p;
}

TEST_P(TransportationProperty, LpVertexSolutionsAreIntegral) {
  bool feasible = false;
  const LpProblem p = make_transportation(GetParam(), &feasible);
  const Solution s = solver.solve(p);
  if (s.status == SolveStatus::kInfeasible) {
    GTEST_SKIP() << "instance infeasible (window too tight)";
  }
  ASSERT_TRUE(s.optimal()) << to_string(s.status);
  for (double v : s.x) {
    EXPECT_NEAR(v, std::round(v), 1e-6)
        << "TU matrix must give integral vertex solutions";
  }
  EXPECT_TRUE(p.is_feasible(s.x, 1e-5));
}

TEST_P(TransportationProperty, LpMatchesBranchAndBoundOptimum) {
  bool feasible = false;
  const LpProblem p = make_transportation(GetParam(), &feasible);
  const Solution s = solver.solve(p);
  if (s.status == SolveStatus::kInfeasible) {
    GTEST_SKIP() << "instance infeasible";
  }
  ASSERT_TRUE(s.optimal());

  std::vector<int> integer_columns(static_cast<std::size_t>(p.num_columns()));
  std::iota(integer_columns.begin(), integer_columns.end(), 0);
  BranchAndBound bnb;
  const Solution exact = bnb.solve(p, integer_columns);
  ASSERT_TRUE(exact.optimal());
  EXPECT_NEAR(s.objective, exact.objective, 1e-5)
      << "LP relaxation must already equal the integer optimum (Lemma 2)";
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, TransportationProperty,
    ::testing::Values(
        TransportationCase{3, 5, 1}, TransportationCase{4, 6, 2},
        TransportationCase{5, 8, 3}, TransportationCase{6, 10, 4},
        TransportationCase{8, 12, 5}, TransportationCase{10, 15, 6},
        TransportationCase{12, 10, 7}, TransportationCase{7, 7, 8},
        TransportationCase{9, 20, 9}, TransportationCase{15, 25, 10}));

// ---------------------------------------------------------------------------
// Branch and bound.
// ---------------------------------------------------------------------------

TEST(BranchAndBound, SolvesKnapsackIlp) {
  // max 8a + 11b + 6c + 4d, weights 5,7,4,3 <= 14, binary.
  // Optimum: b + c + d? 11+6+4=21 weight 14 ok; a+b? 19 w12; a+c+d 18 w12;
  // best is 21.
  LpProblem p;
  const double values[] = {8, 11, 6, 4};
  const double weights[] = {5, 7, 4, 3};
  std::vector<RowEntry> row;
  std::vector<int> ints;
  for (int i = 0; i < 4; ++i) {
    const int col = p.add_column(-values[i], 0.0, 1.0);
    row.push_back(RowEntry{col, weights[i]});
    ints.push_back(col);
  }
  p.add_row(RowSense::kLessEqual, 14.0, std::move(row));
  BranchAndBound bnb;
  const Solution s = bnb.solve(p, ints);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -21.0, 1e-6);
  EXPECT_NEAR(s.x[1] + s.x[2] + s.x[3], 3.0, 1e-6);
  EXPECT_NEAR(s.x[0], 0.0, 1e-6);
}

TEST(BranchAndBound, FractionalLpGetsCutToInteger) {
  // max x + y s.t. 2x + 3y <= 6, 3x + 2y <= 6; LP optimum (1.2, 1.2),
  // integer optimum value 2 (e.g. (0,2) or (2,0) violate? 3*2=6 ok, (2,0):
  // 2*2=4<=6, 3*2=6<=6 -> value 2).
  LpProblem p;
  const int x = p.add_column(-1.0, 0.0, kInfinity);
  const int y = p.add_column(-1.0, 0.0, kInfinity);
  p.add_row(RowSense::kLessEqual, 6.0, {{x, 2.0}, {y, 3.0}});
  p.add_row(RowSense::kLessEqual, 6.0, {{x, 3.0}, {y, 2.0}});
  BranchAndBound bnb;
  const Solution s = bnb.solve(p, {x, y});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -2.0, 1e-6);
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 has no integer point.
  LpProblem p;
  const int x = p.add_column(1.0, 0.4, 0.6);
  BranchAndBound bnb;
  const Solution s = bnb.solve(p, {x});
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(BranchAndBound, MixedIntegerKeepsContinuousColumns) {
  // min -x - 0.5f, x integer <= 2.5, f continuous <= 0.7.
  LpProblem p;
  const int x = p.add_column(-1.0, 0.0, 2.5);
  const int f = p.add_column(-0.5, 0.0, 0.7);
  BranchAndBound bnb;
  const Solution s = bnb.solve(p, {x});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(f)], 0.7, 1e-9);
}

// ---------------------------------------------------------------------------
// Lexicographic min-max.
// ---------------------------------------------------------------------------

TEST(LexMinMax, BalancesSingleJobAcrossSlots) {
  // One job, demand 9, window of 3 slots, caps 10 each: the flattest
  // placement is 3 per slot (normalized 0.3).
  LpProblem base;
  std::vector<int> cols;
  std::vector<RowEntry> demand;
  for (int t = 0; t < 3; ++t) {
    cols.push_back(base.add_column(0.0, 0.0, kInfinity));
    demand.push_back(RowEntry{cols.back(), 1.0});
  }
  base.add_row(RowSense::kEqual, 9.0, std::move(demand));

  std::vector<LoadRow> loads;
  for (int t = 0; t < 3; ++t) {
    loads.push_back(LoadRow{{{cols[static_cast<std::size_t>(t)], 1.0}},
                            10.0,
                            "slot" + std::to_string(t)});
  }
  LexMinMaxSolver lex;
  const LexMinMaxResult r = lex.solve(base, loads);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.max_level(), 0.3, 1e-6);
  for (double load : r.load) EXPECT_NEAR(load, 0.3, 1e-6);
}

TEST(LexMinMax, SecondLevelIsRefinedAfterFixingFirst) {
  // Job A must occupy slot 0 only (window = 1 slot, demand 8, cap 10).
  // Job B has window {0,1,2} and demand 6. Lexmin: slot0 is pinned at 0.8 by
  // A alone; B must avoid slot 0 entirely and balance 3/3 over slots 1,2.
  LpProblem base;
  const int a0 = base.add_column(0.0, 0.0, kInfinity);
  base.add_row(RowSense::kEqual, 8.0, {{a0, 1.0}});
  std::vector<int> b_cols;
  std::vector<RowEntry> b_demand;
  for (int t = 0; t < 3; ++t) {
    b_cols.push_back(base.add_column(0.0, 0.0, kInfinity));
    b_demand.push_back(RowEntry{b_cols.back(), 1.0});
  }
  base.add_row(RowSense::kEqual, 6.0, std::move(b_demand));

  std::vector<LoadRow> loads(3);
  loads[0] = LoadRow{{{a0, 1.0}, {b_cols[0], 1.0}}, 10.0, "slot0"};
  loads[1] = LoadRow{{{b_cols[1], 1.0}}, 10.0, "slot1"};
  loads[2] = LoadRow{{{b_cols[2], 1.0}}, 10.0, "slot2"};

  LexMinMaxSolver lex;
  const LexMinMaxResult r = lex.solve(base, loads);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.load[0], 0.8, 1e-6);
  EXPECT_NEAR(r.load[1], 0.3, 1e-6);
  EXPECT_NEAR(r.load[2], 0.3, 1e-6);
}

TEST(LexMinMax, ExactFixingMatchesHeuristicOnSeparableCase) {
  // "Exact fixing" is the flow lexmin's (core/flow_placement.h): it freezes
  // the maximal tight slot set of each level, and replaced the unsound
  // probing mode LexMinMaxOptions::exact_fixing. The heuristic is this
  // driver's dual test. One job spreads 10 units (width 5) over four slots
  // of capacity 5, next to a job pinned to slot 0: both must agree on the
  // whole sorted load vector.
  LpProblem base;
  std::vector<LoadRow> loads(4);
  std::vector<RowEntry> demand;
  for (int t = 0; t < 4; ++t) {
    const int col = base.add_column(0.0, 0.0, 5.0);
    demand.push_back(RowEntry{col, 1.0});
    loads[static_cast<std::size_t>(t)] = LoadRow{{{col, 1.0}}, 5.0, ""};
  }
  base.add_row(RowSense::kEqual, 10.0, std::move(demand));
  const int pinned = base.add_column(0.0, 0.0, 5.0);
  base.add_row(RowSense::kEqual, 4.0, {{pinned, 1.0}});
  loads[0].entries.push_back(RowEntry{pinned, 1.0});

  core::LpJob spread;
  spread.deadline_slot = 3;
  spread.demand[0] = 10.0;
  spread.width[0] = 5.0;
  core::LpJob pin;
  pin.demand[0] = 4.0;
  pin.width[0] = 5.0;
  const std::vector<workload::ResourceVec> caps(4, workload::ResourceVec{5.0});

  const auto dual = LexMinMaxSolver().solve(base, loads);
  const auto flow =
      core::solve_resource_flow_lexmin({spread, pin}, caps, 0, 0);
  ASSERT_TRUE(dual.optimal());
  ASSERT_TRUE(flow.ok());
  std::vector<double> a = dual.load;
  std::vector<double> b = flow.load;
  std::sort(a.rbegin(), a.rend());
  std::sort(b.rbegin(), b.rend());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k], b[k], 1e-6) << "coordinate " << k;
  }
  // Slot 0 holds the pinned 4 alone; the spread job fills the other three.
  EXPECT_NEAR(b[0], 0.8, 1e-6);
  EXPECT_NEAR(b[1], 10.0 / 15.0, 1e-6);
  EXPECT_EQ(flow.levels.size(), 2u);
}

TEST(LexMinMax, InfeasibleBaseReportsInfeasible) {
  LpProblem base;
  const int x = base.add_column(0.0, 0.0, 1.0);
  base.add_row(RowSense::kEqual, 5.0, {{x, 1.0}});
  LexMinMaxSolver lex;
  const auto r = lex.solve(base, {LoadRow{{{x, 1.0}}, 1.0, ""}});
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
}

TEST(LexMinMax, NoLoadsFallsBackToFeasibility) {
  LpProblem base;
  const int x = base.add_column(0.0, 2.0, 4.0);
  base.add_row(RowSense::kLessEqual, 3.0, {{x, 1.0}});
  LexMinMaxSolver lex;
  const auto r = lex.solve(base, {});
  ASSERT_TRUE(r.optimal());
  EXPECT_GE(r.x[0], 2.0 - 1e-7);
  EXPECT_LE(r.x[0], 3.0 + 1e-7);
}

TEST(LexMinMax, ZeroDemandGivesZeroLevels) {
  LpProblem base;
  const int x = base.add_column(0.0, 0.0, 5.0);
  base.add_row(RowSense::kEqual, 0.0, {{x, 1.0}});
  LexMinMaxSolver lex;
  const auto r = lex.solve(base, {LoadRow{{{x, 1.0}}, 10.0, ""}});
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.max_level(), 0.0, 1e-9);
}

struct LexRandomCase {
  int jobs;
  int slots;
  std::uint64_t seed;
};

class LexMinMaxProperty : public ::testing::TestWithParam<LexRandomCase> {};

TEST_P(LexMinMaxProperty, MaxLevelIsNeverBelowTheoreticalLowerBound) {
  // On uniform caps, max normalized load >= total_demand / (slots * cap)
  // and >= each job's demand / (window * cap).
  const auto c = GetParam();
  util::Rng rng(c.seed);
  LpProblem base;
  std::vector<LoadRow> loads(static_cast<std::size_t>(c.slots));
  const double cap = 20.0;
  for (int t = 0; t < c.slots; ++t) {
    loads[static_cast<std::size_t>(t)].normalizer = cap;
  }
  double total = 0.0;
  double per_job_bound = 0.0;
  for (int i = 0; i < c.jobs; ++i) {
    const int a = static_cast<int>(rng.uniform_int(0, c.slots - 1));
    const int d = static_cast<int>(rng.uniform_int(a, c.slots - 1));
    const double demand = static_cast<double>(rng.uniform_int(1, 15));
    total += demand;
    per_job_bound =
        std::max(per_job_bound, demand / ((d - a + 1) * cap));
    std::vector<RowEntry> row;
    for (int t = a; t <= d; ++t) {
      const int col = base.add_column(0.0, 0.0, kInfinity);
      row.push_back(RowEntry{col, 1.0});
      loads[static_cast<std::size_t>(t)].entries.push_back(
          RowEntry{col, 1.0});
    }
    base.add_row(RowSense::kEqual, demand, std::move(row));
  }
  LexMinMaxSolver lex;
  const auto r = lex.solve(base, loads);
  ASSERT_TRUE(r.optimal());
  const double lower_bound =
      std::max(total / (c.slots * cap), per_job_bound);
  EXPECT_GE(r.max_level(), lower_bound - 1e-6);
  // All loads bounded by the reported max level.
  for (double load : r.load) EXPECT_LE(load, r.max_level() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, LexMinMaxProperty,
    ::testing::Values(LexRandomCase{3, 4, 11}, LexRandomCase{5, 6, 12},
                      LexRandomCase{8, 8, 13}, LexRandomCase{10, 12, 14},
                      LexRandomCase{14, 10, 15}, LexRandomCase{20, 16, 16}));

}  // namespace
}  // namespace flowtime::lp
