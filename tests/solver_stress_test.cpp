// Stress and cross-validation tests for the solver stack: pricing-rule
// independence, lexmin level monotonicity, simplex-vs-flow lexmin, and
// table formatting edge cases that the bench harnesses rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/flow_placement.h"
#include "core/flowtime_scheduler.h"
#include "lp/lexmin.h"
#include "lp/simplex.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/scenario_io.h"

namespace flowtime {
namespace {

using lp::kInfinity;
using lp::LoadRow;
using lp::LpProblem;
using lp::RowEntry;
using lp::RowSense;

LpProblem random_lp(util::Rng& rng, int columns, int rows) {
  LpProblem p;
  for (int j = 0; j < columns; ++j) {
    p.add_column(rng.uniform_real(-3.0, 3.0), 0.0,
                 rng.uniform_real(2.0, 8.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < columns; ++j) {
      if (rng.bernoulli(0.5)) {
        entries.push_back(RowEntry{j, rng.uniform_real(-1.0, 3.0)});
      }
    }
    p.add_row(RowSense::kLessEqual, rng.uniform_real(2.0, 15.0),
              std::move(entries));
  }
  return p;
}

class PricingRuleIndependence : public ::testing::TestWithParam<int> {};

TEST_P(PricingRuleIndependence, BlandAndDantzigAgreeOnTheOptimum) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 4000);
  const LpProblem p = random_lp(rng, 10, 7);

  lp::SimplexOptions dantzig;  // defaults: Dantzig with Bland fallback
  lp::SimplexOptions bland;
  bland.degenerate_before_bland = 0;  // Bland from the first pivot

  const lp::Solution a = lp::SimplexSolver(dantzig).solve(p);
  const lp::Solution b = lp::SimplexSolver(bland).solve(p);
  ASSERT_EQ(a.status, b.status);
  if (a.optimal()) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6);
    EXPECT_TRUE(p.is_feasible(b.x, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PricingRuleIndependence,
                         ::testing::Range(1, 11));

class LexminStress : public ::testing::TestWithParam<int> {};

TEST_P(LexminStress, LevelsAreNonIncreasingAndLoadsRespectThem) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 6000);
  const int slots = static_cast<int>(rng.uniform_int(6, 24));
  const int jobs = static_cast<int>(rng.uniform_int(4, 20));
  LpProblem base;
  std::vector<LoadRow> loads(static_cast<std::size_t>(slots));
  for (int t = 0; t < slots; ++t) {
    loads[static_cast<std::size_t>(t)].normalizer =
        rng.uniform_real(50.0, 200.0);
  }
  for (int i = 0; i < jobs; ++i) {
    const int begin = static_cast<int>(rng.uniform_int(0, slots - 1));
    const int end = static_cast<int>(rng.uniform_int(begin, slots - 1));
    std::vector<RowEntry> row;
    for (int t = begin; t <= end; ++t) {
      const int col = base.add_column(0.0, 0.0, kInfinity);
      row.push_back(RowEntry{col, 1.0});
      loads[static_cast<std::size_t>(t)].entries.push_back(
          RowEntry{col, 1.0});
    }
    base.add_row(RowSense::kEqual,
                 rng.uniform_real(5.0, 40.0 * (end - begin + 1)),
                 std::move(row));
  }
  lp::LexMinMaxOptions options;
  options.max_rounds = 64;
  const lp::LexMinMaxResult r =
      lp::LexMinMaxSolver(options).solve(base, loads);
  ASSERT_TRUE(r.optimal());
  for (std::size_t k = 1; k < r.levels.size(); ++k) {
    EXPECT_LE(r.levels[k], r.levels[k - 1] + 1e-6)
        << "levels must come out in decreasing order";
  }
  for (double load : r.load) {
    EXPECT_LE(load, r.max_level() + 1e-6);
    EXPECT_GE(load, -1e-9);
  }
}

TEST_P(LexminStress, HeuristicFixingMatchesExactOnMaxLevel) {
  // The heuristic (the simplex driver's dual test, refined to the last
  // level) and the exact fixing of the flow lexmin (core/flow_placement.h)
  // must agree on the max level and on the whole sorted level vector. The
  // columns are unbounded, so the flow jobs get a width equal to their
  // demand (which can never bind).
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  const int slots = static_cast<int>(rng.uniform_int(4, 10));
  LpProblem base;
  std::vector<LoadRow> loads(static_cast<std::size_t>(slots));
  for (int t = 0; t < slots; ++t) {
    loads[static_cast<std::size_t>(t)].normalizer = 100.0;
  }
  std::vector<core::LpJob> jobs;
  for (int i = 0; i < 6; ++i) {
    const int begin = static_cast<int>(rng.uniform_int(0, slots - 1));
    const int end = static_cast<int>(rng.uniform_int(begin, slots - 1));
    std::vector<RowEntry> row;
    for (int t = begin; t <= end; ++t) {
      const int col = base.add_column(0.0, 0.0, kInfinity);
      row.push_back(RowEntry{col, 1.0});
      loads[static_cast<std::size_t>(t)].entries.push_back(
          RowEntry{col, 1.0});
    }
    const double demand = rng.uniform_real(10.0, 60.0 * (end - begin + 1));
    base.add_row(RowSense::kEqual, demand, std::move(row));
    core::LpJob job;
    job.release_slot = begin;
    job.deadline_slot = end;
    job.demand[0] = demand;
    job.width[0] = demand;
    jobs.push_back(job);
  }
  lp::LexMinMaxOptions options;
  options.max_rounds = 1000;
  const auto dual = lp::LexMinMaxSolver(options).solve(base, loads);
  const auto flow = core::solve_resource_flow_lexmin(
      jobs,
      std::vector<workload::ResourceVec>(static_cast<std::size_t>(slots),
                                         workload::ResourceVec{100.0}),
      0, 0);
  ASSERT_TRUE(dual.optimal());
  ASSERT_TRUE(flow.ok());
  std::vector<double> expected = dual.load;
  std::vector<double> got = flow.load;
  std::sort(expected.rbegin(), expected.rend());
  std::sort(got.rbegin(), got.rend());
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_NEAR(got[k], expected[k], 1e-6) << "coordinate " << k;
  }
  EXPECT_NEAR(flow.max_level(), dual.max_level(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LexminStress, ::testing::Range(1, 11));

TEST(IterationLimitEndToEnd, ExhaustedPivotCapYieldsDeterministicFallback) {
  // Eight identical jobs sharing one window make the placement LP highly
  // degenerate — plenty of tied pivots to chew through a tiny cap. The cap
  // must surface as kIterationLimit (never a crash or an unplaced job), and
  // because the pivot cap is deterministic, two runs must be
  // byte-identical. The cap (5 paths, far below what 8 demand rows need)
  // holds for every re-plan from slot 0 on.
  const char* scenario_text =
      "cluster cores=64 mem_gb=128 slot_seconds=10\n"
      "workflow id=0 name=degenerate start=0 deadline=500\n"
      "job node=0 name=a tasks=8 runtime=80 cores=1 mem=2\n"
      "job node=1 name=b tasks=8 runtime=80 cores=1 mem=2\n"
      "job node=2 name=c tasks=8 runtime=80 cores=1 mem=2\n"
      "job node=3 name=d tasks=8 runtime=80 cores=1 mem=2\n"
      "job node=4 name=e tasks=8 runtime=80 cores=1 mem=2\n"
      "job node=5 name=f tasks=8 runtime=80 cores=1 mem=2\n"
      "job node=6 name=g tasks=8 runtime=80 cores=1 mem=2\n"
      "job node=7 name=h tasks=8 runtime=80 cores=1 mem=2\n"
      "end\n"
      "fault_solver slot=0 pivots=5\n";
  auto run_once = [&]() {
    workload::ParseError error;
    const auto parsed = workload::parse_scenario(scenario_text, &error);
    EXPECT_TRUE(parsed.has_value()) << error.message;
    sim::SimConfig config;
    if (parsed->cluster) config.cluster = *parsed->cluster;
    config.fault_plan = parsed->fault_plan;
    core::FlowTimeConfig ft;
    ft.cluster = config.cluster;
    core::FlowTimeScheduler scheduler(ft);
    sim::Simulator simulator(config);
    sim::SimResult result = simulator.run(parsed->scenario, scheduler);
    bool iteration_limited = false;
    for (const core::ReplanRecord& record : scheduler.replan_log()) {
      if (record.degrade_reason == core::DegradeReason::kIterationLimit) {
        iteration_limited = true;
        EXPECT_TRUE(record.budget_exhausted);
      }
    }
    EXPECT_TRUE(iteration_limited)
        << "the pivot cap must trip at least one re-plan";
    return result;
  };
  const sim::SimResult a = run_once();
  const sim::SimResult b = run_once();
  EXPECT_TRUE(a.all_completed);
  EXPECT_EQ(a.capacity_violations, 0);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].completion_s, b.jobs[i].completion_s);
  }
  ASSERT_EQ(a.used_per_slot.size(), b.used_per_slot.size());
  for (std::size_t t = 0; t < a.used_per_slot.size(); ++t) {
    EXPECT_EQ(a.used_per_slot[t], b.used_per_slot[t]) << "slot " << t;
  }
}

TEST(TableEdge, EmptyTableRendersHeaderOnly) {
  util::Table t({"a", "b"});
  EXPECT_EQ(t.row_count(), 0u);
  const std::string rendered = t.to_string();
  EXPECT_NE(rendered.find("a"), std::string::npos);
}

TEST(TableEdge, FormatDoublePrecision) {
  EXPECT_EQ(util::format_double(3.14159, 2), "3.14");
  EXPECT_EQ(util::format_double(3.14159, 0), "3");
  EXPECT_EQ(util::format_double(-1.005, 1), "-1.0");
}

}  // namespace
}  // namespace flowtime
