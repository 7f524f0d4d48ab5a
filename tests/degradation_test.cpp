// Graceful-degradation ladder (DESIGN.md §10): SolveBudget semantics, the
// greedy fallback placement, the scheduler's escalation ladder, degraded-mode
// hysteresis, and determinism of pivot-capped degraded runs.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "core/greedy_placement.h"
#include "core/lp_formulation.h"
#include "lp/simplex.h"
#include "lp/solve_budget.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/scenario_io.h"

namespace flowtime {
namespace {

using workload::kCpu;
using workload::kMemory;
using workload::ResourceVec;

// ---------------------------------------------------------------------------
// SolveBudget

TEST(SolveBudget, UnlimitedByDefault) {
  lp::SolveBudget budget;
  EXPECT_FALSE(budget.limited());
  EXPECT_FALSE(budget.exhausted());
  budget.charge_pivot();
  EXPECT_FALSE(budget.exhausted());
}

TEST(SolveBudget, PivotCapExhaustsAsIterationLimit) {
  lp::SolveBudget budget;
  budget.set_pivot_cap(2);
  EXPECT_TRUE(budget.limited());
  EXPECT_FALSE(budget.exhausted());
  budget.charge_pivot();
  EXPECT_FALSE(budget.exhausted());
  budget.charge_pivot();
  ASSERT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.exhausted_status(), lp::SolveStatus::kIterationLimit);
  // Exhaustion latches.
  EXPECT_TRUE(budget.exhausted());
}

TEST(SolveBudget, CancelTokenExhaustsAsTimeout) {
  std::atomic<bool> cancel{false};
  lp::SolveBudget budget;
  budget.set_cancel_token(&cancel);
  EXPECT_TRUE(budget.limited());
  EXPECT_FALSE(budget.exhausted());
  cancel.store(true);
  ASSERT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.exhausted_status(), lp::SolveStatus::kTimeout);
}

TEST(SolveBudget, SimplexStopsAtPivotCapWithFeasiblePoint) {
  // Phase 1 prices structural columns ahead of slacks (they clear more
  // artificial mass per pivot), so it lands on a vertex with x and y well
  // inside the box; the real objective pulls the other way, back to the
  // origin, which takes at least two more pivots. A cap of phase-1-plus-one
  // therefore cuts mid-phase-2, which must still hand back the current
  // feasible vertex (truncated, not failed).
  lp::LpProblem p;
  const int x = p.add_column(3.0, 0.0, lp::kInfinity);
  const int y = p.add_column(5.0, 0.0, lp::kInfinity);
  p.add_row(lp::RowSense::kLessEqual, 4.0, {{x, 1.0}});
  p.add_row(lp::RowSense::kLessEqual, 12.0, {{y, 2.0}});
  p.add_row(lp::RowSense::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});

  const lp::Solution full = lp::SimplexSolver().solve(p);
  ASSERT_TRUE(full.optimal());
  EXPECT_NEAR(full.objective, 0.0, 1e-7);
  ASSERT_GE(full.iterations, full.phase1_iterations + 2)
      << "phase 2 must need at least two pivots for the cut to be partial";

  lp::SolveBudget budget;
  budget.set_pivot_cap(full.phase1_iterations + 1);
  lp::SimplexOptions options;
  options.budget = &budget;
  const lp::Solution s = lp::SimplexSolver(options).solve(p);
  EXPECT_EQ(s.status, lp::SolveStatus::kIterationLimit);
  ASSERT_EQ(s.x.size(), 2u);
  EXPECT_TRUE(p.is_feasible(s.x));

  // A cap that dies inside phase 1 has no feasible point to hand back:
  // the raw status propagates so the caller's ladder can classify it.
  lp::SolveBudget tight;
  tight.set_pivot_cap(1);
  lp::SimplexOptions tight_options;
  tight_options.budget = &tight;
  const lp::Solution cut = lp::SimplexSolver(tight_options).solve(p);
  EXPECT_EQ(cut.status, lp::SolveStatus::kIterationLimit);
  EXPECT_TRUE(cut.x.empty());
}

TEST(SolveBudget, SimplexHonorsCancellationToken) {
  lp::LpProblem p;
  const int x = p.add_column(-1.0, 0.0, 10.0);
  p.add_row(lp::RowSense::kLessEqual, 5.0, {{x, 1.0}});

  std::atomic<bool> cancel{true};  // cancelled before the solve even starts
  lp::SolveBudget budget;
  budget.set_cancel_token(&cancel);
  lp::SimplexOptions options;
  options.budget = &budget;
  const lp::Solution s = lp::SimplexSolver(options).solve(p);
  EXPECT_EQ(s.status, lp::SolveStatus::kTimeout);
}

// ---------------------------------------------------------------------------
// Greedy fallback placement

std::vector<ResourceVec> flat_capacity(int slots, double cpu, double mem) {
  return std::vector<ResourceVec>(static_cast<std::size_t>(slots),
                                  ResourceVec{cpu, mem});
}

core::LpJob make_job(int uid, int release, int deadline, ResourceVec demand,
                     ResourceVec width) {
  core::LpJob job;
  job.uid = uid;
  job.release_slot = release;
  job.deadline_slot = deadline;
  job.demand = demand;
  job.width = width;
  return job;
}

TEST(GreedyPlacement, DeliversFullDemandInsideFeasibleWindows) {
  // B's deadline is tighter, so EDF places it first (slots 0-1); A then
  // water-fills the three emptiest remaining slots (2-4).
  const std::vector<core::LpJob> jobs = {
      make_job(1, 0, 4, ResourceVec{300.0, 30.0}, ResourceVec{100.0, 10.0}),
      make_job(2, 0, 1, ResourceVec{150.0, 15.0}, ResourceVec{100.0, 10.0}),
  };
  const auto capacity = flat_capacity(5, 100.0, 200.0);
  const core::LpSchedule s = core::greedy_placement(jobs, capacity, 0);

  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s.capacity_exceeded);
  ASSERT_EQ(s.allocation.size(), 2u);
  ASSERT_EQ(s.num_slots, 5);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ResourceVec placed{};
    for (int t = 0; t < s.num_slots; ++t) {
      for (int r = 0; r < workload::kNumResources; ++r) {
        placed[r] += s.allocation[j][t][r];
        EXPECT_LE(s.allocation[j][t][r], jobs[j].width[r] + 1e-9);
        if (t < jobs[j].release_slot || t > jobs[j].deadline_slot) {
          EXPECT_EQ(s.allocation[j][t][r], 0.0)
              << "job " << j << " slot " << t << " outside window";
        }
      }
    }
    EXPECT_NEAR(placed[kCpu], jobs[j].demand[kCpu], 1e-9);
    EXPECT_NEAR(placed[kMemory], jobs[j].demand[kMemory], 1e-9);
  }
  // The tight job must occupy its whole window; the loose one avoids it.
  EXPECT_GT(s.allocation[1][0][kCpu], 0.0);
  EXPECT_GT(s.allocation[1][1][kCpu], 0.0);
  EXPECT_EQ(s.allocation[0][0][kCpu], 0.0);
  EXPECT_EQ(s.allocation[0][1][kCpu], 0.0);
  EXPECT_NEAR(s.max_normalized_load, 1.0, 1e-9);
}

TEST(GreedyPlacement, OversubscriptionIsFlaggedNotClipped) {
  // One job that cannot fit: 1000 core-seconds through a 2-slot window on a
  // 100 core-seconds/slot cluster. The placement still delivers the demand
  // (the allocator shrinks later); capacity_exceeded reports the overload.
  const std::vector<core::LpJob> jobs = {
      make_job(7, 0, 1, ResourceVec{1000.0, 10.0}, ResourceVec{500.0, 5.0}),
  };
  const auto capacity = flat_capacity(2, 100.0, 200.0);
  const core::LpSchedule s = core::greedy_placement(jobs, capacity, 0);

  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.capacity_exceeded);
  EXPECT_NEAR(s.max_normalized_load, 5.0, 1e-9);
  double placed = 0.0;
  for (int t = 0; t < s.num_slots; ++t) placed += s.allocation[0][t][kCpu];
  EXPECT_NEAR(placed, 1000.0, 1e-9);
}

TEST(GreedyPlacement, ClipsWindowsToTheHorizon) {
  // Release before the horizon and deadline past it: the window clamps to
  // [0, num_slots) and the demand still lands in full.
  const std::vector<core::LpJob> jobs = {
      make_job(3, -5, 10, ResourceVec{90.0, 9.0}, ResourceVec{30.0, 3.0}),
  };
  const auto capacity = flat_capacity(3, 100.0, 200.0);
  const core::LpSchedule s = core::greedy_placement(jobs, capacity, 0);

  ASSERT_TRUE(s.ok());
  double placed = 0.0;
  for (int t = 0; t < s.num_slots; ++t) placed += s.allocation[0][t][kCpu];
  EXPECT_NEAR(placed, 90.0, 1e-9);
}

TEST(GreedyPlacement, IsDeterministic) {
  const std::vector<core::LpJob> jobs = {
      make_job(1, 0, 9, ResourceVec{400.0, 40.0}, ResourceVec{80.0, 8.0}),
      make_job(2, 2, 6, ResourceVec{200.0, 20.0}, ResourceVec{100.0, 10.0}),
      make_job(3, 0, 3, ResourceVec{120.0, 12.0}, ResourceVec{60.0, 6.0}),
  };
  const auto capacity = flat_capacity(10, 150.0, 300.0);
  const core::LpSchedule a = core::greedy_placement(jobs, capacity, 0);
  const core::LpSchedule b = core::greedy_placement(jobs, capacity, 0);
  ASSERT_EQ(a.allocation.size(), b.allocation.size());
  for (std::size_t j = 0; j < a.allocation.size(); ++j) {
    ASSERT_EQ(a.allocation[j].size(), b.allocation[j].size());
    for (std::size_t t = 0; t < a.allocation[j].size(); ++t) {
      EXPECT_EQ(a.allocation[j][t], b.allocation[j][t]);
    }
  }
  EXPECT_EQ(a.max_normalized_load, b.max_normalized_load);
}

TEST(GreedyPlacement, EmptyHorizonIsInfeasibleOnlyWithJobs) {
  const std::vector<ResourceVec> empty_capacity;
  EXPECT_TRUE(core::greedy_placement({}, empty_capacity, 0).ok());
  const std::vector<core::LpJob> jobs = {
      make_job(1, 0, 1, ResourceVec{10.0, 1.0}, ResourceVec{10.0, 1.0})};
  EXPECT_EQ(core::greedy_placement(jobs, empty_capacity, 0).status,
            lp::SolveStatus::kInfeasible);
}

// ---------------------------------------------------------------------------
// End-to-end escalation ladder

constexpr const char* kBaseScenario = R"(
cluster cores=100 mem_gb=256 slot_seconds=10

workflow id=0 name=wf start=0 deadline=600
job node=0 name=crunch tasks=40 runtime=100 cores=1 mem=2
end

adhoc id=0 arrival=30 tasks=4 runtime=30 cores=1 mem=1
)";

// kBaseScenario with every re-plan capped at one augmenting path from slot
// 0 on: a deterministic cap that exhausts inside rung 0.
const std::string kPivotCappedScenario =
    std::string(kBaseScenario) + "fault_solver slot=0 pivots=1\n";

workload::ParsedScenario parse(const std::string& text) {
  workload::ParseError error;
  const auto parsed = workload::parse_scenario(text, &error);
  EXPECT_TRUE(parsed.has_value())
      << "line " << error.line << ": " << error.message;
  return *parsed;
}

sim::SimConfig sim_config(const workload::ParsedScenario& parsed) {
  sim::SimConfig config;
  if (parsed.cluster) config.cluster = *parsed.cluster;
  config.fault_plan = parsed.fault_plan;
  return config;
}

core::FlowTimeConfig flowtime_config(const sim::SimConfig& sim) {
  core::FlowTimeConfig config;
  config.cluster = sim.cluster;
  return config;
}

TEST(DegradationLadder, PivotBudgetOfOneFallsThroughToGreedy) {
  auto parsed = parse(kPivotCappedScenario);
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeScheduler scheduler(flowtime_config(config));
  const sim::SimResult result =
      sim::Simulator(config).run(parsed.scenario, scheduler);

  // The acceptance bar: even with the solver effectively disabled, every
  // runnable deadline job is placed and the run finishes clean.
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.capacity_violations, 0);
  EXPECT_EQ(result.width_violations, 0);
  EXPECT_EQ(result.not_ready_allocations, 0);

  ASSERT_FALSE(scheduler.replan_log().empty());
  EXPECT_GE(scheduler.degraded_replans(), 1);
  int greedy_replans = 0;
  for (const core::ReplanRecord& record : scheduler.replan_log()) {
    // A re-plan with no incomplete deadline jobs solves a trivial LP in
    // zero pivots and legitimately stays on rung 0; any real placement
    // must have burned the one-pivot budget and fallen through to greedy
    // (rung 1).
    if (record.planned_jobs == 0) continue;
    ++greedy_replans;
    EXPECT_EQ(record.degrade_rung, 1) << "slot " << record.slot;
    EXPECT_EQ(record.degrade_reason, core::DegradeReason::kIterationLimit);
    EXPECT_TRUE(record.budget_exhausted);
    EXPECT_TRUE(record.lp_failed);
  }
  EXPECT_GE(greedy_replans, 1);
}

TEST(DegradationLadder, PivotCappedDegradedRunsAreBitIdentical) {
  auto run_once = [&]() {
    auto parsed = parse(kPivotCappedScenario);
    const sim::SimConfig config = sim_config(parsed);
    core::FlowTimeScheduler scheduler(flowtime_config(config));
    return sim::Simulator(config).run(parsed.scenario, scheduler);
  };
  const sim::SimResult a = run_once();
  const sim::SimResult b = run_once();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].completion_s, b.jobs[i].completion_s);
  }
  ASSERT_EQ(a.used_per_slot.size(), b.used_per_slot.size());
  for (std::size_t t = 0; t < a.used_per_slot.size(); ++t) {
    EXPECT_EQ(a.used_per_slot[t], b.used_per_slot[t]) << "slot " << t;
  }
}

TEST(DegradationLadder, HugeBudgetIsTransparent) {
  // A budget that never fires must not perturb the solve: installing the
  // watchdog may cost a clock read per pivot but never a different pivot.
  auto run_once = [&](double budget_ms) {
    auto parsed = parse(kBaseScenario);
    const sim::SimConfig config = sim_config(parsed);
    core::FlowTimeConfig ft = flowtime_config(config);
    ft.solver_budget_ms = budget_ms;
    core::FlowTimeScheduler scheduler(ft);
    return sim::Simulator(config).run(parsed.scenario, scheduler);
  };
  const sim::SimResult unlimited = run_once(0.0);
  const sim::SimResult bounded = run_once(1e9);
  ASSERT_EQ(unlimited.jobs.size(), bounded.jobs.size());
  for (std::size_t i = 0; i < unlimited.jobs.size(); ++i) {
    EXPECT_EQ(unlimited.jobs[i].completion_s, bounded.jobs[i].completion_s);
  }
  ASSERT_EQ(unlimited.used_per_slot.size(), bounded.used_per_slot.size());
  for (std::size_t t = 0; t < unlimited.used_per_slot.size(); ++t) {
    EXPECT_EQ(unlimited.used_per_slot[t], bounded.used_per_slot[t]);
  }
}

TEST(DegradationLadder, EscalationsAreTracedWithReasons) {
  obs::testing::ScopedRegistryReset reset;
  auto* sink = new obs::MemorySink();
  obs::set_trace_sink(std::unique_ptr<obs::TraceSink>(sink));

  auto parsed = parse(kPivotCappedScenario);
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeScheduler scheduler(flowtime_config(config));
  const sim::SimResult result =
      sim::Simulator(config).run(parsed.scenario, scheduler);
  EXPECT_TRUE(result.all_completed);

  int escalations = 0;
  int enters = 0;
  int degraded_span_begins = 0;
  for (const std::string& line : sink->lines()) {
    std::map<std::string, std::string> record;
    ASSERT_TRUE(obs::parse_flat_json(line, &record)) << line;
    const std::string type = record["type"];
    if (type == "solver_escalation") {
      ++escalations;
      EXPECT_EQ(record["reason"], "iteration_limit") << line;
    } else if (type == "degrade_enter") {
      ++enters;
    } else if (type == "span_begin" && record["kind"] == "degraded") {
      ++degraded_span_begins;
    } else if (type == "replan" && record["degrade_rung"] != "0") {
      EXPECT_EQ(record["degrade_rung"], "1") << line;
      EXPECT_EQ(record["degrade_reason"], "iteration_limit") << line;
    }
  }
  // Each degraded re-plan escalates once (flow lexmin -> greedy); every
  // degraded-mode window opens exactly one paired span.
  EXPECT_GE(escalations, 1);
  EXPECT_EQ(escalations, scheduler.degraded_replans());
  EXPECT_GE(enters, 1);
  EXPECT_EQ(degraded_span_begins, enters);
}

TEST(DegradationLadder, SolverSabotageEntersAndHysteresisExits) {
  obs::testing::ScopedRegistryReset reset;
  auto* sink = new obs::MemorySink();
  obs::set_trace_sink(std::unique_ptr<obs::TraceSink>(sink));

  // The sabotage window covers slot 0 only: the arrival re-plan is forced
  // into a numerical failure and falls straight to greedy (rung 1) without
  // running the flow solve. Three more workflows arrive long after the
  // window lifts, giving the hysteresis the three clean flow-lexmin
  // re-plans it needs to recover.
  auto parsed = parse(
      "cluster cores=100 mem_gb=256 slot_seconds=10\n"
      "workflow id=0 name=wf start=0 deadline=600\n"
      "job node=0 name=crunch tasks=40 runtime=100 cores=1 mem=2\n"
      "end\n"
      "workflow id=1 name=late start=200 deadline=900\n"
      "job node=0 name=tail tasks=10 runtime=60 cores=1 mem=2\n"
      "end\n"
      "workflow id=2 name=later start=300 deadline=1000\n"
      "job node=0 name=tail tasks=10 runtime=60 cores=1 mem=2\n"
      "end\n"
      "workflow id=3 name=last start=400 deadline=1100\n"
      "job node=0 name=tail tasks=10 runtime=60 cores=1 mem=2\n"
      "end\n"
      "fault seed=1\n"
      "fault_solver slot=0 until=1 fail=1\n");
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeScheduler scheduler(flowtime_config(config));
  const sim::SimResult result =
      sim::Simulator(config).run(parsed.scenario, scheduler);

  EXPECT_TRUE(result.all_completed);
  EXPECT_GE(scheduler.degraded_replans(), 1);
  EXPECT_FALSE(scheduler.degraded_mode())
      << "three clean re-plans after the window must recover the mode";

  ASSERT_FALSE(scheduler.replan_log().empty());
  const core::ReplanRecord& first = scheduler.replan_log().front();
  EXPECT_EQ(first.degrade_rung, 1) << "greedy absorbs the sabotage";
  EXPECT_EQ(first.degrade_reason, core::DegradeReason::kNumericalFailure);
  EXPECT_TRUE(first.lp_failed);
  EXPECT_EQ(first.pivots, 0) << "no solve may re-run the sabotaged flow";

  int enters = 0;
  int exits = 0;
  int escalations = 0;
  int sabotage_events = 0;
  // degraded_mode as each re-plan after the greedy one left it.
  std::vector<std::string> degraded_after;
  bool first_replan = true;
  for (const std::string& line : sink->lines()) {
    std::map<std::string, std::string> record;
    ASSERT_TRUE(obs::parse_flat_json(line, &record)) << line;
    const std::string type = record["type"];
    if (type == "degrade_enter") ++enters;
    if (type == "degrade_exit") {
      ++exits;
      EXPECT_EQ(record["clean_replans"], "3") << line;
    }
    if (type == "solver_escalation") ++escalations;
    if (type == "fault_injected" && record["kind"] == "solver_sabotage") {
      ++sabotage_events;
    }
    if (type == "replan") {
      if (!first_replan) degraded_after.push_back(record["degraded_mode"]);
      first_replan = false;
    }
  }
  // Hysteresis: the mode survives the first and second clean re-plans and
  // ends on the third.
  ASSERT_GE(degraded_after.size(), 3u);
  EXPECT_EQ(degraded_after[0], "true");
  EXPECT_EQ(degraded_after[1], "true");
  EXPECT_EQ(degraded_after[2], "false");
  EXPECT_EQ(enters, 1);
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(escalations, 1);
  EXPECT_EQ(sabotage_events, 1);
  EXPECT_EQ(result.faults.solver_sabotages, 1);
}

TEST(DegradationLadder, SabotageWindowWarnsOnceOnEnteringDegradedMode) {
  // The sabotage window spans three arrival re-plans, and each escalates
  // to greedy. The counters and `solver_escalation` events record every
  // escalation; the log warns once per episode, on entering degraded mode.
  auto parsed = parse(
      "cluster cores=100 mem_gb=256 slot_seconds=10\n"
      "workflow id=0 name=wf start=0 deadline=900\n"
      "job node=0 name=crunch tasks=40 runtime=100 cores=1 mem=2\n"
      "end\n"
      "workflow id=1 name=mid start=100 deadline=1000\n"
      "job node=0 name=tail tasks=10 runtime=60 cores=1 mem=2\n"
      "end\n"
      "workflow id=2 name=late start=200 deadline=1100\n"
      "job node=0 name=tail tasks=10 runtime=60 cores=1 mem=2\n"
      "end\n"
      "fault seed=1\n"
      "fault_solver slot=0 until=30 fail=1\n");
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeScheduler scheduler(flowtime_config(config));
  ::testing::internal::CaptureStderr();
  const sim::SimResult result =
      sim::Simulator(config).run(parsed.scenario, scheduler);
  const std::string logged = ::testing::internal::GetCapturedStderr();

  EXPECT_TRUE(result.all_completed);
  EXPECT_GE(scheduler.degraded_replans(), 3);
  int warnings = 0;
  for (std::size_t at = logged.find("[WARN "); at != std::string::npos;
       at = logged.find("[WARN ", at + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1) << logged;
  EXPECT_NE(logged.find("entering degraded mode"), std::string::npos)
      << logged;
}

TEST(DegradationLadder, OneMillisecondWallBudgetSurvivesChaosSuite) {
  // The wall clock is machine-dependent, so this test asserts the safety
  // contract, not which rung fired: under a 1 ms budget plus task-failure
  // chaos, the run completes with every job placed and any escalation
  // carries an attributed reason.
  auto parsed = parse(std::string(kBaseScenario) +
                      "fault seed=42\n"
                      "fault_hazard prob=0.01 lose=0.5 backoff=2 retries=3\n");
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeConfig ft = flowtime_config(config);
  ft.solver_budget_ms = 1.0;
  core::FlowTimeScheduler scheduler(ft);
  const sim::SimResult result =
      sim::Simulator(config).run(parsed.scenario, scheduler);

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.capacity_violations, 0);
  EXPECT_EQ(result.width_violations, 0);
  EXPECT_EQ(result.not_ready_allocations, 0);
  for (const core::ReplanRecord& record : scheduler.replan_log()) {
    if (record.degrade_rung > 0) {
      EXPECT_NE(record.degrade_reason, core::DegradeReason::kNone)
          << "slot " << record.slot;
    } else {
      EXPECT_EQ(record.degrade_reason, core::DegradeReason::kNone);
    }
  }
}

}  // namespace
}  // namespace flowtime
