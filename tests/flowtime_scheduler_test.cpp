// Tests for the FlowTime scheduler: deadline adherence, ad-hoc leftover
// allocation, dynamic re-planning, estimation-error robustness and the
// adopt-or-discard rule of the replan cycle.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "dag/generators.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/estimator.h"
#include "workload/trace_gen.h"

namespace flowtime::core {
namespace {

using workload::kCpu;
using workload::ResourceVec;

workload::JobSpec simple_job(int tasks, double runtime, double cpu,
                             double mem) {
  workload::JobSpec job;
  job.name = "j";
  job.num_tasks = tasks;
  job.task.runtime_s = runtime;
  job.task.demand = ResourceVec{cpu, mem};
  return job;
}

// A small cluster so contention is real but tests stay fast.
sim::SimConfig small_cluster() {
  sim::SimConfig config;
  config.cluster.capacity = ResourceVec{50.0, 100.0};
  config.max_horizon_s = 6000.0;
  return config;
}

FlowTimeConfig flowtime_config(const sim::SimConfig& sim_config) {
  FlowTimeConfig config;
  config.cluster.capacity = sim_config.cluster.capacity;
  config.cluster.slot_seconds = sim_config.cluster.slot_seconds;
  return config;
}

workload::Scenario chain_scenario(double deadline = 2000.0) {
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = deadline;
  w.dag = dag::make_chain(3);
  w.jobs = {simple_job(10, 40.0, 1.0, 2.0), simple_job(20, 30.0, 1.0, 2.0),
            simple_job(5, 60.0, 1.0, 2.0)};
  scenario.workflows.push_back(std::move(w));
  return scenario;
}

TEST(FlowTimeScheduler, MeetsAllDecomposedDeadlinesWithoutContention) {
  const sim::SimConfig sim_config = small_cluster();
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  const workload::Scenario scenario = chain_scenario();
  const sim::SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  EXPECT_EQ(result.capacity_violations, 0);
  EXPECT_EQ(result.width_violations, 0);
  EXPECT_EQ(result.not_ready_allocations, 0);

  const sim::DeadlineReport report = sim::evaluate_deadlines(
      result, scenario.workflows,
      sim::JobDeadlines(scheduler.job_deadlines().begin(),
                        scheduler.job_deadlines().end()));
  EXPECT_EQ(report.jobs_missed, 0);
  EXPECT_EQ(report.workflows_missed, 0);
}

TEST(FlowTimeScheduler, ExposesDecompositionAndDeadlines) {
  const sim::SimConfig sim_config = small_cluster();
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  const workload::Scenario scenario = chain_scenario();
  sim.run(scenario, scheduler);
  EXPECT_EQ(scheduler.job_deadlines().size(), 3u);
  // Final job's decomposed deadline is the workflow deadline.
  EXPECT_NEAR(scheduler.job_deadlines().at(workload::WorkflowJobRef{0, 2}),
              2000.0, 1e-9);
}

TEST(FlowTimeScheduler, SpreadsWorkInsteadOfFrontLoading) {
  // The lexmin objective should keep per-slot usage near demand/window, far
  // below an EDF-style full-width burst.
  const sim::SimConfig sim_config = small_cluster();
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  const workload::Scenario scenario = chain_scenario(4000.0);
  const sim::SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  double peak_cpu = 0.0;
  for (const auto& used : result.allocated_per_slot) {
    peak_cpu = std::max(peak_cpu, used[kCpu]);
  }
  // Full width of the widest job would be 20 cores x 10 s = 200; flattening
  // over the loose deadline must stay well below that.
  EXPECT_LT(peak_cpu, 100.0);
}

TEST(FlowTimeScheduler, AdhocJobsRunImmediatelyOnLeftovers) {
  const sim::SimConfig sim_config = small_cluster();
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  workload::Scenario scenario = chain_scenario(4000.0);
  workload::AdhocJob adhoc;
  adhoc.id = 0;
  adhoc.arrival_s = 0.0;
  adhoc.spec = simple_job(5, 20.0, 1.0, 1.0);
  adhoc.spec.name = "adhoc";
  scenario.adhoc_jobs.push_back(adhoc);
  const sim::SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  const sim::AdhocReport report = sim::evaluate_adhoc(result);
  ASSERT_EQ(report.completed, 1);
  // 5 tasks x 20 s x 1 core = 100 core-s; width 50 core-s/slot -> 2 slots
  // if served instantly. Allow one extra slot of slack.
  EXPECT_LE(report.mean_turnaround_s, 30.0 + 1e-9);
}

TEST(FlowTimeScheduler, ReplansOnlyOnMeaningfulEventsWithExactEstimates) {
  const sim::SimConfig sim_config = small_cluster();
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  const workload::Scenario scenario = chain_scenario();
  sim.run(scenario, scheduler);
  // One arrival plus at most a few deviation-driven replans (slot rounding
  // can make a job finish one slot early).
  EXPECT_GE(scheduler.replans(), 1);
  EXPECT_LE(scheduler.replans(), 6);
}

TEST(FlowTimeScheduler, SlackAbsorbsUnderEstimation) {
  const sim::SimConfig sim_config = small_cluster();
  workload::Scenario scenario = chain_scenario();
  // All jobs run 15% longer than estimated.
  for (workload::JobSpec& job : scenario.workflows[0].jobs) {
    job.actual_runtime_factor = 1.15;
  }
  FlowTimeConfig config = flowtime_config(sim_config);
  config.deadline_slack_s = 120.0;
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(config);
  const sim::SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  const sim::DeadlineReport report = sim::evaluate_deadlines(
      result, scenario.workflows,
      sim::JobDeadlines(scheduler.job_deadlines().begin(),
                        scheduler.job_deadlines().end()));
  EXPECT_EQ(report.jobs_missed, 0);
  EXPECT_GT(scheduler.replans(), 1);  // overruns forced re-planning
}

TEST(FlowTimeScheduler, OverEstimationFreesCapacityEarly) {
  const sim::SimConfig sim_config = small_cluster();
  workload::Scenario scenario = chain_scenario();
  for (workload::JobSpec& job : scenario.workflows[0].jobs) {
    job.actual_runtime_factor = 0.6;  // strongly over-estimated
  }
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  const sim::SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  const sim::DeadlineReport report = sim::evaluate_deadlines(
      result, scenario.workflows,
      sim::JobDeadlines(scheduler.job_deadlines().begin(),
                        scheduler.job_deadlines().end()));
  EXPECT_EQ(report.jobs_missed, 0);
}

TEST(FlowTimeScheduler, TightDeadlineStillCompletesViaFallback) {
  // Deadline below the minimum makespan: decomposition falls back to
  // critical-path windows and the LP extends late windows minimally; the
  // workflow finishes as fast as the cluster allows even though the
  // deadline is missed.
  const sim::SimConfig sim_config = small_cluster();
  workload::Scenario scenario = chain_scenario(/*deadline=*/60.0);
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  const sim::SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  // Minimum possible makespan: job0 2 slots (wait: 10x40=400 core-s,
  // width 100/slot -> 4 slots) + job1 600/200 -> 3 slots + job2 300/50 ->
  // 6 slots = 13 slots = 130 s. Allow some slack for planning granularity.
  EXPECT_LE(result.jobs[2].completion_s.value(), 300.0);
}

TEST(FlowTimeScheduler, HandlesMultipleOverlappingWorkflows) {
  const sim::SimConfig sim_config = small_cluster();
  workload::Scenario scenario;
  util::Rng rng(77);
  workload::WorkflowGenConfig gen;
  gen.num_jobs = 8;
  gen.cluster.capacity = sim_config.cluster.capacity;
  gen.looseness_min = 4.0;
  gen.looseness_max = 6.0;
  for (int i = 0; i < 3; ++i) {
    scenario.workflows.push_back(
        workload::make_workflow(rng, i, i * 100.0, gen));
  }
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  const sim::SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  EXPECT_EQ(result.capacity_violations, 0);
  const sim::DeadlineReport report = sim::evaluate_deadlines(
      result, scenario.workflows,
      sim::JobDeadlines(scheduler.job_deadlines().begin(),
                        scheduler.job_deadlines().end()));
  EXPECT_EQ(report.workflows_missed, 0);
}

TEST(FlowTimeScheduler, NoSlackVariantUsesFullWindow) {
  FlowTimeConfig with_slack = flowtime_config(small_cluster());
  with_slack.deadline_slack_s = 60.0;
  FlowTimeConfig no_slack = flowtime_config(small_cluster());
  no_slack.deadline_slack_s = 0.0;
  // The slack variant must plan completions strictly earlier for the same
  // single job.
  workload::Scenario scenario = chain_scenario(1000.0);

  sim::Simulator sim(small_cluster());
  FlowTimeScheduler slack_scheduler(with_slack);
  const sim::SimResult slack_result = sim.run(scenario, slack_scheduler);
  FlowTimeScheduler no_slack_scheduler(no_slack);
  const sim::SimResult no_slack_result =
      sim.run(scenario, no_slack_scheduler);
  ASSERT_TRUE(slack_result.all_completed);
  ASSERT_TRUE(no_slack_result.all_completed);
  // Last job completes no later under slack (usually strictly earlier).
  EXPECT_LE(slack_result.jobs[2].completion_s.value(),
            no_slack_result.jobs[2].completion_s.value() + 1e-9);
}

TEST(FlowTimeScheduler, ReplanLogCarriesCauseTags) {
  const sim::SimConfig sim_config = small_cluster();
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  const workload::Scenario scenario = chain_scenario();
  sim.run(scenario, scheduler);

  const auto& log = scheduler.replan_log();
  ASSERT_EQ(static_cast<int>(log.size()), scheduler.replans());
  ASSERT_FALSE(log.empty());
  // The first replan is triggered by the workflow's arrival.
  EXPECT_TRUE(has_cause(log.front().causes, ReplanCause::kWorkflowArrival));
  EXPECT_NE(to_string(log.front().causes).find("arrival"),
            std::string::npos);
  // Every replan was triggered by something; none fires spuriously.
  for (const ReplanRecord& record : log) {
    EXPECT_NE(record.causes, ReplanCause::kNone);
    EXPECT_FALSE(record.lp_failed);
  }
}

TEST(FlowTimeScheduler, OverrunsAreTaggedInReplanLog) {
  const sim::SimConfig sim_config = small_cluster();
  workload::Scenario scenario = chain_scenario();
  for (workload::JobSpec& job : scenario.workflows[0].jobs) {
    job.actual_runtime_factor = 1.3;  // every job runs longer than planned
  }
  FlowTimeConfig config = flowtime_config(sim_config);
  config.deadline_slack_s = 120.0;
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(config);
  sim.run(scenario, scheduler);

  bool saw_overrun = false;
  for (const ReplanRecord& record : scheduler.replan_log()) {
    saw_overrun |= has_cause(record.causes, ReplanCause::kOverrun);
  }
  EXPECT_TRUE(saw_overrun);
}

TEST(FlowTimeScheduler, ReplanLogSolverStatsAreMonotoneAndConsistent) {
  const sim::SimConfig sim_config = small_cluster();
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  sim.run(chain_scenario(), scheduler);

  const auto& log = scheduler.replan_log();
  ASSERT_FALSE(log.empty());
  std::int64_t pivot_sum = 0;
  int last_slot = -1;
  for (const ReplanRecord& record : log) {
    EXPECT_GE(record.pivots, 0);
    EXPECT_GE(record.planned_jobs, 0);
    EXPECT_GE(record.slot, last_slot);  // log is in simulation order
    last_slot = record.slot;
    pivot_sum += record.pivots;
  }
  // Per-replan pivot deltas partition the scheduler-wide total.
  EXPECT_EQ(pivot_sum, scheduler.total_pivots());
}

TEST(FlowTimeScheduler, EmitsReplanTraceEventsWithSolverStats) {
  obs::testing::ScopedRegistryReset reset;
  auto owned = std::make_unique<obs::MemorySink>();
  obs::MemorySink* sink = owned.get();
  obs::set_trace_sink(std::move(owned));

  const sim::SimConfig sim_config = small_cluster();
  sim::Simulator sim(sim_config);
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  sim.run(chain_scenario(), scheduler);
  const std::vector<std::string> lines = sink->lines();
  obs::clear_trace_sink();

  int replan_events = 0;
  bool saw_arrival_cause = false;
  for (const std::string& line : lines) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(obs::parse_flat_json(line, &fields)) << line;
    if (fields.at("type") != "replan") continue;
    ++replan_events;
    ASSERT_TRUE(fields.count("cause"));
    ASSERT_TRUE(fields.count("pivots"));
    ASSERT_TRUE(fields.count("wall_s"));
    EXPECT_GE(std::stod(fields.at("wall_s")), 0.0);
    saw_arrival_cause |=
        fields.at("cause").find("arrival") != std::string::npos;
  }
  EXPECT_EQ(replan_events, scheduler.replans());
  EXPECT_TRUE(saw_arrival_cause);
}

// --- finish_replan's adoption rule -----------------------------------------

std::shared_ptr<const workload::Workflow> one_job_workflow(int id) {
  auto w = std::make_shared<workload::Workflow>();
  w->id = id;
  w->name = "w" + std::to_string(id);
  w->deadline_s = 2000.0;
  w->dag = dag::make_chain(1);
  w->jobs = {simple_job(10, 40.0, 1.0, 2.0)};
  return w;
}

// Slot 0 of `sim_config`'s cluster with the one job of `workflow` (node 0,
// uid 0) active and unstarted.
sim::ClusterState one_job_state(const sim::SimConfig& sim_config,
                                const workload::Workflow& workflow) {
  const double slot_s = sim_config.cluster.slot_seconds;
  sim::ClusterState state;
  state.slot_seconds = slot_s;
  state.capacity = workload::scale(sim_config.cluster.capacity, slot_s);
  sim::JobView view;
  view.uid = 0;
  view.kind = sim::JobKind::kDeadline;
  view.workflow_id = workflow.id;
  view.node = 0;
  view.remaining_estimate = workflow.jobs[0].total_demand();
  view.width = workload::scale(workflow.jobs[0].max_parallel_demand(), slot_s);
  view.container = workload::scale(workflow.jobs[0].task.demand, slot_s);
  state.active = {view};
  return state;
}

// Adopts a first plan, then runs a second cycle by hand with `interfere`
// acting between solve_replan and finish_replan. The interference must make
// finish_replan discard the solve: the attempt is counted and logged, the
// first plan keeps serving, and the planner is dirty again with the
// discarded solve's causes.
void expect_discarded(
    const std::function<void(FlowTimeScheduler&, PlanSolveResult&)>&
        interfere) {
  const sim::SimConfig sim_config = small_cluster();
  const double slot_s = sim_config.cluster.slot_seconds;
  FlowTimeScheduler scheduler(flowtime_config(sim_config));
  const auto workflow = one_job_workflow(0);
  scheduler.on_event(sim::WorkflowArrivalEvent{workflow, {0}, 0.0});
  sim::ClusterState state = one_job_state(sim_config, *workflow);
  scheduler.allocate(state);
  ASSERT_EQ(scheduler.replans(), 1);

  state.slot = 1;
  state.now_s = slot_s;
  scheduler.on_event(sim::CapacityChangeEvent{state.now_s, state.capacity});
  scheduler.sync_views(state);
  const std::vector<sim::Allocation> served = scheduler.serve(state);
  ASSERT_FALSE(served.empty());
  PendingReplan pending = scheduler.begin_replan(state);
  ASSERT_FALSE(scheduler.dirty());
  PlanSolveResult solved = scheduler.solve_replan(pending);
  interfere(scheduler, solved);

  EXPECT_FALSE(
      scheduler.finish_replan(pending, std::move(solved), state.now_s));
  EXPECT_EQ(scheduler.replans(), 1);
  EXPECT_EQ(scheduler.replans_discarded(), 1);
  ASSERT_EQ(scheduler.replan_log().size(), 2u);
  EXPECT_TRUE(scheduler.replan_log().back().discarded);
  EXPECT_TRUE(scheduler.dirty());
  EXPECT_TRUE(has_cause(scheduler.pending_causes(),
                        ReplanCause::kCapacityChange));
  const std::vector<sim::Allocation> still_served = scheduler.serve(state);
  ASSERT_EQ(still_served.size(), served.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(still_served[i].uid, served[i].uid);
    for (int r = 0; r < workload::kNumResources; ++r) {
      EXPECT_DOUBLE_EQ(still_served[i].amount[r], served[i].amount[r]);
    }
  }
}

TEST(FlowTimeScheduler, FinishReplanDiscardsSolveStaledByArrival) {
  const auto late = one_job_workflow(1);
  expect_discarded([&late](FlowTimeScheduler& scheduler, PlanSolveResult&) {
    // A new workflow bumps the epoch: the solve lacks its job.
    scheduler.on_event(sim::WorkflowArrivalEvent{late, {1}, 10.0});
  });
}

TEST(FlowTimeScheduler, FinishReplanDiscardsPreemptedSolve) {
  expect_discarded([](FlowTimeScheduler&, PlanSolveResult& solved) {
    solved.preempted = true;  // what a fired cancel token reports
  });
}

}  // namespace
}  // namespace flowtime::core
