// Additional FlowTime and baseline behaviours: plan-ahead coarsening,
// strict vs leftover EDF, FIFO submission-order semantics, ready-time
// reporting, and randomized contract property sweeps.
#include <gtest/gtest.h>

#include "core/flowtime_scheduler.h"
#include "dag/generators.h"
#include "sched/baselines.h"
#include "sched/experiment.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace flowtime {
namespace {

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

workload::Scenario chain_scenario(double deadline) {
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

// The planner buckets consecutive slots once a re-plan's horizon passes 360
// slots. These tests reach that with long deadlines on short slots.

TEST(PlanCoarsening, CoarsePlansStillMeetDeadlines) {
  sim::SimConfig sim_config;
  sim_config.cluster.capacity = ResourceVec{50.0, 100.0};
  // 4000 s of 1 s slots: the first re-plan's horizon is about 3,940 slots,
  // so the planner buckets them 11 to a planning slot.
  sim_config.cluster.slot_seconds = 1.0;
  sim_config.max_horizon_s = 3.0 * 3600.0;
  core::FlowTimeConfig config;
  config.cluster.capacity = sim_config.cluster.capacity;
  config.cluster.slot_seconds = sim_config.cluster.slot_seconds;

  const workload::Scenario scenario = chain_scenario(4000.0);
  sim::Simulator sim(sim_config);
  core::FlowTimeScheduler scheduler(config);
  const sim::SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  EXPECT_EQ(result.capacity_violations, 0);
  EXPECT_EQ(result.width_violations, 0);
  const sim::DeadlineReport report = sim::evaluate_deadlines(
      result, scenario.workflows,
      sim::JobDeadlines(scheduler.job_deadlines().begin(),
                        scheduler.job_deadlines().end()));
  EXPECT_EQ(report.jobs_missed, 0);
}

TEST(PlanCoarsening, MatchesFineGrainedOutcomeOnLooseDeadlines) {
  sim::SimConfig sim_config;
  sim_config.cluster.capacity = ResourceVec{50.0, 100.0};
  sim_config.max_horizon_s = 3.0 * 3600.0;
  const workload::Scenario scenario = chain_scenario(6000.0);

  auto run_with = [&](double slot_seconds) {
    sim_config.cluster.slot_seconds = slot_seconds;
    core::FlowTimeConfig config;
    config.cluster.capacity = sim_config.cluster.capacity;
    config.cluster.slot_seconds = sim_config.cluster.slot_seconds;
    sim::Simulator sim(sim_config);
    core::FlowTimeScheduler scheduler(config);
    const sim::SimResult result = sim.run(scenario, scheduler);
    const sim::DeadlineReport report = sim::evaluate_deadlines(
        result, scenario.workflows,
        sim::JobDeadlines(scheduler.job_deadlines().begin(),
                          scheduler.job_deadlines().end()));
    return report.jobs_missed;
  };
  // 6000 s is 300 slots of 20 s (fine grained) or 3,000 slots of 2 s,
  // which the planner buckets 9 to a planning slot (heavily coarsened).
  EXPECT_EQ(run_with(20.0), 0);
  EXPECT_EQ(run_with(2.0), 0);
}

TEST(EdfStrictness, StrictVariantStarvesAdhocLonger) {
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 3000.0;
  w.dag = dag::make_chain(2);
  // Narrow jobs: widths well below the cluster, so the non-strict variant
  // has leftovers for the ad-hoc job while the strict one gives it nothing.
  w.jobs = {simple_job(4, 100.0, 1.0, 1.0), simple_job(4, 100.0, 1.0, 1.0)};
  scenario.workflows.push_back(std::move(w));
  workload::AdhocJob adhoc;
  adhoc.id = 0;
  adhoc.arrival_s = 0.0;
  adhoc.spec = simple_job(4, 50.0, 1.0, 1.0);
  adhoc.spec.name = "adhoc";
  scenario.adhoc_jobs.push_back(adhoc);

  sim::SimConfig sim_config;
  sim_config.cluster.capacity = ResourceVec{20.0, 40.0};
  sim_config.max_horizon_s = 3600.0;

  sim::Simulator sim(sim_config);
  sched::EdfScheduler strict({}, /*strict_adhoc_blocking=*/true);
  const sim::SimResult strict_result = sim.run(scenario, strict);
  sched::EdfScheduler leftover({}, /*strict_adhoc_blocking=*/false);
  const sim::SimResult leftover_result = sim.run(scenario, leftover);

  ASSERT_TRUE(strict_result.all_completed);
  ASSERT_TRUE(leftover_result.all_completed);
  const double strict_turnaround =
      sim::evaluate_adhoc(strict_result).mean_turnaround_s;
  const double leftover_turnaround =
      sim::evaluate_adhoc(leftover_result).mean_turnaround_s;
  EXPECT_GT(strict_turnaround, leftover_turnaround);
  // With leftovers the adhoc job runs immediately (widths don't collide).
  EXPECT_LE(leftover_turnaround, 60.0);
  // Strictly blocked until both deadline jobs are done (2x 200s + adhoc).
  EXPECT_GE(strict_turnaround, 200.0);
}

TEST(FifoSubmissionOrder, ChildrenQueueBehindBacklogAccumulatedMeanwhile) {
  // Parent runs [0,100); during that time an ad-hoc job arrives. The child
  // becomes ready at 100 and must queue behind the ad-hoc job under
  // submission-order FIFO.
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 5000.0;
  w.dag = dag::make_chain(2);
  w.jobs = {simple_job(10, 100.0, 1.0, 1.0), simple_job(10, 100.0, 1.0, 1.0)};
  scenario.workflows.push_back(std::move(w));
  workload::AdhocJob adhoc;
  adhoc.id = 0;
  adhoc.arrival_s = 50.0;
  adhoc.spec = simple_job(10, 100.0, 1.0, 1.0);
  adhoc.spec.name = "adhoc";
  scenario.adhoc_jobs.push_back(adhoc);

  sim::SimConfig sim_config;
  sim_config.cluster.capacity = ResourceVec{10.0, 20.0};  // one job at a time
  sim_config.max_horizon_s = 3600.0;
  sim::Simulator sim(sim_config);
  sched::FifoScheduler scheduler;
  const sim::SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  // Parent [0,100), adhoc [100,200), child [200,300).
  EXPECT_DOUBLE_EQ(result.jobs[0].completion_s.value(), 100.0);
  EXPECT_DOUBLE_EQ(result.jobs[2].completion_s.value(), 200.0);
  EXPECT_DOUBLE_EQ(result.jobs[1].completion_s.value(), 300.0);
}

TEST(ReadySince, ViewReportsFirstRunnableInstant) {
  class Probe : public sim::Scheduler {
   public:
    std::string name() const override { return "probe"; }
    std::vector<sim::Allocation> allocate(
        const sim::ClusterState& state) override {
      std::vector<sim::Allocation> out;
      for (const sim::JobView& view : state.active) {
        if (view.ready) {
          ready_since[view.uid] = view.ready_since_s;
          out.push_back(sim::Allocation{view.uid, view.width});
        }
      }
      return out;
    }
    std::map<sim::JobUid, double> ready_since;
  };

  const workload::Scenario scenario = chain_scenario(5000.0);
  sim::SimConfig sim_config;
  sim_config.cluster.capacity = ResourceVec{50.0, 100.0};
  sim::Simulator sim(sim_config);
  Probe probe;
  const sim::SimResult result = sim.run(scenario, probe);
  ASSERT_TRUE(result.all_completed);
  EXPECT_DOUBLE_EQ(probe.ready_since.at(0), 0.0);
  // Job 1 becomes ready exactly when job 0 completes.
  EXPECT_DOUBLE_EQ(probe.ready_since.at(1),
                   result.jobs[0].completion_s.value());
  EXPECT_DOUBLE_EQ(probe.ready_since.at(2),
                   result.jobs[1].completion_s.value());
}

class SchedulerContractSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SchedulerContractSweep, RandomScenarioViolatesNothing) {
  const auto& [name, seed] = GetParam();
  sched::ExperimentConfig config;
  config.sim.cluster.capacity = ResourceVec{150.0, 320.0};
  config.sim.max_horizon_s = 6.0 * 3600.0;
  config.flowtime.cluster.capacity = config.sim.cluster.capacity;
  config.flowtime.cluster.slot_seconds = config.sim.cluster.slot_seconds;
  config.schedulers = {name};

  workload::Fig4Config fig4;
  fig4.num_workflows = 2;
  fig4.jobs_per_workflow = 9;
  fig4.workflow.cluster.capacity = config.sim.cluster.capacity;
  fig4.adhoc.rate_per_s = 0.03;
  fig4.adhoc.horizon_s = 900.0;
  const workload::Scenario scenario = workload::make_fig4_scenario(
      static_cast<std::uint64_t>(seed), fig4);

  const auto outcomes = sched::run_comparison(scenario, config);
  ASSERT_EQ(outcomes.size(), 1u);
  const auto& outcome = outcomes.front();
  EXPECT_TRUE(outcome.result.all_completed);
  EXPECT_EQ(outcome.result.capacity_violations, 0);
  EXPECT_EQ(outcome.result.width_violations, 0);
  EXPECT_EQ(outcome.result.not_ready_allocations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerContractSweep,
    ::testing::Combine(::testing::Values("FlowTime", "CORA", "EDF", "Fair",
                                         "FIFO", "Morpheus", "Rayon"),
                       ::testing::Values(101, 102)));

}  // namespace
}  // namespace flowtime
