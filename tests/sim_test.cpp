// Tests for the cluster simulator: arrival/completion events, precedence
// enforcement, capacity/width clamping, estimation overruns and metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "dag/generators.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace flowtime::sim {
namespace {

using workload::kCpu;
using workload::kMemory;
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

// Grants every ready active job its full width (no capacity awareness — used
// to probe the simulator's clamping when oversubscribed).
class FullWidthScheduler : public Scheduler {
 public:
  std::string name() const override { return "full-width"; }
  std::vector<Allocation> allocate(const ClusterState& state) override {
    std::vector<Allocation> out;
    for (const JobView& view : state.active) {
      if (view.ready) out.push_back(Allocation{view.uid, view.width});
    }
    return out;
  }
};

// Deliberately violates the contract to verify the simulator's defenses.
class MisbehavingScheduler : public Scheduler {
 public:
  enum class Mode { kOverWidth, kNotReady, kBogusUid };
  explicit MisbehavingScheduler(Mode mode) : mode_(mode) {}
  std::string name() const override { return "misbehaving"; }
  std::vector<Allocation> allocate(const ClusterState& state) override {
    std::vector<Allocation> out;
    for (const JobView& view : state.active) {
      switch (mode_) {
        case Mode::kOverWidth:
          if (view.ready) {
            out.push_back(
                Allocation{view.uid, workload::scale(view.width, 3.0)});
          }
          break;
        case Mode::kNotReady:
          out.push_back(Allocation{view.uid, view.width});
          break;
        case Mode::kBogusUid:
          out.push_back(Allocation{99999, view.width});
          if (view.ready) out.push_back(Allocation{view.uid, view.width});
          break;
      }
    }
    return out;
  }

 private:
  Mode mode_;
};

// Never allocates anything.
class IdleScheduler : public Scheduler {
 public:
  std::string name() const override { return "idle"; }
  std::vector<Allocation> allocate(const ClusterState&) override {
    return {};
  }
};

// Records the event stream for assertions.
class RecordingScheduler : public FullWidthScheduler {
 public:
  void on_event(const SchedulerEvent& event) override {
    if (const auto* e = std::get_if<WorkflowArrivalEvent>(&event)) {
      workflow_arrivals.emplace_back(e->workflow->id, e->now_s);
      uids_per_workflow.push_back(e->node_uids);
    } else if (const auto* e = std::get_if<AdhocArrivalEvent>(&event)) {
      adhoc_arrivals.emplace_back(e->uid, e->now_s);
      widths.push_back(e->width);
    } else if (const auto* e = std::get_if<JobCompleteEvent>(&event)) {
      completions.emplace_back(e->uid, e->now_s);
    }
  }

  std::vector<std::pair<int, double>> workflow_arrivals;
  std::vector<std::vector<JobUid>> uids_per_workflow;
  std::vector<std::pair<JobUid, double>> adhoc_arrivals;
  std::vector<ResourceVec> widths;
  std::vector<std::pair<JobUid, double>> completions;
};

workload::Scenario single_chain_scenario() {
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 500.0;
  w.dag = dag::make_chain(2);
  w.jobs = {simple_job(4, 30.0, 1.0, 2.0), simple_job(2, 20.0, 1.0, 2.0)};
  scenario.workflows.push_back(std::move(w));
  return scenario;
}

TEST(Simulator, RunsChainToCompletionRespectingPrecedence) {
  SimConfig config;
  config.cluster.capacity = ResourceVec{100.0, 200.0};
  Simulator sim(config);
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(single_chain_scenario(), scheduler);
  ASSERT_TRUE(result.all_completed);
  ASSERT_EQ(result.jobs.size(), 2u);
  // Job 0: 4 tasks x 30 s at width 4 cores -> 120 core-s / 40 per slot = 3
  // slots -> completes at 30 s.
  EXPECT_DOUBLE_EQ(result.jobs[0].completion_s.value(), 30.0);
  // Job 1 starts only after job 0: 2x20=40 core-s / 20 per slot = 2 slots.
  EXPECT_DOUBLE_EQ(result.jobs[1].completion_s.value(), 50.0);
  EXPECT_EQ(result.capacity_violations, 0);
  EXPECT_EQ(result.width_violations, 0);
  EXPECT_EQ(result.not_ready_allocations, 0);
}

TEST(Simulator, EventStreamIsCompleteAndOrdered) {
  workload::Scenario scenario = single_chain_scenario();
  workload::AdhocJob adhoc;
  adhoc.id = 0;
  adhoc.arrival_s = 15.0;
  adhoc.spec = simple_job(2, 10.0, 1.0, 1.0);
  adhoc.spec.name = "adhoc";
  scenario.adhoc_jobs.push_back(adhoc);

  Simulator sim(SimConfig{});
  RecordingScheduler scheduler;
  const SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  ASSERT_EQ(scheduler.workflow_arrivals.size(), 1u);
  EXPECT_EQ(scheduler.workflow_arrivals[0].first, 0);
  EXPECT_DOUBLE_EQ(scheduler.workflow_arrivals[0].second, 0.0);
  ASSERT_EQ(scheduler.uids_per_workflow[0].size(), 2u);
  ASSERT_EQ(scheduler.adhoc_arrivals.size(), 1u);
  // Arrival at 15 s is released at the start of slot 2 (20 s).
  EXPECT_DOUBLE_EQ(scheduler.adhoc_arrivals[0].second, 20.0);
  EXPECT_EQ(scheduler.completions.size(), 3u);
  for (std::size_t i = 1; i < scheduler.completions.size(); ++i) {
    EXPECT_LE(scheduler.completions[i - 1].second,
              scheduler.completions[i].second);
  }
}

TEST(Simulator, ClampsOverWidthAllocations) {
  SimConfig config;
  config.cluster.capacity = ResourceVec{1000.0, 2000.0};
  Simulator sim(config);
  MisbehavingScheduler scheduler(MisbehavingScheduler::Mode::kOverWidth);
  const SimResult result = sim.run(single_chain_scenario(), scheduler);
  EXPECT_GT(result.width_violations, 0);
  ASSERT_TRUE(result.all_completed);
  // Despite asking for 3x width, delivery was clamped: job 0 still needs 3
  // slots.
  EXPECT_DOUBLE_EQ(result.jobs[0].completion_s.value(), 30.0);
}

TEST(Simulator, WastesNotReadyAllocations) {
  Simulator sim(SimConfig{});
  MisbehavingScheduler scheduler(MisbehavingScheduler::Mode::kNotReady);
  const SimResult result = sim.run(single_chain_scenario(), scheduler);
  EXPECT_GT(result.not_ready_allocations, 0);
  ASSERT_TRUE(result.all_completed);
  // Child never progressed while the parent ran.
  EXPECT_DOUBLE_EQ(result.jobs[1].completion_s.value(), 50.0);
}

TEST(Simulator, IgnoresBogusUids) {
  Simulator sim(SimConfig{});
  MisbehavingScheduler scheduler(MisbehavingScheduler::Mode::kBogusUid);
  const SimResult result = sim.run(single_chain_scenario(), scheduler);
  ASSERT_TRUE(result.all_completed);
}

TEST(Simulator, ScalesDownWhenCapacityExceeded) {
  // Two independent 1-job workflows, each of width 60 cores, on a 100-core
  // cluster: full-width grants (120) must be scaled to fit.
  workload::Scenario scenario;
  for (int i = 0; i < 2; ++i) {
    workload::Workflow w;
    w.id = i;
    w.name = "w" + std::to_string(i);
    w.start_s = 0.0;
    w.deadline_s = 500.0;
    w.dag = dag::make_chain(1);
    w.jobs = {simple_job(60, 30.0, 1.0, 1.0)};
    scenario.workflows.push_back(std::move(w));
  }
  SimConfig config;
  config.cluster.capacity = ResourceVec{100.0, 1000.0};
  Simulator sim(config);
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(scenario, scheduler);
  EXPECT_GT(result.capacity_violations, 0);
  ASSERT_TRUE(result.all_completed);
  for (const auto& used : result.used_per_slot) {
    EXPECT_LE(used[kCpu], 100.0 * 10.0 + 1e-6);
  }
}

TEST(Simulator, HorizonExpiryLeavesJobsIncomplete) {
  SimConfig config;
  config.max_horizon_s = 20.0;  // too short for the chain
  Simulator sim(config);
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(single_chain_scenario(), scheduler);
  EXPECT_FALSE(result.all_completed);
  EXPECT_FALSE(result.jobs[1].completion_s.has_value());
}

TEST(Simulator, IdleSchedulerMakesNoProgress) {
  SimConfig config;
  config.max_horizon_s = 100.0;
  Simulator sim(config);
  IdleScheduler scheduler;
  const SimResult result = sim.run(single_chain_scenario(), scheduler);
  EXPECT_FALSE(result.all_completed);
  for (const auto& used : result.used_per_slot) {
    EXPECT_TRUE(workload::is_zero(used));
  }
}

TEST(Simulator, UnderEstimatedJobRunsLongerAndFlagsOverrun) {
  workload::Scenario scenario = single_chain_scenario();
  scenario.workflows[0].jobs[0].actual_runtime_factor = 2.0;
  Simulator sim(SimConfig{});
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  // 240 core-s at 40/slot -> 6 slots instead of 3.
  EXPECT_DOUBLE_EQ(result.jobs[0].completion_s.value(), 60.0);
}

TEST(Simulator, CapacityOverridesApply) {
  SimConfig config;
  config.cluster.capacity = ResourceVec{100.0, 200.0};
  config.capacity_overrides = {{0, ResourceVec{0.0, 0.0}}};  // slot 0 dark
  Simulator sim(config);
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(single_chain_scenario(), scheduler);
  ASSERT_TRUE(result.all_completed);
  // Everything shifted one slot.
  EXPECT_DOUBLE_EQ(result.jobs[0].completion_s.value(), 40.0);
}

TEST(Metrics, DeadlineEvaluation) {
  Simulator sim(SimConfig{});
  FullWidthScheduler scheduler;
  const workload::Scenario scenario = single_chain_scenario();
  const SimResult result = sim.run(scenario, scheduler);

  JobDeadlines deadlines;
  deadlines[workload::WorkflowJobRef{0, 0}] = 25.0;  // missed (done at 30)
  deadlines[workload::WorkflowJobRef{0, 1}] = 60.0;  // met (done at 50)
  const DeadlineReport report =
      evaluate_deadlines(result, scenario.workflows, deadlines);
  EXPECT_EQ(report.jobs_missed, 1);
  ASSERT_EQ(report.jobs.size(), 2u);
  ASSERT_EQ(report.workflows.size(), 1u);
  EXPECT_FALSE(report.workflows[0].missed);  // deadline 500, done 50
  EXPECT_DOUBLE_EQ(report.workflows[0].completion_s.value(), 50.0);
  const auto deltas = report.job_deltas();
  EXPECT_EQ(deltas.size(), 2u);
}

TEST(Metrics, UnfinishedJobsCountAsMissed) {
  SimConfig config;
  config.max_horizon_s = 20.0;
  Simulator sim(config);
  FullWidthScheduler scheduler;
  const workload::Scenario scenario = single_chain_scenario();
  const SimResult result = sim.run(scenario, scheduler);
  JobDeadlines deadlines;
  deadlines[workload::WorkflowJobRef{0, 1}] = 100.0;
  const DeadlineReport report =
      evaluate_deadlines(result, scenario.workflows, deadlines);
  EXPECT_EQ(report.jobs_missed, 1);
  EXPECT_EQ(report.workflows_missed, 1);
}

TEST(Metrics, AdhocTurnaroundStats) {
  workload::Scenario scenario;
  for (int i = 0; i < 3; ++i) {
    workload::AdhocJob job;
    job.id = i;
    job.arrival_s = i * 10.0;
    job.spec = simple_job(2, 10.0, 1.0, 1.0);
    job.spec.name = "a" + std::to_string(i);
    scenario.adhoc_jobs.push_back(job);
  }
  Simulator sim(SimConfig{});
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(scenario, scheduler);
  const AdhocReport report = evaluate_adhoc(result);
  EXPECT_EQ(report.total, 3);
  EXPECT_EQ(report.completed, 3);
  EXPECT_GT(report.mean_turnaround_s, 0.0);
  EXPECT_GE(report.p95_turnaround_s, report.p50_turnaround_s);
  EXPECT_GE(report.max_turnaround_s, report.p95_turnaround_s);
}

TEST(Metrics, UtilizationReflectsDeliveredWork) {
  Simulator sim(SimConfig{});
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(single_chain_scenario(), scheduler);
  const ResourceVec util = mean_utilization(
      result, workload::scale(ResourceVec{500.0, 1024.0}, 10.0));
  EXPECT_GT(util[kCpu], 0.0);
  EXPECT_LE(util[kCpu], 1.0);
}

}  // namespace
}  // namespace flowtime::sim
