// Tests for the task-level (non-preemptive) simulator and its relationship
// to the fluid model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "dag/generators.h"
#include "sched/baselines.h"
#include "sim/metrics.h"
#include "sim/task_simulator.h"
#include "test_support.h"

namespace flowtime::sim {
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

workload::Scenario chain_scenario() {
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 2000.0;
  w.dag = dag::make_chain(2);
  w.jobs = {simple_job(4, 30.0, 1.0, 2.0), simple_job(2, 20.0, 1.0, 2.0)};
  scenario.workflows.push_back(std::move(w));
  return scenario;
}

TEST(TaskSimulator, MatchesFluidTimingWhenTasksFitSlots) {
  TaskSimConfig config;
  config.cluster.capacity = ResourceVec{100.0, 200.0};
  TaskLevelSimulator sim(config);
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(chain_scenario(), scheduler);
  ASSERT_TRUE(result.all_completed);
  // Job 0: 4 tasks of 30 s -> 3 slots each, all in parallel -> done at 30.
  EXPECT_DOUBLE_EQ(result.jobs[0].completion_s.value(), 30.0);
  // Job 1: 2 tasks of 20 s -> 2 slots -> done at 50.
  EXPECT_DOUBLE_EQ(result.jobs[1].completion_s.value(), 50.0);
}

TEST(TaskSimulator, TaskWavesWhenClusterIsNarrow) {
  // 4 tasks of 1 core on a 2-core cluster: 2 waves of 3 slots each.
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 2000.0;
  w.dag = dag::make_chain(1);
  w.jobs = {simple_job(4, 30.0, 1.0, 1.0)};
  scenario.workflows.push_back(std::move(w));

  TaskSimConfig config;
  config.cluster.capacity = ResourceVec{2.0, 4.0};
  TaskLevelSimulator sim(config);
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  EXPECT_DOUBLE_EQ(result.jobs[0].completion_s.value(), 60.0);
}

TEST(TaskSimulator, NonPreemption_RunningTasksOutliveShrinkingGrants) {
  // A scheduler that grants everything in slot 0 and nothing afterwards:
  // tasks started in slot 0 still run to completion.
  class OneShotScheduler : public Scheduler {
   public:
    std::string name() const override { return "one-shot"; }
    std::vector<Allocation> allocate(const ClusterState& state) override {
      std::vector<Allocation> out;
      if (state.slot != 0) return out;
      for (const JobView& view : state.active) {
        if (view.ready) out.push_back(Allocation{view.uid, view.width});
      }
      return out;
    }
  };
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 2000.0;
  w.dag = dag::make_chain(1);
  w.jobs = {simple_job(3, 40.0, 1.0, 1.0)};  // 4-slot tasks
  scenario.workflows.push_back(std::move(w));

  TaskSimConfig config;
  config.cluster.capacity = ResourceVec{10.0, 20.0};
  config.max_horizon_s = 600.0;
  TaskLevelSimulator sim(config);
  OneShotScheduler scheduler;
  const SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  EXPECT_DOUBLE_EQ(result.jobs[0].completion_s.value(), 40.0);
  // Occupancy persisted over all four slots despite zero grants after 0.
  for (int t = 0; t < 4; ++t) {
    EXPECT_GT(result.used_per_slot[static_cast<std::size_t>(t)][0], 0.0);
  }
}

TEST(TaskSimulator, RespectsDagPrecedence) {
  TaskSimConfig config;
  config.cluster.capacity = ResourceVec{100.0, 200.0};
  TaskLevelSimulator sim(config);
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(chain_scenario(), scheduler);
  ASSERT_TRUE(result.all_completed);
  EXPECT_GE(result.jobs[1].completion_s.value() -
                result.jobs[0].completion_s.value(),
            20.0 - 1e-9);
}

TEST(TaskSimulator, UnderEstimatedTasksRunLonger) {
  workload::Scenario scenario = chain_scenario();
  scenario.workflows[0].jobs[0].actual_runtime_factor = 2.0;  // 30 -> 60 s
  TaskSimConfig config;
  config.cluster.capacity = ResourceVec{100.0, 200.0};
  TaskLevelSimulator sim(config);
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  EXPECT_DOUBLE_EQ(result.jobs[0].completion_s.value(), 60.0);
}

TEST(TaskSimulator, FlowTimeMeetsDeadlinesAtTaskGranularity) {
  TaskSimConfig config;
  config.cluster.capacity = ResourceVec{50.0, 100.0};
  config.max_horizon_s = 2.0 * 3600.0;
  core::FlowTimeConfig flowtime;
  flowtime.cluster.capacity = config.cluster.capacity;
  flowtime.cluster.slot_seconds = config.cluster.slot_seconds;
  flowtime.round_to_containers = true;  // task grants are container-shaped

  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 2400.0;
  w.dag = dag::make_fork_join(3);
  w.jobs.assign(5, simple_job(8, 50.0, 1.0, 2.0));
  scenario.workflows.push_back(std::move(w));

  TaskLevelSimulator sim(config);
  core::FlowTimeScheduler scheduler(flowtime);
  const SimResult result = sim.run(scenario, scheduler);
  ASSERT_TRUE(result.all_completed);
  const DeadlineReport report = evaluate_deadlines(
      result, scenario.workflows,
      JobDeadlines(scheduler.job_deadlines().begin(),
                   scheduler.job_deadlines().end()));
  EXPECT_EQ(report.jobs_missed, 0);
}

TEST(TaskSimulator, BaselinesCompleteWithAdhocMix) {
  workload::Scenario scenario = chain_scenario();
  workload::AdhocJob adhoc;
  adhoc.id = 0;
  adhoc.arrival_s = 10.0;
  adhoc.spec = simple_job(2, 25.0, 1.0, 1.0);
  adhoc.spec.name = "adhoc";
  scenario.adhoc_jobs.push_back(adhoc);

  TaskSimConfig config;
  config.cluster.capacity = ResourceVec{50.0, 100.0};
  TaskLevelSimulator sim(config);
  sched::FairScheduler fair;
  EXPECT_TRUE(sim.run(scenario, fair).all_completed);
  sched::EdfScheduler edf;
  EXPECT_TRUE(sim.run(scenario, edf).all_completed);
  sched::FifoScheduler fifo;
  EXPECT_TRUE(sim.run(scenario, fifo).all_completed);
}

TEST(TaskSimulator, LiveSetIsArrivedIncompleteJobsInUidOrder) {
  TaskSimConfig config;
  config.cluster.capacity = ResourceVec{100.0, 200.0};
  TaskLevelSimulator sim(config);
  test::LiveSetRecorder scheduler;
  const SimResult result = sim.run(test::out_of_order_scenario(), scheduler);
  ASSERT_TRUE(result.all_completed);
  EXPECT_EQ(scheduler.slots, result.slots_simulated);
}

// Records every arrival the simulator delivers: its kind, uids and time.
class ArrivalRecorder : public FullWidthScheduler {
 public:
  struct Arrival {
    std::string kind;
    std::vector<JobUid> uids;
    double now_s = 0.0;
    bool operator==(const Arrival&) const = default;
  };

  void on_event(const SchedulerEvent& event) override {
    if (const auto* e = std::get_if<WorkflowArrivalEvent>(&event)) {
      arrivals.push_back({"workflow", e->node_uids, e->now_s});
    } else if (const auto* e = std::get_if<AdhocArrivalEvent>(&event)) {
      arrivals.push_back({"adhoc", {e->uid}, e->now_s});
    }
  }

  std::vector<Arrival> arrivals;
};

TEST(TaskSimulator, LaysOutAndReleasesLikeTheFluidSimulator) {
  // Released out of uid order, with two ad-hoc jobs in one slot.
  const workload::Scenario scenario = test::out_of_order_scenario();
  SimConfig fluid_config;
  fluid_config.cluster.capacity = ResourceVec{100.0, 200.0};
  TaskSimConfig task_config;
  task_config.cluster.capacity = fluid_config.cluster.capacity;
  ArrivalRecorder fluid_scheduler;
  ArrivalRecorder task_scheduler;
  const SimResult fluid = Simulator(fluid_config).run(scenario, fluid_scheduler);
  const SimResult task =
      TaskLevelSimulator(task_config).run(scenario, task_scheduler);

  ASSERT_EQ(fluid.jobs.size(), 9u);
  ASSERT_EQ(task.jobs.size(), fluid.jobs.size());
  for (std::size_t i = 0; i < fluid.jobs.size(); ++i) {
    const JobRecord& a = fluid.jobs[i];
    const JobRecord& b = task.jobs[i];
    EXPECT_EQ(a.uid, static_cast<JobUid>(i));
    EXPECT_EQ(b.uid, a.uid);
    EXPECT_EQ(b.kind, a.kind) << "uid " << i;
    EXPECT_EQ(b.name, a.name) << "uid " << i;
    EXPECT_EQ(b.workflow_id, a.workflow_id) << "uid " << i;
    EXPECT_EQ(b.node, a.node) << "uid " << i;
    EXPECT_EQ(b.arrival_s, a.arrival_s) << "uid " << i;
    for (int r = 0; r < workload::kNumResources; ++r) {
      EXPECT_EQ(b.actual_demand[r], a.actual_demand[r]) << "uid " << i;
    }
  }
  // Workflow jobs first, in scenario order, then the ad-hoc jobs.
  EXPECT_EQ(fluid.jobs[1].name, "w0/j#1");
  EXPECT_EQ(fluid.jobs[2].workflow_id, 1);
  EXPECT_EQ(fluid.jobs[4].name, "a0");

  using Arrival = ArrivalRecorder::Arrival;
  const std::vector<Arrival> expected = {
      {"workflow", {2, 3}, 0.0}, {"adhoc", {8}, 0.0},
      {"adhoc", {7}, 20.0},      {"adhoc", {6}, 20.0},
      {"workflow", {0, 1}, 30.0}, {"adhoc", {5}, 30.0},
      {"adhoc", {4}, 50.0}};
  EXPECT_TRUE(fluid_scheduler.arrivals == expected);
  EXPECT_TRUE(task_scheduler.arrivals == fluid_scheduler.arrivals);
}

TEST(TaskSimulator, HorizonExpiryReported) {
  TaskSimConfig config;
  config.cluster.capacity = ResourceVec{100.0, 200.0};
  config.max_horizon_s = 20.0;
  TaskLevelSimulator sim(config);
  FullWidthScheduler scheduler;
  const SimResult result = sim.run(chain_scenario(), scheduler);
  EXPECT_FALSE(result.all_completed);
}

}  // namespace
}  // namespace flowtime::sim
