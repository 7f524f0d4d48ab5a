// Shared test helpers: the small scenarios the runtime, federation and
// failover suites run, the schedule-identity check behind the
// replan-driver identity tests, and the sorted level vector the flow
// lexmin is compared on. The live-set check serves both simulator suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "core/lp_formulation.h"
#include "dag/generators.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace flowtime::test {

/// One resource's normalized slot loads, sorted in decreasing order: the
/// lexmin level vector, whichever solver produced the plan.
inline std::vector<double> sorted_loads(const core::LpSchedule& s, int r) {
  std::vector<double> loads;
  for (const workload::ResourceVec& load : s.normalized_load) {
    loads.push_back(load[r]);
  }
  std::sort(loads.rbegin(), loads.rend());
  return loads;
}

/// How many times `needle` occurs in `text` (counting captured log lines).
inline int occurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

inline sim::SimConfig small_cluster() {
  sim::SimConfig config;
  config.cluster.capacity = workload::ResourceVec{100.0, 200.0};
  config.max_horizon_s = 6000.0;
  return config;
}

/// A FlowTime config planning against `sim_config`'s cluster.
inline core::FlowTimeConfig flowtime_config(const sim::SimConfig& sim_config) {
  core::FlowTimeConfig config;
  config.cluster.capacity = sim_config.cluster.capacity;
  config.cluster.slot_seconds = sim_config.cluster.slot_seconds;
  return config;
}

inline workload::JobSpec simple_job(int tasks, double runtime) {
  workload::JobSpec job;
  job.name = "j";
  job.num_tasks = tasks;
  job.task.runtime_s = runtime;
  job.task.demand = workload::ResourceVec{1.0, 2.0};
  return job;
}

inline workload::Workflow chain_workflow(int id, double start_s,
                                         double deadline_s) {
  workload::Workflow w;
  w.id = id;
  w.name = "w" + std::to_string(id);
  w.start_s = start_s;
  w.deadline_s = deadline_s;
  w.dag = dag::make_chain(2);
  w.jobs = {simple_job(10, 40.0), simple_job(8, 30.0)};
  return w;
}

/// Two simultaneous workflow arrivals (one drained batch under the async
/// runtime, spread across cells when federated), a later one, and an
/// ad-hoc job.
inline workload::Scenario mixed_scenario() {
  workload::Scenario scenario;
  scenario.workflows.push_back(chain_workflow(0, 0.0, 2400.0));
  scenario.workflows.push_back(chain_workflow(1, 0.0, 3000.0));
  scenario.workflows.push_back(chain_workflow(2, 300.0, 3600.0));
  workload::AdhocJob adhoc_job;
  adhoc_job.id = 0;
  adhoc_job.arrival_s = 100.0;
  adhoc_job.spec = simple_job(4, 20.0);
  adhoc_job.spec.name = "adhoc";
  scenario.adhoc_jobs.push_back(std::move(adhoc_job));
  return scenario;
}

/// Everything that must agree between two runs for them to count as "the
/// same schedule": completions, per-slot grants, and the re-plan history of
/// the two planners (`sched_b` must never have discarded a solve).
inline void expect_identical_runs(const sim::SimResult& a,
                                  const sim::SimResult& b,
                                  const core::FlowTimeScheduler& sched_a,
                                  const core::FlowTimeScheduler& sched_b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_EQ(a.jobs[i].completion_s.has_value(),
              b.jobs[i].completion_s.has_value())
        << "job " << i;
    if (a.jobs[i].completion_s) {
      EXPECT_DOUBLE_EQ(*a.jobs[i].completion_s, *b.jobs[i].completion_s)
          << "job " << i;
    }
  }
  ASSERT_EQ(a.allocated_per_slot.size(), b.allocated_per_slot.size());
  for (std::size_t t = 0; t < a.allocated_per_slot.size(); ++t) {
    for (int r = 0; r < workload::kNumResources; ++r) {
      EXPECT_DOUBLE_EQ(a.allocated_per_slot[t][r],
                       b.allocated_per_slot[t][r])
          << "slot " << t;
    }
  }
  EXPECT_EQ(sched_a.replans(), sched_b.replans());
  EXPECT_EQ(sched_a.replans_discarded(), sched_b.replans_discarded());
  EXPECT_EQ(sched_a.total_pivots(), sched_b.total_pivots());
  const auto& log_a = sched_a.replan_log();
  const auto& log_b = sched_b.replan_log();
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].slot, log_b[i].slot) << "replan " << i;
    EXPECT_EQ(log_a[i].causes, log_b[i].causes) << "replan " << i;
    EXPECT_EQ(log_a[i].planned_jobs, log_b[i].planned_jobs) << "replan " << i;
    EXPECT_EQ(log_a[i].pivots, log_b[i].pivots) << "replan " << i;
    EXPECT_EQ(log_a[i].degrade_rung, log_b[i].degrade_rung) << "replan " << i;
    EXPECT_FALSE(log_b[i].discarded) << "replan " << i;
  }
}

/// Releases out of uid order. Workflow 0 (uids 0-1) starts at 30 s, after
/// workflow 1 (uids 2-3) at 0 s. The ad-hoc jobs (uids 4-8) are listed in
/// decreasing arrival time, and uids 7 and 6 arrive in the same slot.
/// Every job runs 4-5 slots at full width on a 100-core cluster.
inline workload::Scenario out_of_order_scenario() {
  workload::Scenario scenario;
  scenario.workflows.push_back(chain_workflow(0, 30.0, 3000.0));
  scenario.workflows.push_back(chain_workflow(1, 0.0, 3000.0));
  for (workload::Workflow& w : scenario.workflows) {
    w.jobs = {simple_job(2, 50.0), simple_job(2, 50.0)};
  }
  const double arrivals[] = {45.0, 25.0, 12.0, 11.0, 0.0};
  for (int i = 0; i < 5; ++i) {
    workload::AdhocJob job;
    job.id = i;
    job.arrival_s = arrivals[i];
    job.spec = simple_job(2, 40.0);
    job.spec.name = "a" + std::to_string(i);
    scenario.adhoc_jobs.push_back(std::move(job));
  }
  return scenario;
}

/// Grants every ready job its full width. At every allocate() it checks
/// that ClusterState::active is exactly the jobs the events have released
/// and not yet completed, in strictly increasing uid order. It also records
/// the uids of each instant's TaskFailureEvents, in delivery order.
class LiveSetRecorder : public sim::Scheduler {
 public:
  std::string name() const override { return "live-set-recorder"; }

  void on_event(const sim::SchedulerEvent& event) override {
    if (const auto* e = std::get_if<sim::WorkflowArrivalEvent>(&event)) {
      live_.insert(e->node_uids.begin(), e->node_uids.end());
    } else if (const auto* e = std::get_if<sim::AdhocArrivalEvent>(&event)) {
      live_.insert(e->uid);
    } else if (const auto* e = std::get_if<sim::JobCompleteEvent>(&event)) {
      EXPECT_EQ(live_.erase(e->uid), 1u) << "uid " << e->uid;
    } else if (const auto* e = std::get_if<sim::TaskFailureEvent>(&event)) {
      failures[e->now_s].push_back(e->uid);
    }
  }

  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override {
    std::vector<sim::JobUid> active;
    std::vector<sim::Allocation> out;
    for (const sim::JobView& view : state.active) {
      active.push_back(view.uid);
      if (view.ready) out.push_back(sim::Allocation{view.uid, view.width});
    }
    const std::vector<sim::JobUid> expected(live_.begin(), live_.end());
    EXPECT_EQ(active, expected) << "slot " << state.slot;
    ++slots;
    return out;
  }

  int slots = 0;
  std::map<double, std::vector<sim::JobUid>> failures;

 private:
  std::set<sim::JobUid> live_;
};

}  // namespace flowtime::test
