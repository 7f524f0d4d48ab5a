// Shared test helpers: the small scenarios the runtime, federation and
// failover suites run, the schedule-identity check behind the
// replan-driver identity tests, and the sorted level vector the flow
// lexmin is compared on.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "core/lp_formulation.h"
#include "dag/generators.h"
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

}  // namespace flowtime::test
