// Tests for the deadline-risk monitor: ok/warn/breach transitions, event
// emission discipline (transitions only), the binary completion verdict,
// gauges, a workflow that moves between planners — and end-to-end through
// FlowTimeScheduler + Simulator, where a workflow with an impossible
// deadline must produce a `breach` deadline_risk event in every run while
// one with ample slack produces none.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "dag/generators.h"
#include "obs/deadline_monitor.h"
#include "obs/metrics.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "workload/trace_gen.h"

namespace flowtime::obs {
namespace {

using workload::ResourceVec;

class DeadlineMonitorTest : public ::testing::Test {
 protected:
  DeadlineMonitorTest() {
    auto sink = std::make_unique<MemorySink>();
    sink_ = sink.get();
    set_trace_sink(std::move(sink));  // also enables the layer
  }

  // All deadline_risk events seen so far, parsed.
  std::vector<std::map<std::string, std::string>> risk_events() const {
    std::vector<std::map<std::string, std::string>> out;
    for (const std::string& line : sink_->lines()) {
      std::map<std::string, std::string> fields;
      EXPECT_TRUE(parse_flat_json(line, &fields)) << line;
      if (fields["type"] == "deadline_risk") out.push_back(std::move(fields));
    }
    return out;
  }

  testing::ScopedRegistryReset reset_;  // must precede the sink install
  MemorySink* sink_ = nullptr;
};

// Job: deadline 100. The monitor warns once laxity drops below a tenth of
// the remaining window (deadline - now):
// at now = 20 that threshold is 8 s.
TEST_F(DeadlineMonitorTest, EmitsEventsOnlyOnLevelTransitions) {
  DeadlineMonitor monitor;
  monitor.track_workflow(7, 0.0, 100.0);
  monitor.track_job(7, 0, 0.0, 100.0, 20.0);
  EXPECT_EQ(monitor.inflight_jobs(), 1);
  EXPECT_EQ(monitor.inflight_workflows(), 1);

  monitor.update_job(7, 0, 10.0, 40.0);  // laxity 60: ok, silent
  EXPECT_TRUE(risk_events().empty());
  EXPECT_EQ(monitor.job_level(7, 0), RiskLevel::kOk);

  monitor.update_job(7, 0, 20.0, 95.0);   // laxity 5 < 8: warn
  monitor.update_job(7, 0, 30.0, 96.0);   // still warn: no new event
  monitor.update_job(7, 0, 40.0, 120.0);  // laxity -20: breach
  monitor.update_job(7, 0, 50.0, 125.0);  // still breach: no new event

  const auto events = risk_events();
  ASSERT_EQ(events.size(), 4u);  // job+workflow warn, job+workflow breach
  EXPECT_EQ(events[0].at("entity"), "job");
  EXPECT_EQ(events[0].at("workflow"), "7");
  EXPECT_EQ(events[0].at("node"), "0");
  EXPECT_EQ(events[0].at("level"), "warn");
  EXPECT_EQ(events[1].at("entity"), "workflow");
  EXPECT_EQ(events[1].at("level"), "warn");
  EXPECT_EQ(events[1].count("node"), 0u);
  EXPECT_EQ(events[2].at("level"), "breach");
  EXPECT_EQ(events[3].at("entity"), "workflow");
  EXPECT_EQ(events[3].at("level"), "breach");
  EXPECT_EQ(monitor.job_level(7, 0), RiskLevel::kBreach);
  EXPECT_EQ(monitor.workflow_level(7), RiskLevel::kBreach);

  EXPECT_EQ(registry().counter("obs.deadline.risk_events").value(), 4);
  EXPECT_EQ(registry().counter("obs.deadline.breaches").value(), 2);
}

TEST_F(DeadlineMonitorTest, RecoveringLaxityTransitionsBackToOk) {
  DeadlineMonitor monitor;
  monitor.track_workflow(1, 0.0, 100.0);
  monitor.track_job(1, 0, 0.0, 100.0, 20.0);
  monitor.update_job(1, 0, 10.0, 95.0);  // warn
  monitor.update_job(1, 0, 20.0, 50.0);  // back to ok after a good replan
  const auto events = risk_events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[2].at("level"), "ok");
  EXPECT_EQ(events[3].at("level"), "ok");
  EXPECT_EQ(monitor.job_level(1, 0), RiskLevel::kOk);
  EXPECT_EQ(monitor.workflow_level(1), RiskLevel::kOk);
}

TEST_F(DeadlineMonitorTest, CompletionVerdictIsBinary) {
  DeadlineMonitor monitor;
  monitor.track_workflow(1, 0.0, 100.0);
  monitor.track_job(1, 0, 0.0, 100.0, 20.0);
  monitor.update_job(1, 0, 20.0, 95.0);   // warn
  monitor.complete_job(1, 0, 90.0);       // made the deadline: final ok
  EXPECT_EQ(monitor.job_level(1, 0), RiskLevel::kOk);
  EXPECT_EQ(monitor.inflight_jobs(), 0);
  EXPECT_EQ(monitor.inflight_workflows(), 0);

  monitor.track_workflow(2, 0.0, 100.0);
  monitor.track_job(2, 0, 0.0, 100.0, 20.0);
  monitor.complete_job(2, 0, 110.0);  // past the deadline: breach
  EXPECT_EQ(monitor.job_level(2, 0), RiskLevel::kBreach);
  const auto events = risk_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().at("level"), "breach");
  EXPECT_EQ(events.back().at("workflow"), "2");
}

TEST_F(DeadlineMonitorTest, AmpleSlackStaysSilentAndGaugesTrack) {
  DeadlineMonitor monitor;
  monitor.track_workflow(3, 0.0, 1000.0);
  monitor.track_job(3, 0, 0.0, 1000.0, 100.0);  // laxity stays far above warn
  monitor.update_job(3, 0, 100.0, 300.0);
  monitor.update_job(3, 0, 500.0, 800.0);  // laxity 200, still ok
  EXPECT_TRUE(risk_events().empty());
  EXPECT_EQ(registry().gauge("obs.deadline.jobs_inflight").value(), 1.0);
  EXPECT_EQ(registry().gauge("obs.deadline.jobs_warn").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry().gauge("obs.deadline.min_laxity_s").value(),
                   200.0);
  monitor.complete_job(3, 0, 810.0);
  EXPECT_TRUE(risk_events().empty());  // on-time completion: still silent
  EXPECT_EQ(registry().gauge("obs.deadline.jobs_inflight").value(), 0.0);
}

// A migration or failover re-delivers the workflow's arrival to the target
// planner, then one completion per finished job, stamped with the move
// time. Registering the workflow again keeps what the monitor knew: the job
// that finished before its milestone is not judged again at the move, and
// the workflow stays in flight while its second job runs.
TEST_F(DeadlineMonitorTest, MovedWorkflowKeepsCompletedVerdicts) {
  core::FlowTimeConfig config;
  config.cluster.capacity = ResourceVec{100.0, 200.0};
  core::FlowTimeScheduler from(config);
  core::FlowTimeScheduler to(config);
  const auto workflow = std::make_shared<const workload::Workflow>(
      test::chain_workflow(0, 0.0, 3000.0));
  const std::vector<sim::JobUid> uids = {0, 1};
  from.on_event(sim::WorkflowArrivalEvent{workflow, uids, 0.0});
  const double milestone =
      from.job_deadlines().at(workload::WorkflowJobRef{0, 0});
  from.on_event(sim::JobCompleteEvent{0, milestone / 2.0});
  ASSERT_EQ(from.forget_workflow(0), 1);

  const double move_s = milestone + 500.0;
  to.on_event(sim::WorkflowArrivalEvent{workflow, uids, move_s});
  to.on_event(sim::JobCompleteEvent{0, move_s});
  EXPECT_TRUE(risk_events().empty());
  EXPECT_EQ(deadline_monitor().job_level(0, 0), RiskLevel::kOk);
  EXPECT_EQ(deadline_monitor().workflow_level(0), RiskLevel::kOk);
  EXPECT_EQ(deadline_monitor().inflight_workflows(), 1);
  EXPECT_EQ(deadline_monitor().inflight_jobs(), 1);
}

// ---------------------------------------------------------------------------
// End-to-end: FlowTimeScheduler + Simulator feeding the process monitor.

// One workflow, one job: 10 tasks x 100 s at 1 cpu -> 1000 core-s of work
// at width 10 cores, so the width-limited minimum runtime is 100 s.
workload::Scenario one_job_scenario(double deadline_s) {
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = deadline_s;
  w.dag = dag::make_chain(1);
  workload::JobSpec job;
  job.name = "j";
  job.num_tasks = 10;
  job.task.runtime_s = 100.0;
  job.task.demand = ResourceVec{1.0, 2.0};
  w.jobs = {job};
  scenario.workflows.push_back(std::move(w));
  return scenario;
}

sim::SimResult run_flowtime(const workload::Scenario& scenario) {
  sim::SimConfig sim_config;
  sim_config.cluster.capacity = ResourceVec{50.0, 100.0};
  sim_config.max_horizon_s = 6000.0;
  core::FlowTimeConfig config;
  config.cluster.capacity = sim_config.cluster.capacity;
  config.cluster.slot_seconds = sim_config.cluster.slot_seconds;
  core::FlowTimeScheduler scheduler(config);
  sim::Simulator sim(sim_config);
  return sim.run(scenario, scheduler);
}

TEST_F(DeadlineMonitorTest, ImpossibleDeadlineBreachesEndToEnd) {
  // Deadline 50 s for 100 s of width-limited work: unmeetable from the
  // start, so the first risk projection already crosses the Stage-1
  // deadline.
  const sim::SimResult result = run_flowtime(one_job_scenario(50.0));
  EXPECT_TRUE(result.all_completed);
  const auto events = risk_events();
  bool job_breach = false, workflow_breach = false;
  for (const auto& event : events) {
    if (event.at("level") != "breach") continue;
    if (event.at("entity") == "job") job_breach = true;
    if (event.at("entity") == "workflow") workflow_breach = true;
  }
  EXPECT_TRUE(job_breach);
  EXPECT_TRUE(workflow_breach);
  EXPECT_GE(registry().counter("obs.deadline.breaches").value(), 1);
}

TEST_F(DeadlineMonitorTest, EverySimulatorRunJudgesItsOwnWorkflows) {
  // The second run registers the same workflow id again. It starts with an
  // empty monitor, so it emits its own breaches instead of inheriting the
  // first run's verdicts.
  const auto breaches = [&](const std::string& entity) {
    int count = 0;
    for (const auto& event : risk_events()) {
      if (event.at("entity") == entity && event.at("level") == "breach") {
        ++count;
      }
    }
    return count;
  };
  run_flowtime(one_job_scenario(50.0));
  const int job_breaches = breaches("job");
  const int workflow_breaches = breaches("workflow");
  EXPECT_GE(job_breaches, 1);
  EXPECT_GE(workflow_breaches, 1);
  run_flowtime(one_job_scenario(50.0));
  EXPECT_EQ(breaches("job"), 2 * job_breaches);
  EXPECT_EQ(breaches("workflow"), 2 * workflow_breaches);
}

TEST_F(DeadlineMonitorTest, AmpleSlackWorkflowEmitsNoRiskEventsEndToEnd) {
  // Deadline 300 s for 100 s of work: the plan (deferred toward the
  // deadline minus slack, per FlowTime) keeps the earliest-feasible
  // projection comfortably above the warn threshold throughout.
  const sim::SimResult result = run_flowtime(one_job_scenario(300.0));
  EXPECT_TRUE(result.all_completed);
  ASSERT_TRUE(result.jobs[0].completion_s.has_value());
  EXPECT_LE(result.jobs[0].completion_s.value(), 300.0);
  EXPECT_TRUE(risk_events().empty());
}

}  // namespace
}  // namespace flowtime::obs
