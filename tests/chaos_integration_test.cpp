// Chaos integration: faults injected into full simulations and the
// scheduler's recovery behavior — capacity-change re-plans, task retries,
// deadline renegotiation, breach reporting, and run determinism.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/flowtime_scheduler.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/scenario_io.h"

namespace flowtime {
namespace {

using workload::kCpu;
using workload::ResourceVec;

// One 40-task deadline job plus an ad-hoc probe on a 100-core cluster.
// Deadline 600 s against a 100 s minimum runtime: enough slack that
// FlowTime defers work, keeping the job alive when mid-run faults land.
constexpr const char* kBaseScenario = R"(
cluster cores=100 mem_gb=256 slot_seconds=10

workflow id=0 name=wf start=0 deadline=600
job node=0 name=crunch tasks=40 runtime=100 cores=1 mem=2
end

adhoc id=0 arrival=30 tasks=4 runtime=30 cores=1 mem=1
)";

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

bool any_replan_with(const core::FlowTimeScheduler& scheduler,
                     core::ReplanCause cause) {
  for (const core::ReplanRecord& record : scheduler.replan_log()) {
    if (core::has_cause(record.causes, cause)) return true;
  }
  return false;
}

TEST(ChaosIntegration, CapacityDropTriggersReplanAndRunStaysClean) {
  auto parsed = parse(std::string(kBaseScenario) +
                      "fault seed=1\n"
                      "fault_machine down=20 up=40 cores=50 mem_gb=128\n");
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeScheduler scheduler(flowtime_config(config));
  sim::Simulator simulator(config);
  const sim::SimResult result = simulator.run(parsed.scenario, scheduler);

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.capacity_violations, 0);
  EXPECT_EQ(result.width_violations, 0);
  EXPECT_EQ(result.not_ready_allocations, 0);
  EXPECT_EQ(result.faults.machine_downs, 1);
  EXPECT_EQ(result.faults.machine_ups, 1);
  EXPECT_EQ(result.faults.capacity_changes, 2);
  EXPECT_TRUE(any_replan_with(scheduler, core::ReplanCause::kCapacityChange))
      << "the capacity drop must trigger a tagged re-plan";
}

TEST(ChaosIntegration, TaskFailureRetriesAndReplans) {
  auto parsed = parse(std::string(kBaseScenario) +
                      "fault seed=1\n"
                      "fault_task workflow=0 node=0 slot=15 lose=1 "
                      "backoff=2\n");
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeScheduler scheduler(flowtime_config(config));
  sim::Simulator simulator(config);
  const sim::SimResult result = simulator.run(parsed.scenario, scheduler);

  EXPECT_TRUE(result.all_completed) << "the retry must eventually finish";
  EXPECT_EQ(result.faults.task_failures, 1);
  EXPECT_EQ(result.faults.task_retries, 1);
  EXPECT_EQ(result.not_ready_allocations, 0)
      << "FlowTime must withhold allocations during the backoff";
  EXPECT_TRUE(any_replan_with(scheduler, core::ReplanCause::kTaskFailure));
}

TEST(ChaosIntegration, AdhocJobInFaultBackoffGetsNoGrant) {
  // The ad-hoc job arrives in slot 3, fails in slot 4 and sits out three
  // slots. Like every baseline, FlowTime must leave it out of the leftover
  // split meanwhile instead of granting capacity the simulator discards.
  auto parsed = parse(std::string(kBaseScenario) +
                      "fault seed=1\n"
                      "fault_task workflow=-1 node=0 slot=4 lose=1 "
                      "backoff=3\n");
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeScheduler scheduler(flowtime_config(config));
  sim::Simulator simulator(config);
  const sim::SimResult result = simulator.run(parsed.scenario, scheduler);

  EXPECT_EQ(result.faults.task_failures, 1);
  EXPECT_EQ(result.faults.task_retries, 1);
  EXPECT_TRUE(result.all_completed);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completion_s.has_value()) << job.name;
  }
  EXPECT_EQ(result.not_ready_allocations, 0)
      << "an ad-hoc job in its fault backoff must get no grant";
}

TEST(ChaosIntegration, StragglerSurfacesAsOverrun) {
  auto parsed = parse(std::string(kBaseScenario) +
                      "fault seed=1\n"
                      "fault_straggler workflow=0 node=0 slot=15 "
                      "factor=3\n");
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeScheduler scheduler(flowtime_config(config));
  sim::Simulator simulator(config);
  const sim::SimResult result = simulator.run(parsed.scenario, scheduler);

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.faults.stragglers, 1);
  // 3x the remaining ground truth exhausts the estimate before the job
  // finishes, which FlowTime notices as an overrun re-plan.
  EXPECT_TRUE(any_replan_with(scheduler, core::ReplanCause::kOverrun));
}

TEST(ChaosIntegration, OutOfHorizonPlanMatchesEmptyPlanExactly) {
  auto baseline = parse(kBaseScenario);
  ASSERT_TRUE(baseline.fault_plan.empty());
  // Active plan whose only fault sits far past the run's end: the fault
  // path executes every slot but perturbs nothing.
  auto inert = parse(std::string(kBaseScenario) +
                     "fault seed=9\n"
                     "fault_machine down=100000 cores=10 mem_gb=16\n");

  const sim::SimConfig base_config = sim_config(baseline);
  core::FlowTimeScheduler base_sched(flowtime_config(base_config));
  const sim::SimResult base =
      sim::Simulator(base_config).run(baseline.scenario, base_sched);

  const sim::SimConfig inert_config = sim_config(inert);
  core::FlowTimeScheduler inert_sched(flowtime_config(inert_config));
  const sim::SimResult chaos =
      sim::Simulator(inert_config).run(inert.scenario, inert_sched);

  ASSERT_EQ(base.jobs.size(), chaos.jobs.size());
  for (std::size_t i = 0; i < base.jobs.size(); ++i) {
    EXPECT_EQ(base.jobs[i].completion_s, chaos.jobs[i].completion_s);
  }
  ASSERT_EQ(base.used_per_slot.size(), chaos.used_per_slot.size());
  for (std::size_t t = 0; t < base.used_per_slot.size(); ++t) {
    EXPECT_EQ(base.used_per_slot[t], chaos.used_per_slot[t])
        << "slot " << t;
  }
  EXPECT_EQ(chaos.faults.machine_downs, 0);
  EXPECT_EQ(chaos.faults.capacity_changes, 0);
}

TEST(ChaosIntegration, FixedSeedRunsAreBitIdentical) {
  const std::string text = std::string(kBaseScenario) +
                           "fault seed=42\n"
                           "fault_hazard prob=0.01 lose=0.5 backoff=2 "
                           "retries=3\n"
                           "fault_noise model=lognormal sigma=0.2 bias=1\n";
  auto run_once = [&]() {
    auto parsed = parse(text);
    const sim::SimConfig config = sim_config(parsed);
    core::FlowTimeScheduler scheduler(flowtime_config(config));
    return sim::Simulator(config).run(parsed.scenario, scheduler);
  };
  const sim::SimResult a = run_once();
  const sim::SimResult b = run_once();

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].completion_s, b.jobs[i].completion_s);
    EXPECT_EQ(a.jobs[i].actual_demand, b.jobs[i].actual_demand);
  }
  ASSERT_EQ(a.used_per_slot.size(), b.used_per_slot.size());
  for (std::size_t t = 0; t < a.used_per_slot.size(); ++t) {
    EXPECT_EQ(a.used_per_slot[t], b.used_per_slot[t]);
  }
  EXPECT_EQ(a.faults.task_failures, b.faults.task_failures);
  EXPECT_EQ(a.faults.task_retries, b.faults.task_retries);
  EXPECT_EQ(a.faults.noised_jobs, b.faults.noised_jobs);

  // A different seed must change the noise draws (and almost surely the
  // hazard pattern) — the seed is not decorative.
  auto other = parse(text);
  other.fault_plan.seed = 43;
  sim::SimConfig other_config = sim_config(other);
  core::FlowTimeScheduler other_sched(flowtime_config(other_config));
  const sim::SimResult c =
      sim::Simulator(other_config).run(other.scenario, other_sched);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].actual_demand != c.jobs[i].actual_demand) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChaosIntegration, CripplingFaultBreachesExactlyOnceAndRenegotiates) {
  obs::testing::ScopedRegistryReset reset;
  auto* sink = new obs::MemorySink();
  obs::set_trace_sink(std::unique_ptr<obs::TraceSink>(sink));

  // Deadline 300 s on a 100 s-minimum job; losing everything at slot 5
  // with a 40-slot backoff makes the deadline unmeetable (retry at ~450 s).
  auto parsed = parse(
      "cluster cores=100 mem_gb=256 slot_seconds=10\n"
      "workflow id=0 name=wf start=0 deadline=300\n"
      "job node=0 name=crunch tasks=20 runtime=100 cores=1 mem=2\n"
      "end\n"
      "fault seed=1\n"
      "fault_task workflow=0 node=0 slot=5 lose=1 backoff=40\n");
  const sim::SimConfig config = sim_config(parsed);
  core::FlowTimeScheduler scheduler(flowtime_config(config));
  sim::Simulator simulator(config);
  const sim::SimResult result = simulator.run(parsed.scenario, scheduler);

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.faults.task_failures, 1);
  EXPECT_EQ(result.faults.task_retries, 1);
  // The fault killed the decomposed window: the scheduler renegotiated via
  // the critical-path fallback instead of going infeasible.
  EXPECT_GE(scheduler.fault_redecompositions(), 1);

  int workflow_breaches = 0;
  int job_breaches = 0;
  std::map<std::string, int> fault_span_begins;
  std::map<std::string, int> span_ends;
  for (const std::string& line : sink->lines()) {
    std::map<std::string, std::string> record;
    ASSERT_TRUE(obs::parse_flat_json(line, &record)) << line;
    const std::string type = record["type"];
    if (type == "deadline_risk" && record["level"] == "breach") {
      if (record["entity"] == "workflow") ++workflow_breaches;
      if (record["entity"] == "job") ++job_breaches;
    } else if (type == "span_begin" && record["kind"] == "fault") {
      ++fault_span_begins[record["span"]];
    } else if (type == "span_end") {
      ++span_ends[record["span"]];
    }
  }
  EXPECT_EQ(workflow_breaches, 1)
      << "the monitor reports a breach on the transition, exactly once";
  EXPECT_EQ(job_breaches, 1);
  EXPECT_FALSE(fault_span_begins.empty());
  for (const auto& [span, begins] : fault_span_begins) {
    EXPECT_EQ(begins, 1);
    EXPECT_EQ(span_ends[span], 1)
        << "fault span " << span << " must pair injection with recovery";
  }
}

}  // namespace
}  // namespace flowtime
