// Cell fault-tolerance tests (DESIGN.md §14): the fault_cell chaos family
// driving the coordinator's health state machine — crash quarantine +
// workflow failover, hang heartbeat escalation, flap determinism, solver
// circuit breaker, probe re-admission — plus the invariants that no
// workflow is ever stranded or duplicated and that fault-free runs leave
// the machinery idle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/federated_scheduler.h"
#include "core/flowtime_scheduler.h"
#include "fault/plan.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "workload/scenario_io.h"

namespace flowtime {
namespace {

using workload::ResourceVec;

// ---------------------------------------------------------------------------
// Scenario helpers

using test::chain_workflow;
using test::flowtime_config;
using test::simple_job;
using test::small_cluster;

// Enough simultaneous arrivals that least-load routing puts work on every
// cell of a 4-cell federation, so killing any one cell hits live workflows.
workload::Scenario spread_scenario(int workflows, int adhocs = 0) {
  workload::Scenario scenario;
  for (int id = 0; id < workflows; ++id) {
    scenario.workflows.push_back(
        chain_workflow(id, 0.0, 3000.0 + 200.0 * id));
  }
  for (int id = 0; id < adhocs; ++id) {
    workload::AdhocJob adhoc_job;
    adhoc_job.id = id;
    adhoc_job.arrival_s = 50.0 + 10.0 * id;
    adhoc_job.spec = simple_job(4, 20.0);
    adhoc_job.spec.name = "adhoc" + std::to_string(id);
    scenario.adhoc_jobs.push_back(std::move(adhoc_job));
  }
  return scenario;
}

fault::CellFault cell_fault(int cell, fault::CellFaultMode mode, int slot,
                            int until_slot = -1) {
  fault::CellFault fault;
  fault.cell = cell;
  fault.mode = mode;
  fault.slot = slot;
  fault.until_slot = until_slot;
  return fault;
}

void expect_no_stranded_or_duplicated_work(
    const sim::SimResult& result, const cluster::FederatedScheduler& fed) {
  EXPECT_TRUE(result.all_completed);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completion_s.has_value()) << job.name;
  }
  EXPECT_EQ(fed.pending_failover(), 0)
      << "evacuated workflows must drain once a cell is routable";
  EXPECT_EQ(result.capacity_violations, 0)
      << "duplicated work would over-allocate the surviving cells";
}

// ---------------------------------------------------------------------------
// Crash: instant quarantine, state-lost failover, probe re-admission

TEST(Failover, CrashedCellFailsOverWithoutStrandingWork) {
  const sim::SimConfig base = small_cluster();
  sim::SimConfig sim_config = base;
  sim_config.fault_plan.seed = 5;
  sim_config.fault_plan.cell_faults.push_back(
      cell_fault(1, fault::CellFaultMode::kCrash, 4, 60));

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 4;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(spread_scenario(8, 4), fed);

  EXPECT_GE(result.faults.cell_faults, 1);
  EXPECT_GE(fed.cell_failures(), 1);
  EXPECT_GE(fed.quarantines(), 1) << "a crash quarantines immediately";
  EXPECT_GE(fed.failovers(), 1)
      << "cell 1 owned live workflows when it died";
  expect_no_stranded_or_duplicated_work(result, fed);

  // The fault window ends at slot 60; a probe must have re-admitted the
  // cell well before the 600-slot horizon.
  EXPECT_GE(fed.cell_recoveries(), 1);
  ASSERT_GE(fed.outage_log().size(), 1u);
  const auto& outage = fed.outage_log().front();
  EXPECT_EQ(outage.cell, 1);
  EXPECT_GT(outage.recovered_slot, outage.failed_slot);
  EXPECT_EQ(fed.cell(1).health(), cluster::CellHealth::kHealthy);
}

TEST(Failover, PermanentCellLossCompletesOnSurvivors) {
  sim::SimConfig sim_config = small_cluster();
  sim_config.fault_plan.seed = 5;
  sim_config.fault_plan.cell_faults.push_back(
      cell_fault(2, fault::CellFaultMode::kCrash, 5));  // never recovers

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 4;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(spread_scenario(8), fed);

  EXPECT_GE(fed.quarantines(), 1);
  EXPECT_EQ(fed.cell_recoveries(), 0) << "the cell never comes back";
  expect_no_stranded_or_duplicated_work(result, fed);
  ASSERT_GE(fed.outage_log().size(), 1u);
  EXPECT_EQ(fed.outage_log().front().recovered_slot, -1)
      << "the outage stays open";
  EXPECT_EQ(fed.cell(2).health(), cluster::CellHealth::kQuarantined);
}

// ---------------------------------------------------------------------------
// Hang: heartbeat escalation through the circuit breaker

TEST(Failover, HungCellEscalatesThroughHeartbeatBreaker) {
  sim::SimConfig sim_config = small_cluster();
  sim_config.fault_plan.seed = 5;
  sim_config.fault_plan.cell_faults.push_back(
      cell_fault(0, fault::CellFaultMode::kHang, 6, 40));

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 4;
  // Default quarantine_after_failures = 3: the hang must survive three
  // missed heartbeats before the breaker trips (a timeout is ambiguous,
  // a dead connection is not).
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(spread_scenario(8), fed);

  EXPECT_GE(fed.cell_failures(), 1);
  EXPECT_GE(fed.quarantines(), 1)
      << "three missed heartbeats must trip the breaker";
  EXPECT_GE(fed.failovers(), 1);
  EXPECT_GE(fed.cell_recoveries(), 1);
  expect_no_stranded_or_duplicated_work(result, fed);
  ASSERT_GE(fed.outage_log().size(), 1u);
  // Heartbeat escalation means quarantine lags the hang by K slots.
  EXPECT_GE(fed.outage_log().front().failed_slot, 6 + 2);
  EXPECT_EQ(fed.cell(0).health(), cluster::CellHealth::kHealthy);
}

// ---------------------------------------------------------------------------
// Solver fault: preempted solves trip the breaker, the cell keeps serving

TEST(Failover, SolverFaultTripsCircuitBreaker) {
  sim::SimConfig sim_config = small_cluster();
  sim_config.max_horizon_s = 12000.0;
  sim_config.fault_plan.seed = 5;
  sim_config.fault_plan.cell_faults.push_back(
      cell_fault(0, fault::CellFaultMode::kSolverFail, 2, 30));
  sim_config.fault_plan.cell_faults.push_back(
      cell_fault(1, fault::CellFaultMode::kSolverFail, 2, 30));

  // Arrivals inside the fault window are the replan triggers: the lexmin
  // plan spreads the early work, so the first job completions land after
  // the fault lifts.
  workload::Scenario scenario;
  scenario.workflows.push_back(chain_workflow(0, 0.0, 3000.0));
  scenario.workflows.push_back(chain_workflow(1, 0.0, 3200.0));
  scenario.workflows.push_back(chain_workflow(2, 100.0, 3400.0));
  scenario.workflows.push_back(chain_workflow(3, 150.0, 3600.0));

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 2;
  // One preempted solve is enough here: each cell sees only a couple of
  // replan triggers while its solver is broken.
  federated.quarantine_after_failures = 1;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result = sim::Simulator(sim_config).run(scenario, fed);

  EXPECT_GE(fed.quarantines(), 1)
      << "a preempted solve must count as a failure";
  EXPECT_GE(fed.failovers(), 1);
  EXPECT_GE(fed.cell_recoveries(), 1) << "the fault lifts at slot 30";
  expect_no_stranded_or_duplicated_work(result, fed);
}

// ---------------------------------------------------------------------------
// Flap: repeated crash/recovery cycles, bit-deterministic under a seed

TEST(Failover, FlappingCellRunIsDeterministic) {
  sim::SimConfig sim_config = small_cluster();
  sim_config.fault_plan.seed = 21;
  fault::CellFault flap = cell_fault(1, fault::CellFaultMode::kFlap, 4, 80);
  flap.period_slots = 6;
  flap.jitter = 0.3;
  sim_config.fault_plan.cell_faults.push_back(flap);

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 4;

  cluster::FederatedScheduler fed_a(federated);
  const sim::SimResult a =
      sim::Simulator(sim_config).run(spread_scenario(8), fed_a);
  cluster::FederatedScheduler fed_b(federated);
  const sim::SimResult b =
      sim::Simulator(sim_config).run(spread_scenario(8), fed_b);

  EXPECT_GE(fed_a.quarantines(), 2) << "a flap should trip more than once";
  expect_no_stranded_or_duplicated_work(a, fed_a);
  expect_no_stranded_or_duplicated_work(b, fed_b);

  // Same seed, same flap phases, same failovers: bit-identical runs.
  EXPECT_EQ(fed_a.quarantines(), fed_b.quarantines());
  EXPECT_EQ(fed_a.failovers(), fed_b.failovers());
  EXPECT_EQ(fed_a.cell_recoveries(), fed_b.cell_recoveries());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_TRUE(a.jobs[i].completion_s.has_value());
    ASSERT_TRUE(b.jobs[i].completion_s.has_value());
    EXPECT_DOUBLE_EQ(*a.jobs[i].completion_s, *b.jobs[i].completion_s)
        << "job " << i;
  }
  ASSERT_EQ(a.allocated_per_slot.size(), b.allocated_per_slot.size());
  for (std::size_t t = 0; t < a.allocated_per_slot.size(); ++t) {
    for (int r = 0; r < workload::kNumResources; ++r) {
      EXPECT_DOUBLE_EQ(a.allocated_per_slot[t][r],
                       b.allocated_per_slot[t][r])
          << "slot " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash concurrent with machine churn: the rebuilt cell replays the last
// capacity broadcast, so its fresh admission ledger tracks the shrunk
// cluster instead of assuming full capacity.

TEST(Failover, CrashDuringMachineChurnStillCompletes) {
  sim::SimConfig sim_config = small_cluster();
  sim_config.fault_plan.seed = 5;
  sim_config.fault_plan.machines.push_back(
      fault::MachineFault{3, 50, ResourceVec{30.0, 60.0}});
  sim_config.fault_plan.cell_faults.push_back(
      cell_fault(1, fault::CellFaultMode::kCrash, 6, 60));

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 4;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(spread_scenario(8), fed);

  EXPECT_GE(result.faults.machine_downs, 1);
  EXPECT_GE(fed.quarantines(), 1);
  EXPECT_TRUE(result.all_completed);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completion_s.has_value()) << job.name;
  }
  EXPECT_EQ(fed.pending_failover(), 0);
}

// ---------------------------------------------------------------------------
// Quotas across failover: an evacuated workflow keeps its tenant share
// claimed while parked, and releases it exactly once on completion, so
// deferred same-tenant work still unblocks.

TEST(Failover, QuotaSurvivesFailoverAndReleasesOnCompletion) {
  sim::SimConfig sim_config = small_cluster();
  sim_config.max_horizon_s = 16000.0;
  sim_config.fault_plan.seed = 5;
  // Hit both cells at different times: wherever the active workflow lives,
  // at least one crash lands on it mid-flight.
  sim_config.fault_plan.cell_faults.push_back(
      cell_fault(0, fault::CellFaultMode::kCrash, 3, 40));
  sim_config.fault_plan.cell_faults.push_back(
      cell_fault(1, fault::CellFaultMode::kCrash, 60, 100));

  workload::Scenario scenario;
  for (int id = 0; id < 2; ++id) {
    workload::Workflow w = chain_workflow(id, 0.0, 4000.0);
    w.tenant = 1;
    scenario.workflows.push_back(std::move(w));
  }

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 2;
  // chain_workflow claims ~0.0016 of the cluster over its window; 0.002
  // fits one in flight but not two (same constant as cluster_test).
  federated.tenant_quota_fraction = 0.002;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result = sim::Simulator(sim_config).run(scenario, fed);

  EXPECT_GE(fed.quota_deferrals(), 1);
  EXPECT_GE(fed.failovers(), 1);
  expect_no_stranded_or_duplicated_work(result, fed);
}

// ---------------------------------------------------------------------------
// One cell, total outage: arrivals park in the failover queue (owned by no
// cell) and drain after the probe re-admits — never dropped.

TEST(Failover, SingleCellParksArrivalsUntilRecovery) {
  sim::SimConfig sim_config = small_cluster();
  sim_config.fault_plan.seed = 5;
  sim_config.fault_plan.cell_faults.push_back(
      cell_fault(0, fault::CellFaultMode::kCrash, 2, 20));

  workload::Scenario scenario;
  scenario.workflows.push_back(chain_workflow(0, 0.0, 2400.0));
  // Arrives at slot 5, mid-outage: no routable cell exists.
  scenario.workflows.push_back(chain_workflow(1, 50.0, 3000.0));

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 1;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result = sim::Simulator(sim_config).run(scenario, fed);

  EXPECT_GE(fed.quarantines(), 1);
  EXPECT_GE(fed.cell_recoveries(), 1);
  EXPECT_GE(fed.failovers(), 1)
      << "parked workflows count as failovers when they finally place";
  expect_no_stranded_or_duplicated_work(result, fed);
}

// ---------------------------------------------------------------------------
// No faults: the machinery must be provably idle (the byte-identity of the
// 1-cell pass-through is pinned separately in cluster_test).

TEST(Failover, NoCellFaultsLeaveMachineryIdle) {
  const sim::SimConfig sim_config = small_cluster();

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 4;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(spread_scenario(8, 2), fed);

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(fed.cell_failures(), 0);
  EXPECT_EQ(fed.quarantines(), 0);
  EXPECT_EQ(fed.failovers(), 0);
  EXPECT_EQ(fed.cell_recoveries(), 0);
  EXPECT_EQ(fed.pending_failover(), 0);
  EXPECT_TRUE(fed.outage_log().empty());
  for (int c = 0; c < fed.num_cells(); ++c) {
    EXPECT_EQ(fed.cell(c).health(), cluster::CellHealth::kHealthy);
  }
}

// ---------------------------------------------------------------------------
// End-to-end through scenario_io: the fault_cell directive drives the same
// path as the programmatic plan.

TEST(Failover, ScenarioFileFaultCellDirectiveDrivesFailover) {
  workload::ParseError error;
  const auto parsed = workload::parse_scenario(
      "cluster cores=100 mem_gb=200 slot_seconds=10\n"
      "workflow id=0 name=a start=0 deadline=2600\n"
      "job node=0 name=x tasks=10 runtime=40 cores=1 mem=2\n"
      "job node=1 name=y tasks=8 runtime=30 cores=1 mem=2\n"
      "edge 0 1\n"
      "end\n"
      "workflow id=1 name=b start=0 deadline=3000\n"
      "job node=0 name=x tasks=10 runtime=40 cores=1 mem=2\n"
      "job node=1 name=y tasks=8 runtime=30 cores=1 mem=2\n"
      "edge 0 1\n"
      "end\n"
      "fault seed=9\n"
      "fault_cell cell=0 mode=crash slot=4 until=50\n",
      &error);
  ASSERT_TRUE(parsed) << error.message;

  sim::SimConfig sim_config;
  sim_config.cluster.capacity = parsed->cluster->capacity;
  sim_config.cluster.slot_seconds = parsed->cluster->slot_seconds;
  sim_config.max_horizon_s = 6000.0;
  sim_config.fault_plan = parsed->fault_plan;

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 2;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(parsed->scenario, fed);

  EXPECT_GE(fed.cell_failures(), 1);
  EXPECT_GE(fed.quarantines(), 1);
  expect_no_stranded_or_duplicated_work(result, fed);
}

}  // namespace
}  // namespace flowtime
