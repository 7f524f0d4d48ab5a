// Federated scheduling tests (DESIGN.md §13): partitioner determinism
// under a seed, the 1-cell pass-through identity against a plain
// FlowTimeScheduler on the Fig. 4 workload, routing through the cells'
// admission controllers and the candidates they cache, and hotspot
// migration preserving re-credited work without stranding tasks. The
// 1-cell identity against the other replan drivers lives in
// identity_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/federated_scheduler.h"
#include "cluster/partition.h"
#include "core/flowtime_scheduler.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "sched/experiment.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "workload/scenario_io.h"

namespace flowtime {
namespace {

using workload::ResourceVec;

// ---------------------------------------------------------------------------
// CellPartitioner

workload::ClusterSpec cluster_of(double cores, double mem,
                                 double slot_seconds = 10.0) {
  workload::ClusterSpec spec;
  spec.capacity = ResourceVec{cores, mem};
  spec.slot_seconds = slot_seconds;
  return spec;
}

double fraction_sum(const std::vector<cluster::CellSpec>& cells) {
  double sum = 0.0;
  for (const auto& cell : cells) sum += cell.fraction;
  return sum;
}

TEST(CellPartitioner, BalancedSplitsEvenly) {
  cluster::PartitionConfig config;
  config.cells = 4;
  config.policy = cluster::CellPolicy::kCapacityBalanced;
  const auto cells =
      cluster::CellPartitioner(config).partition(cluster_of(500.0, 1024.0));

  ASSERT_EQ(cells.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cells[static_cast<std::size_t>(i)].id, i);
    EXPECT_DOUBLE_EQ(cells[static_cast<std::size_t>(i)].fraction, 0.25);
    EXPECT_DOUBLE_EQ(
        cells[static_cast<std::size_t>(i)].cluster.capacity[workload::kCpu],
        125.0);
    EXPECT_DOUBLE_EQ(cells[static_cast<std::size_t>(i)]
                         .cluster.capacity[workload::kMemory],
                     256.0);
    EXPECT_DOUBLE_EQ(cells[static_cast<std::size_t>(i)].cluster.slot_seconds,
                     10.0);
  }
  EXPECT_DOUBLE_EQ(fraction_sum(cells), 1.0);
}

TEST(CellPartitioner, RoundRobinIsDeterministicUnderSeed) {
  // 10 machines into 4 cells: two cells get 3 granules, two get 2. The
  // seed decides which — the same seed must always pick the same cells.
  const workload::ClusterSpec total = cluster_of(10.0, 64.0);
  cluster::PartitionConfig config;
  config.cells = 4;
  config.policy = cluster::CellPolicy::kRoundRobin;

  std::set<std::string> layouts;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    config.seed = seed;
    const auto a = cluster::CellPartitioner(config).partition(total);
    const auto b = cluster::CellPartitioner(config).partition(total);
    ASSERT_EQ(a.size(), 4u);
    std::string layout;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].fraction, b[i].fraction) << "seed " << seed;
      const bool big = a[i].fraction > 0.25;
      EXPECT_NEAR(a[i].fraction, big ? 0.3 : 0.2, 1e-12);
      layout += big ? 'B' : 's';
    }
    EXPECT_DOUBLE_EQ(fraction_sum(a), 1.0) << "seed " << seed;
    layouts.insert(layout);
  }
  EXPECT_GT(layouts.size(), 1u)
      << "different seeds should shuffle the remainder differently";
}

TEST(CellPartitioner, ParsePolicyNames) {
  cluster::CellPolicy policy = cluster::CellPolicy::kCapacityBalanced;
  EXPECT_TRUE(cluster::parse_cell_policy("round_robin", &policy));
  EXPECT_EQ(policy, cluster::CellPolicy::kRoundRobin);
  EXPECT_TRUE(cluster::parse_cell_policy("balanced", &policy));
  EXPECT_EQ(policy, cluster::CellPolicy::kCapacityBalanced);
  EXPECT_FALSE(cluster::parse_cell_policy("hashring", &policy));
  EXPECT_EQ(policy, cluster::CellPolicy::kCapacityBalanced) << "untouched";
}

// ---------------------------------------------------------------------------
// Scenario helpers

using test::chain_workflow;
using test::flowtime_config;
using test::mixed_scenario;
using test::simple_job;
using test::small_cluster;

// ---------------------------------------------------------------------------
// 1-cell pass-through identity

TEST(FederatedScheduler, OneCellMatchesPlainOnFig4Workload) {
  // The paper's §VII-B.1 testbed workload (5 workflows x 18 jobs + an
  // ad-hoc stream): the 1-cell federation must reproduce the unsharded
  // schedule on it exactly.
  sim::SimConfig sim_config;
  sim_config.cluster.capacity = ResourceVec{500.0, 1024.0};
  sim_config.max_horizon_s = 24.0 * 3600.0;
  const workload::Scenario scenario = workload::make_fig4_scenario(7);

  core::FlowTimeScheduler bare(flowtime_config(sim_config));
  const sim::SimResult bare_result =
      sim::Simulator(sim_config).run(scenario, bare);

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 1;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult fed_result =
      sim::Simulator(sim_config).run(scenario, fed);

  test::expect_identical_runs(bare_result, fed_result, bare,
                              fed.cell(0).scheduler());
}

// ---------------------------------------------------------------------------
// Multi-cell runs

TEST(FederatedScheduler, TwoCellsPartitionWorkAndComplete) {
  const sim::SimConfig sim_config = small_cluster();
  const workload::Scenario scenario = mixed_scenario();

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 2;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result = sim::Simulator(sim_config).run(scenario, fed);

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.capacity_violations, 0);
  EXPECT_EQ(result.width_violations, 0);
  EXPECT_EQ(result.not_ready_allocations, 0);
  // The simultaneous arrivals spread across both cells (bin-packing by
  // projected load, not everything onto cell 0), so both cells plan work.
  EXPECT_GT(fed.cell(0).scheduler().replans(), 0);
  EXPECT_GT(fed.cell(1).scheduler().replans(), 0);
  EXPECT_EQ(fed.replans(), fed.cell(0).scheduler().replans() +
                               fed.cell(1).scheduler().replans());
}

// ---------------------------------------------------------------------------
// Routing through the cells' admission controllers

void arrive(cluster::FederatedScheduler& fed, const workload::Workflow& w) {
  std::vector<sim::JobUid> uids(w.jobs.size());
  for (std::size_t node = 0; node < uids.size(); ++node) {
    uids[node] = static_cast<sim::JobUid>(node);
  }
  fed.on_event(sim::SchedulerEvent{sim::WorkflowArrivalEvent{
      std::make_shared<const workload::Workflow>(w), uids, w.start_s}});
}

TEST(FederatedScheduler, PlacementDoesNotReEvaluate) {
  // Routing computes one verdict per cell; committing the workflow to the
  // chosen cell's admission ledger computes none.
  obs::testing::ScopedRegistryReset reset;
  obs::set_trace_sink(std::make_unique<obs::MemorySink>());
  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(small_cluster());
  federated.partition.cells = 4;
  cluster::FederatedScheduler fed(federated);
  arrive(fed, chain_workflow(0, 0.0, 2400.0));

  EXPECT_EQ(obs::registry().counter("core.admission.evaluations").value(), 4);
  int ledgers = 0;
  for (int i = 0; i < fed.num_cells(); ++i) {
    ledgers += fed.cell(i).admission.admitted_workflows();
  }
  EXPECT_EQ(ledgers, 1);
}

TEST(FederatedScheduler, AllRejectFallbackSkipsCellThatCannotDecompose) {
  // Three one-core machines dealt round-robin to two cells: one cell gets
  // two cores, the other one. A 1.5-core task cannot run on the one-core
  // cell at all, so its decomposition fails there; four of them (600
  // core-seconds before t = 200 s) overload the two-core cell 1.5x. Every
  // cell rejects, and the fallback must be the overloaded cell, not the
  // one that cannot even decompose the workflow.
  cluster::FederatedConfig federated;
  federated.flowtime.cluster.capacity = ResourceVec{3.0, 6.0};
  federated.partition.cells = 2;
  federated.partition.policy = cluster::CellPolicy::kRoundRobin;
  cluster::FederatedScheduler fed(federated);
  const int big = fed.cell(0).spec.fraction > 0.5 ? 0 : 1;
  ASSERT_NEAR(fed.cell(big).spec.cluster.capacity[workload::kCpu], 2.0,
              1e-9);

  workload::Workflow w = chain_workflow(0, 0.0, 200.0);
  w.dag = dag::make_chain(1);
  w.jobs = {simple_job(4, 100.0)};
  w.jobs[0].task.demand = ResourceVec{1.5, 1.0};
  const core::AdmissionDecision on_big =
      fed.cell(big).admission.evaluate(w, 0.0);
  ASSERT_FALSE(on_big.admitted);
  ASSERT_NEAR(on_big.peak_load, 1.5, 1e-6);

  arrive(fed, w);
  EXPECT_EQ(fed.cell(big).admission.admitted_workflows(), 1);
  EXPECT_EQ(fed.cell(1 - big).admission.admitted_workflows(), 0);
}

// ---------------------------------------------------------------------------
// Cached candidates: each cell decomposes a live workflow once

void expect_same_verdict(const core::AdmissionDecision& got,
                         const core::AdmissionDecision& expected) {
  EXPECT_EQ(got.admitted, expected.admitted);
  EXPECT_EQ(got.peak_load, expected.peak_load);
  EXPECT_EQ(got.reason, expected.reason);
}

TEST(FederatedScheduler, CachedCandidatesGiveAFreshControllersVerdict) {
  // Routing decomposes the workflow once per cell and keeps the candidate.
  // A crash rebuilds a cell, and the decomposition depends on the cell's
  // capacity, so after either the cell's verdict must be the one a
  // controller built at that capacity gives.
  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(small_cluster());
  federated.partition.cells = 2;
  cluster::FederatedScheduler fed(federated);
  const workload::Workflow w = chain_workflow(0, 0.0, 2400.0);
  arrive(fed, w);
  const int owner = fed.cell(0).admission.admitted_workflows() == 1 ? 0 : 1;
  const int other = 1 - owner;
  ASSERT_EQ(fed.cell(owner).candidates.count(w.id), 1u);

  // The verdict on `w` of a controller on cell `cell`'s slot grid with an
  // empty ledger and the cell's slice of `capacity`, the cluster's
  // per-slot resource-seconds as a broadcast carries them.
  const auto fresh_verdict = [&](int cell, const ResourceVec& capacity,
                                 double now_s) {
    const cluster::CellSpec& spec = fed.cell(cell).spec;
    core::AdmissionConfig config;
    config.cluster = spec.cluster;
    config.cluster.capacity = workload::scale(
        capacity, spec.fraction / spec.cluster.slot_seconds);
    return core::AdmissionController(config).evaluate(w, now_s);
  };

  // The owner crashes before any capacity broadcast: it is rebuilt empty,
  // cache included, and w fails over to the other cell.
  sim::CellFaultEvent crash;
  crash.cell = owner;
  crash.now_s = 60.0;
  crash.mode = fault::CellFaultMode::kCrash;
  crash.active = true;
  fed.on_event(sim::SchedulerEvent{crash});
  EXPECT_TRUE(fed.cell(owner).candidates.empty());
  ASSERT_EQ(fed.cell(other).admission.admitted_workflows(), 1);
  ASSERT_EQ(fed.cell(owner).admission.admitted_workflows(), 0);
  const ResourceVec full = workload::scale(
      federated.flowtime.cluster.capacity,
      federated.flowtime.cluster.slot_seconds);
  expect_same_verdict(fed.verdict(owner, w.id, 60.0),
                      fresh_verdict(owner, full, 60.0));

  // 8 cores in all, 4 a cell: w's first job runs in three waves instead of
  // one, so its decomposed window moves and with it the peak load.
  sim::CapacityChangeEvent shrink;
  shrink.now_s = 70.0;
  shrink.capacity = workload::scale(ResourceVec{8.0, 16.0}, 10.0);
  fed.on_event(sim::SchedulerEvent{shrink});
  expect_same_verdict(fed.verdict(owner, w.id, 70.0),
                      fresh_verdict(owner, shrink.capacity, 70.0));
}

TEST(FederatedScheduler, FinishedWorkflowLeavesNoCachedCandidate) {
  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(small_cluster());
  federated.partition.cells = 2;
  cluster::FederatedScheduler fed(federated);
  const workload::Workflow w = chain_workflow(0, 0.0, 2400.0);
  arrive(fed, w);
  // Routing asked both cells, so both hold the candidate until w's last
  // job completes.
  fed.on_event(sim::SchedulerEvent{sim::JobCompleteEvent{0, 100.0}});
  for (int i = 0; i < fed.num_cells(); ++i) {
    EXPECT_EQ(fed.cell(i).candidates.count(w.id), 1u) << "cell " << i;
  }
  fed.on_event(sim::SchedulerEvent{sim::JobCompleteEvent{1, 200.0}});
  for (int i = 0; i < fed.num_cells(); ++i) {
    EXPECT_TRUE(fed.cell(i).candidates.empty()) << "cell " << i;
  }
}

// ---------------------------------------------------------------------------
// Migration
//
// A cell is a hotspot when its planner is degraded, its last plan peaks
// above 1.2, or its last plan had to extend a deadline window. The heavy
// workflow below needs 8 slots of its first job's width for 2400
// core-seconds, but a 200 s deadline less the 60 s slack leaves that job a
// window of a few slots: every cell that holds it extends the window.

constexpr double kHotspotDeadline = 200.0;

TEST(FederatedScheduler, MigrationDrainsHotspotWithoutStrandingWork) {
  // A heavy and a light workflow land on different cells. The heavy one's
  // deadline is too tight for its cell — its plan extends a window — so
  // the cell is a hotspot and the coordinator moves the workflow to the
  // cooler cell. Every task must still run exactly once to completion:
  // migration re-homes the remaining work (forget + forced re-admission),
  // it never loses or duplicates it.
  sim::SimConfig sim_config = small_cluster();
  sim_config.max_horizon_s = 12000.0;

  workload::Scenario scenario;
  workload::Workflow heavy = chain_workflow(0, 0.0, kHotspotDeadline);
  heavy.jobs = {simple_job(30, 80.0), simple_job(20, 60.0)};
  scenario.workflows.push_back(heavy);
  workload::Workflow light = chain_workflow(1, 0.0, 3600.0);
  light.jobs = {simple_job(2, 20.0), simple_job(2, 20.0)};
  scenario.workflows.push_back(light);

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 2;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result = sim::Simulator(sim_config).run(scenario, fed);

  EXPECT_GE(fed.migrations(), 1);
  EXPECT_GE(fed.overload_events(), 1);
  EXPECT_TRUE(result.all_completed) << "migration must not strand any task";
  EXPECT_EQ(result.capacity_violations, 0);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completion_s.has_value()) << job.name;
  }
}

TEST(FederatedScheduler, MigrationPreservesRecreditedWorkUnderTaskFaults) {
  // A task fault re-credits lost work onto the workflow's remaining
  // estimate. The federated split hands each cell the simulator's
  // authoritative views, so a workflow that migrates after a fault carries
  // the re-credited remainder with it — the run still finishes every task.
  workload::ParseError error;
  const auto parsed = workload::parse_scenario(
      "cluster cores=100 mem_gb=200 slot_seconds=10\n"
      "workflow id=0 name=heavy start=0 deadline=200\n"
      "job node=0 name=crunch tasks=30 runtime=80 cores=1 mem=2\n"
      "job node=1 name=pack tasks=20 runtime=60 cores=1 mem=2\n"
      "edge 0 1\n"
      "end\n"
      "workflow id=1 name=light start=0 deadline=3600\n"
      "job node=0 name=a tasks=2 runtime=20 cores=1 mem=2\n"
      "job node=1 name=b tasks=2 runtime=20 cores=1 mem=2\n"
      "edge 0 1\n"
      "end\n"
      "fault seed=7\n"
      "fault_task workflow=0 node=0 slot=2 lose=0.5 backoff=1\n",
      &error);
  ASSERT_TRUE(parsed) << error.message;

  sim::SimConfig sim_config;
  sim_config.cluster.capacity = parsed->cluster->capacity;
  sim_config.cluster.slot_seconds = parsed->cluster->slot_seconds;
  sim_config.max_horizon_s = 12000.0;
  sim_config.fault_plan = parsed->fault_plan;

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 2;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(parsed->scenario, fed);

  EXPECT_GE(result.faults.task_failures, 1);
  EXPECT_GE(fed.migrations(), 1);
  EXPECT_TRUE(result.all_completed)
      << "re-credited work must survive the migration";
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completion_s.has_value()) << job.name;
  }
}

// ---------------------------------------------------------------------------
// Experiment-harness wiring (the flowtime_sim --cells path)

TEST(ExperimentHarness, CellsFlagBuildsFederation) {
  sched::ExperimentConfig config;
  config.sim.cluster.capacity = ResourceVec{100.0, 200.0};
  config.sim.max_horizon_s = 6000.0;
  config.flowtime.cluster = config.sim.cluster;
  config.schedulers = {"FlowTime"};
  config.cells = 2;
  config.cell_policy = "balanced";

  const auto outcomes = sched::run_comparison(mixed_scenario(), config);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].result.all_completed);
  EXPECT_GT(outcomes[0].replans, 0);
  EXPECT_GT(outcomes[0].pivots, 0);
}

}  // namespace
}  // namespace flowtime
