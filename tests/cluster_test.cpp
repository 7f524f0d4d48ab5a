// Federated scheduling tests (DESIGN.md §13): partitioner determinism
// under a seed, the 1-cell pass-through identity against a plain
// FlowTimeScheduler on the Fig. 4 workload, hotspot migration preserving
// re-credited work without stranding tasks, and per-tenant quota
// enforcement with deferred re-routing. The 1-cell serial/pooled and 2-cell
// pooled identities live in identity_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "cluster/federated_scheduler.h"
#include "cluster/partition.h"
#include "core/flowtime_scheduler.h"
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
// Migration

TEST(FederatedScheduler, MigrationDrainsHotspotWithoutStrandingWork) {
  // A heavy and a light workflow land on different cells; with a low
  // overload threshold the heavy cell trips the hotspot test and the
  // coordinator moves its heaviest workflow to the cooler cell. Every task
  // must still run exactly once to completion: migration re-homes the
  // remaining work (forget + forced re-admission), it never loses or
  // duplicates it.
  sim::SimConfig sim_config = small_cluster();
  sim_config.max_horizon_s = 12000.0;

  workload::Scenario scenario;
  workload::Workflow heavy = chain_workflow(0, 0.0, 600.0);
  heavy.jobs = {simple_job(30, 80.0), simple_job(20, 60.0)};
  scenario.workflows.push_back(heavy);
  workload::Workflow light = chain_workflow(1, 0.0, 3600.0);
  light.jobs = {simple_job(2, 20.0), simple_job(2, 20.0)};
  scenario.workflows.push_back(light);

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 2;
  // The lexmin plan spreads heavy's 3600 core-seconds over its 600 s
  // window on a 50-core cell: peak load ~0.12. Light stays well under.
  federated.overload_threshold = 0.05;
  federated.migration_cooldown_slots = 1000;  // at most one move each
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
      "workflow id=0 name=heavy start=0 deadline=600\n"
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
  federated.overload_threshold = 0.05;
  federated.migration_cooldown_slots = 1000;
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
// Per-tenant quotas

TEST(FederatedScheduler, TenantQuotaDefersAndReroutesOnRelease) {
  // Two same-tenant workflows arrive together under a quota that only fits
  // one: the second is deferred (owned by no cell), then re-routed once the
  // first finishes and releases its share. A third workflow of another
  // tenant is never blocked.
  sim::SimConfig sim_config = small_cluster();
  sim_config.max_horizon_s = 12000.0;

  workload::Scenario scenario;
  for (int id = 0; id < 2; ++id) {
    workload::Workflow w = chain_workflow(id, 0.0, 4000.0);
    w.tenant = 1;
    scenario.workflows.push_back(std::move(w));
  }
  workload::Workflow other = chain_workflow(2, 0.0, 4000.0);
  other.tenant = 2;
  scenario.workflows.push_back(std::move(other));

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 2;
  // chain_workflow demands 10*40 + 8*30 = 640 core-seconds over a 4000 s
  // window on 100 cores: share ~0.0016. A quota of 0.002 fits one in
  // flight but not two.
  federated.tenant_quota_fraction = 0.002;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result = sim::Simulator(sim_config).run(scenario, fed);

  EXPECT_GE(fed.quota_deferrals(), 1);
  EXPECT_TRUE(result.all_completed)
      << "deferred workflows must run once the quota frees up";
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completion_s.has_value()) << job.name;
  }
}

TEST(FederatedScheduler, QuotaDisabledByDefault) {
  sim::SimConfig sim_config = small_cluster();
  workload::Scenario scenario = mixed_scenario();
  for (auto& w : scenario.workflows) w.tenant = 1;

  cluster::FederatedConfig federated;
  federated.flowtime = flowtime_config(sim_config);
  federated.partition.cells = 2;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result = sim::Simulator(sim_config).run(scenario, fed);

  EXPECT_EQ(fed.quota_deferrals(), 0);
  EXPECT_TRUE(result.all_completed);
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
