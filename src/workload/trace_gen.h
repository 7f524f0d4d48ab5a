// Workload and trace generation.
//
// Substitutes for the paper's Huawei production traces and testbed runs
// (§VII-A): recurring deadline-aware workflows with loose deadlines (their
// trace example: a 24 h deadline on a ~2 h workflow) sharing the cluster
// with a Poisson stream of small ad-hoc jobs. All randomness flows from the
// caller's seed.
#pragma once

#include <vector>

#include "util/rng.h"
#include "workload/job.h"
#include "workload/workflow.h"

namespace flowtime::workload {

/// A complete simulation scenario.
struct Scenario {
  std::vector<Workflow> workflows;
  std::vector<AdhocJob> adhoc_jobs;
};

struct WorkflowGenConfig {
  int num_jobs = 18;
  /// Deadline = start + looseness x min makespan; the paper's traces have
  /// looseness around 12 (24 h deadline, ~2 h runtime); the testbed
  /// experiment uses tighter values so baselines can actually miss.
  double looseness_min = 2.5;
  double looseness_max = 4.0;
  /// Cluster model used to compute the minimum makespan for deadline
  /// setting (only the capacity matters here).
  ClusterSpec cluster;
  /// Multiplies every sampled job's task count: the paper's testbed rounds
  /// process >1 TB per round, i.e. jobs several times larger than the base
  /// profile table.
  int task_multiplier = 1;
};

/// Generates one workflow whose DAG shape is drawn from the scientific
/// families (fork-join, epigenomics-, montage-, cybershake-like, random
/// layered) sized to exactly `config.num_jobs` jobs.
Workflow make_workflow(util::Rng& rng, int id, double start_s,
                       const WorkflowGenConfig& config);

struct AdhocGenConfig {
  double rate_per_s = 0.05;  // Poisson arrival rate
  double horizon_s = 3600.0; // arrivals occur in [0, horizon)
  int min_tasks = 4;
  int max_tasks = 20;
  double min_task_runtime_s = 10.0;
  double max_task_runtime_s = 40.0;
  ResourceVec task_demand{1.0, 2.0};
};

/// Poisson stream of small best-effort jobs.
std::vector<AdhocJob> make_adhoc_stream(util::Rng& rng,
                                        const AdhocGenConfig& config);

struct Fig4Config {
  int num_workflows = 5;
  int jobs_per_workflow = 18;
  double workflow_start_spread_s = 600.0;
  WorkflowGenConfig workflow;
  AdhocGenConfig adhoc;
};

/// The §VII-B.1 testbed workload: 5 workflows x 18 jobs = 90 deadline-aware
/// jobs plus an ad-hoc stream.
Scenario make_fig4_scenario(std::uint64_t seed, const Fig4Config& config = {});

struct RecurringTraceConfig {
  int num_templates = 3;       // distinct recurring workflows
  int recurrences = 4;         // instances of each template
  double period_s = 3600.0;    // one instance per period
  WorkflowGenConfig workflow;
  AdhocGenConfig adhoc;
};

/// Trace-driven scenario: each template recurs with the same DAG and sizes
/// (fresh estimation noise is injected separately if desired).
Scenario make_recurring_trace(std::uint64_t seed,
                              const RecurringTraceConfig& config = {});

// --- Production-shaped arrivals (ROADMAP item 4) --------------------------
// Real clusters are not homogeneous-Poisson: load breathes diurnally, flash
// crowds spike it for minutes, and task runtimes are heavy-tailed. These
// generators reproduce those three shapes with everything still flowing
// from one seed; the sharding bench stresses federation with them.

/// Tail family for ad-hoc task runtimes.
enum class RuntimeTail {
  kUniform,    // the plain AdhocGenConfig behaviour
  kLognormal,  // median at the uniform range's midpoint, sigma below
  kPareto,     // scale pareto_xm_s, shape pareto_alpha
};

struct ProductionAdhocConfig {
  /// Base rate/horizon/task geometry; the shaping below modulates it.
  AdhocGenConfig base;
  /// Instantaneous rate = base.rate_per_s *
  ///   (1 + diurnal_amplitude * sin(2*pi*(t - diurnal_phase_s)/period))
  /// (amplitude in [0, 1); 0 disables the diurnal component).
  double diurnal_amplitude = 0.6;
  double diurnal_period_s = 86400.0;
  double diurnal_phase_s = 0.0;
  /// Flash crowds: this many windows of `flash_duration_s`, placed
  /// uniformly at random in the horizon, during which the instantaneous
  /// rate is multiplied by `flash_multiplier`.
  int flash_crowds = 2;
  double flash_multiplier = 8.0;
  double flash_duration_s = 300.0;
  /// Heavy-tailed task runtimes (clamped to
  /// [base.min_task_runtime_s, max_task_runtime_cap_s]).
  RuntimeTail runtime_tail = RuntimeTail::kLognormal;
  double lognormal_sigma = 1.0;
  double pareto_alpha = 1.8;  // < 2 = infinite variance, the DC regime
  double pareto_xm_s = 8.0;
  double max_task_runtime_cap_s = 1800.0;
};

/// Nonhomogeneous Poisson stream via Lewis–Shedler thinning: candidates are
/// drawn at the peak rate and accepted with probability rate(t)/peak.
std::vector<AdhocJob> make_production_adhoc_stream(
    util::Rng& rng, const ProductionAdhocConfig& config);

struct ProductionScenarioConfig {
  int num_workflows = 20;
  /// Workflows are tagged round-robin-free: each draws a uniform tenant tag
  /// in [0, num_tenants) (Workflow::tenant; carried, not enforced).
  int num_tenants = 4;
  double horizon_s = 4.0 * 3600.0;
  /// Workflow releases follow the same diurnal intensity as the ad-hoc
  /// stream (rejection-sampled against the sinusoid).
  double diurnal_amplitude = 0.6;
  double diurnal_period_s = 86400.0;
  double diurnal_phase_s = 0.0;
  WorkflowGenConfig workflow;
  ProductionAdhocConfig adhoc;
};

/// Full production-shaped scenario: diurnally released multi-tenant
/// workflows plus a diurnal/flash-crowd/heavy-tailed ad-hoc stream over the
/// same horizon.
Scenario make_production_scenario(std::uint64_t seed,
                                  const ProductionScenarioConfig& config = {});

}  // namespace flowtime::workload
