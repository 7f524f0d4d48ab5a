#include "scenarios.h"

#include <cstring>

#include "fault/plan.h"
#include "sched/experiment.h"
#include "util/rng.h"
#include "workload/estimator.h"

namespace bench {

using workload::ResourceVec;

namespace {

constexpr ResourceVec kFig4Cluster{500.0, 1024.0};
constexpr ResourceVec kProductionCluster{10000.0, 20480.0};

// Estimation error on every workflow job: half under-, half over-estimated,
// with the true runtime off by up to `severity`.
void perturb_estimates(workload::Scenario& scenario, double severity,
                       std::uint64_t seed) {
  workload::EstimationErrorConfig error;
  error.affected_fraction = 1.0;
  error.under_probability = 0.5;
  error.under_severity = severity;
  error.over_severity = severity;
  flowtime::util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  workload::inject_estimation_error(scenario.workflows, error, rng);
}

void set_cluster(Instance& instance, const ResourceVec& capacity,
                 double max_horizon_s) {
  instance.sim.cluster.capacity = capacity;
  instance.sim.max_horizon_s = max_horizon_s;
  instance.flowtime.cluster = instance.sim.cluster;
}

// The paper's Fig. 4 testbed cluster and trace generator
// (bench/fig4_joint_performance.cpp) with +/-30% estimation error: the
// LP-bound case. Each scenario is cut to 2 workflows x 6 jobs so that one
// set holds 150 independent scenarios; a set of the full-size trace holds
// two, and its run time then swings by a quarter from seed to seed.
void make_fig4_noisy(Instance& instance, std::uint64_t seed) {
  set_cluster(instance, kFig4Cluster, 8.0 * 3600.0);
  workload::Fig4Config fig4;
  fig4.num_workflows = 2;
  fig4.jobs_per_workflow = 6;
  fig4.workflow_start_spread_s = 400.0;
  fig4.workflow.cluster.capacity = kFig4Cluster;
  fig4.workflow.looseness_min = 4.0;
  fig4.workflow.looseness_max = 6.0;
  fig4.adhoc.rate_per_s = 0.15;
  fig4.adhoc.horizon_s = 1500.0;
  fig4.adhoc.min_tasks = 10;
  fig4.adhoc.max_tasks = 50;
  fig4.adhoc.min_task_runtime_s = 30.0;
  fig4.adhoc.max_task_runtime_s = 80.0;
  instance.scenario = workload::make_fig4_scenario(seed, fig4);
  perturb_estimates(instance.scenario, 0.3, seed);
}

workload::ProductionScenarioConfig production_config(int workflows,
                                                     double horizon_s) {
  workload::ProductionScenarioConfig production;
  production.num_workflows = workflows;
  production.horizon_s = horizon_s;
  production.workflow.cluster.capacity = kProductionCluster;
  production.adhoc.base.horizon_s = horizon_s;
  return production;
}

// The production trace on 10k cores: an 8 h diurnal ad-hoc flood with flash
// crowds and lognormal runtimes around 4 workflows. The LP-bypass case.
void make_adhoc_flood(Instance& instance, std::uint64_t seed) {
  const double horizon_s = 8.0 * 3600.0;
  set_cluster(instance, kProductionCluster, 2.0 * horizon_s);
  workload::ProductionScenarioConfig production =
      production_config(4, horizon_s);
  production.adhoc.base.rate_per_s = 2.5;
  instance.scenario = workload::make_production_scenario(seed, production);
}

// Half an hour of the production trace with 3 workflows and +/-10%
// estimation error on a 4-cell federation solving on 3 pool threads; cell 1
// crashes for slots 30-90, so its workflows fail over.
void make_fed_failover(Instance& instance, std::uint64_t seed) {
  const double horizon_s = 1800.0;
  set_cluster(instance, kProductionCluster, 4.0 * horizon_s);
  workload::ProductionScenarioConfig production =
      production_config(3, horizon_s);
  production.workflow.num_jobs = 8;
  production.diurnal_period_s = horizon_s;  // one full load wave per run
  production.adhoc.base.rate_per_s = 0.05;
  instance.scenario = workload::make_production_scenario(seed, production);
  perturb_estimates(instance.scenario, 0.1, seed);

  flowtime::fault::CellFault crash;
  crash.cell = 1;
  crash.mode = flowtime::fault::CellFaultMode::kCrash;
  crash.slot = 30;
  crash.until_slot = 90;
  instance.sim.fault_plan.seed = seed;
  instance.sim.fault_plan.cell_faults.push_back(crash);

  instance.federated.flowtime = instance.flowtime;
  instance.federated.partition.cells = 4;
  instance.federated.parallel_solve = true;
  instance.federated.solver_threads = 3;
}

class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add_bytes(&bits, sizeof(bits));
  }
  void add(std::int64_t value) { add_bytes(&value, sizeof(value)); }
  void add(const ResourceVec& v) {
    for (double x : v) add(x);
  }
  void add(const workload::JobSpec& job) {
    add(static_cast<std::int64_t>(job.num_tasks));
    add(job.task.runtime_s);
    add(job.task.demand);
    add(job.actual_runtime_factor);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"fig4_noisy", 150, false},
      {"adhoc_flood", 3, false},
      {"fed_failover", 100, true},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::uint64_t scenario_seed(std::uint64_t seed, int index) {
  return seed + 7919ULL * static_cast<std::uint64_t>(index);
}

Instance make_instance(const WorkloadSpec& spec, std::uint64_t seed) {
  Instance instance;
  if (spec.name == "fig4_noisy") {
    make_fig4_noisy(instance, seed);
  } else if (spec.name == "adhoc_flood") {
    make_adhoc_flood(instance, seed);
  } else {
    make_fed_failover(instance, seed);
  }
  return instance;
}

sim::JobDeadlines milestones(const Instance& instance) {
  flowtime::sched::ExperimentConfig experiment;
  experiment.sim = instance.sim;
  experiment.flowtime = instance.flowtime;
  return flowtime::sched::milestone_deadlines(instance.scenario, experiment);
}

std::uint64_t fingerprint(const workload::Scenario& scenario) {
  Fnv1a h;
  for (const workload::Workflow& w : scenario.workflows) {
    h.add(static_cast<std::int64_t>(w.id));
    h.add(static_cast<std::int64_t>(w.tenant));
    h.add(w.start_s);
    h.add(w.deadline_s);
    for (flowtime::dag::NodeId v = 0; v < w.dag.num_nodes(); ++v) {
      for (flowtime::dag::NodeId p : w.dag.parents(v)) {
        h.add(static_cast<std::int64_t>(p));
      }
      h.add(static_cast<std::int64_t>(-1));  // end of v's parent list
      h.add(w.jobs[static_cast<std::size_t>(v)]);
    }
  }
  for (const workload::AdhocJob& a : scenario.adhoc_jobs) {
    h.add(static_cast<std::int64_t>(a.id));
    h.add(a.arrival_s);
    h.add(a.spec);
  }
  return h.value();
}

}  // namespace bench
