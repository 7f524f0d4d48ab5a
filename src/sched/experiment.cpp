#include "sched/experiment.h"

#include <cmath>
#include <cstdlib>

#include "cluster/federated_scheduler.h"
#include "runtime/concurrent_scheduler.h"
#include "sched/baselines.h"
#include "sched/cora.h"
#include "sched/morpheus.h"
#include "sched/rayon.h"
#include "util/logging.h"

namespace flowtime::sched {

namespace {

std::unique_ptr<sim::Scheduler> make_flowtime(
    core::FlowTimeConfig flowtime, const ExperimentConfig& config) {
  if (config.cells > 1) {
    cluster::FederatedConfig federated;
    federated.flowtime = std::move(flowtime);
    federated.partition.cells = config.cells;
    if (!cluster::parse_cell_policy(config.cell_policy,
                                    &federated.partition.policy)) {
      FT_LOG(kError) << "unknown cell policy: " << config.cell_policy;
      std::abort();
    }
    return std::make_unique<cluster::FederatedScheduler>(
        std::move(federated));
  }
  if (!config.async_replan) {
    return std::make_unique<core::FlowTimeScheduler>(std::move(flowtime));
  }
  runtime::RuntimeConfig rt;
  rt.flowtime = std::move(flowtime);
  rt.barrier_mode = config.async_barrier;
  return std::make_unique<runtime::ConcurrentScheduler>(std::move(rt));
}

}  // namespace

std::unique_ptr<sim::Scheduler> make_scheduler(
    const std::string& name, const ExperimentConfig& config) {
  if (name == "FlowTime") {
    return make_flowtime(config.flowtime, config);
  }
  if (name == "FlowTime_no_ds") {
    core::FlowTimeConfig no_slack = config.flowtime;
    no_slack.deadline_slack_s = 0.0;
    return make_flowtime(std::move(no_slack), config);
  }
  if (name == "CORA") return std::make_unique<CoraScheduler>();
  if (name == "EDF") {
    core::DecompositionConfig decomposition;
    decomposition.cluster = config.flowtime.cluster;
    decomposition.mode = config.flowtime.decomposition_mode;
    return std::make_unique<EdfScheduler>(decomposition);
  }
  if (name == "Fair") return std::make_unique<FairScheduler>();
  if (name == "FIFO") return std::make_unique<FifoScheduler>();
  if (name == "Rayon") {
    core::DecompositionConfig decomposition;
    decomposition.cluster = config.flowtime.cluster;
    decomposition.mode = config.flowtime.decomposition_mode;
    decomposition.cluster.slot_seconds = config.sim.cluster.slot_seconds;
    return std::make_unique<RayonScheduler>(decomposition);
  }
  if (name == "Morpheus") {
    MorpheusConfig morpheus;
    morpheus.cluster = config.flowtime.cluster;
    return std::make_unique<MorpheusScheduler>(morpheus);
  }
  FT_LOG(kError) << "unknown scheduler: " << name;
  std::abort();
}

sim::JobDeadlines milestone_deadlines(const workload::Scenario& scenario,
                                      const ExperimentConfig& config) {
  core::DecompositionConfig decomposition_config;
  decomposition_config.cluster = config.flowtime.cluster;
  decomposition_config.mode = config.flowtime.decomposition_mode;
  const core::DeadlineDecomposer decomposer(decomposition_config);
  // In the paper's formulation deadlines are slot indices, so milestones
  // are evaluated at slot granularity: a fractional decomposed deadline
  // rounds up to the end of its slot (completions land on slot boundaries).
  const double slot = config.sim.cluster.slot_seconds;
  sim::JobDeadlines deadlines;
  for (const workload::Workflow& w : scenario.workflows) {
    const auto result = decomposer.decompose(w);
    for (dag::NodeId v = 0; v < w.dag.num_nodes(); ++v) {
      const double raw =
          result.ok() ? result.windows[static_cast<std::size_t>(v)].deadline_s
                      : w.deadline_s;
      deadlines[workload::WorkflowJobRef{w.id, v}] =
          std::ceil(raw / slot - 1e-9) * slot;
    }
  }
  return deadlines;
}

std::vector<SchedulerOutcome> run_comparison(
    const workload::Scenario& scenario, const ExperimentConfig& config) {
  std::vector<std::string> names = config.schedulers;
  if (names.empty()) names = {"FlowTime", "CORA", "EDF", "Fair", "FIFO"};

  const sim::JobDeadlines deadlines = milestone_deadlines(scenario, config);
  std::vector<SchedulerOutcome> outcomes;
  outcomes.reserve(names.size());
  for (const std::string& name : names) {
    std::unique_ptr<sim::Scheduler> scheduler =
        make_scheduler(name, config);
    sim::Simulator simulator(config.sim);
    SchedulerOutcome outcome;
    outcome.name = name;
    outcome.result = simulator.run(scenario, *scheduler);
    outcome.deadlines =
        sim::evaluate_deadlines(outcome.result, scenario.workflows, deadlines);
    outcome.adhoc = sim::evaluate_adhoc(outcome.result);
    const core::FlowTimeScheduler* flowtime =
        dynamic_cast<const core::FlowTimeScheduler*>(scheduler.get());
    if (auto* wrapped =
            dynamic_cast<runtime::ConcurrentScheduler*>(scheduler.get())) {
      // Events queued after the run's last allocate (final completions)
      // must be applied before reading stats.
      wrapped->drain_events();
      flowtime = &wrapped->inner();
      outcome.coalesced_events = wrapped->coalesced_events();
      outcome.stale_solves = wrapped->stale_solves();
    }
    if (auto* federated =
            dynamic_cast<cluster::FederatedScheduler*>(scheduler.get())) {
      outcome.replans = federated->replans();
      outcome.pivots = federated->total_pivots();
      outcome.migrations = federated->migrations();
      outcome.cell_overload_events = federated->overload_events();
      outcome.cell_failures = federated->cell_failures();
      outcome.failovers = federated->failovers();
      outcome.quarantines = federated->quarantines();
      outcome.cell_recoveries = federated->cell_recoveries();
    }
    if (flowtime != nullptr) {
      outcome.replans = flowtime->replans();
      outcome.replans_discarded = flowtime->replans_discarded();
      outcome.pivots = flowtime->total_pivots();
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace flowtime::sched
