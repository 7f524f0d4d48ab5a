// The benchmark's workloads: seeded scenario generators plus the scheduler
// and simulator configuration each one runs under.
//
// A workload replays a fixed number of generated scenarios back to back (a
// "set"). Scenario k of a set is generated from scenario_seed(seed, k), so
// one --seed fixes every input of the run, and the program under test only
// ever sees the generated workload::Scenario.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/federated_scheduler.h"
#include "core/flowtime_scheduler.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace bench {

namespace cluster = flowtime::cluster;
namespace core = flowtime::core;
namespace sim = flowtime::sim;
namespace workload = flowtime::workload;

struct WorkloadSpec {
  std::string name;
  /// Scenarios replayed back to back per measured set.
  int scenarios_per_set = 1;
  /// Runs under cluster::FederatedScheduler instead of one FlowTime core.
  bool federated = false;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Seed of scenario `index` within the set generated from `seed`.
std::uint64_t scenario_seed(std::uint64_t seed, int index);

/// One generated scenario with the configuration it runs under.
struct Instance {
  workload::Scenario scenario;
  sim::SimConfig sim;
  core::FlowTimeConfig flowtime;
  cluster::FederatedConfig federated;  // used when the workload is federated
};

/// Generates the scenario (trace generation plus estimation error). This is
/// the timed part of set-up, together with scheduler construction.
Instance make_instance(const WorkloadSpec& spec, std::uint64_t scenario_seed);

/// The shared per-job milestones every run is judged against.
sim::JobDeadlines milestones(const Instance& instance);

/// FNV-1a digest of every generated input field (DAG shape, sizes, estimate
/// errors, arrival times), so identical inputs can be shown across commits.
std::uint64_t fingerprint(const workload::Scenario& scenario);

}  // namespace bench
