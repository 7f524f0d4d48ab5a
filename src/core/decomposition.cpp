#include "core/decomposition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dag/topology.h"
#include "util/logging.h"

namespace flowtime::core {

namespace {

// Normalized total resource demand of one job: resource-seconds summed over
// resource types after dividing by cluster capacity, which makes CPU-seconds
// and GB-seconds commensurable (the same normalization the LP objective
// uses).
double normalized_demand(const workload::JobSpec& job,
                         const workload::ResourceVec& capacity) {
  const workload::ResourceVec total = job.total_demand();
  double sum = 0.0;
  for (int r = 0; r < workload::kNumResources; ++r) {
    if (capacity[r] > 0.0) sum += total[r] / capacity[r];
  }
  return sum;
}

DecompositionResult failure(DecomposeStatus status) {
  DecompositionResult result;
  result.status = status;
  return result;
}

}  // namespace

const char* to_string(DecomposeStatus status) {
  switch (status) {
    case DecomposeStatus::kOk:
      return "ok";
    case DecomposeStatus::kEmptyWorkflow:
      return "empty_workflow";
    case DecomposeStatus::kCyclicDag:
      return "cyclic_dag";
    case DecomposeStatus::kInvalidWorkflow:
      return "invalid_workflow";
    case DecomposeStatus::kJobExceedsCapacity:
      return "job_exceeds_capacity";
  }
  return "?";
}

DeadlineDecomposer::DeadlineDecomposer(DecompositionConfig config)
    : config_(config) {}

DecompositionResult DeadlineDecomposer::decompose(
    const workload::Workflow& workflow) const {
  if (workflow.dag.num_nodes() == 0) {
    return failure(DecomposeStatus::kEmptyWorkflow);
  }
  const auto levels = dag::level_groups(workflow.dag);
  if (!levels) return failure(DecomposeStatus::kCyclicDag);
  if (!workflow.valid()) return failure(DecomposeStatus::kInvalidWorkflow);

  DecompositionResult result;
  result.levels = *levels;
  const std::size_t num_levels = result.levels.size();

  // Per-level minimum runtime and total normalized demand.
  std::vector<double> min_runtime(num_levels, 0.0);
  std::vector<double> demand(num_levels, 0.0);
  for (std::size_t l = 0; l < num_levels; ++l) {
    for (dag::NodeId v : result.levels[l]) {
      const workload::JobSpec& job =
          workflow.jobs[static_cast<std::size_t>(v)];
      const double runtime = job.min_runtime_s(config_.cluster.capacity);
      if (!std::isfinite(runtime)) {
        // Expected under admission (a candidate wider than one cell is
        // decomposed once per cell it is offered to), so INFO: the status
        // carries it.
        FT_LOG(kInfo) << "job " << job.name
                      << " cannot fit the cluster at any parallelism";
        return failure(DecomposeStatus::kJobExceedsCapacity);
      }
      min_runtime[l] = std::max(min_runtime[l], runtime);
      demand[l] += normalized_demand(job, config_.cluster.capacity);
    }
  }
  const double total_min =
      std::accumulate(min_runtime.begin(), min_runtime.end(), 0.0);
  result.min_makespan_s = total_min;

  const double budget = workflow.deadline_s - workflow.start_s;
  const double slack = budget - total_min;
  result.used_fallback =
      slack < 0.0 || config_.mode == DecompositionMode::kCriticalPath;

  result.level_duration_s.assign(num_levels, 0.0);
  if (result.used_fallback) {
    // Critical-path style: the whole budget in proportion to each level's
    // minimum runtime (Yu et al. [7]). With negative slack this still
    // produces windows, just ones the LP may find infeasible — which is the
    // correct signal that the deadline cannot be met.
    for (std::size_t l = 0; l < num_levels; ++l) {
      result.level_duration_s[l] =
          total_min > 0.0 ? budget * min_runtime[l] / total_min
                          : budget / static_cast<double>(num_levels);
    }
  } else {
    const double total_demand =
        std::accumulate(demand.begin(), demand.end(), 0.0);
    for (std::size_t l = 0; l < num_levels; ++l) {
      const double share =
          total_demand > 0.0
              ? demand[l] / total_demand
              : 1.0 / static_cast<double>(num_levels);
      result.level_duration_s[l] = min_runtime[l] + slack * share;
    }
  }

  // Accumulate into absolute windows; parallel jobs inherit their level's.
  result.windows.assign(static_cast<std::size_t>(workflow.dag.num_nodes()),
                        JobWindow{});
  double cursor = workflow.start_s;
  for (std::size_t l = 0; l < num_levels; ++l) {
    const double level_start = cursor;
    // The last level ends exactly at the workflow deadline, absorbing any
    // floating-point residue from the proportional split.
    const double level_end = l + 1 == num_levels
                                 ? workflow.deadline_s
                                 : cursor + result.level_duration_s[l];
    for (dag::NodeId v : result.levels[l]) {
      result.windows[static_cast<std::size_t>(v)] =
          JobWindow{level_start, level_end};
    }
    cursor = level_end;
  }
  return result;
}

}  // namespace flowtime::core
