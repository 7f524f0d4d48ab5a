#include "workload/workflow.h"

#include "dag/critical_path.h"

namespace flowtime::workload {

bool Workflow::valid() const {
  if (static_cast<int>(jobs.size()) != dag.num_nodes()) return false;
  if (dag.num_nodes() == 0) return false;
  if (!dag.is_acyclic()) return false;
  if (deadline_s <= start_s) return false;
  for (const JobSpec& job : jobs) {
    if (job.num_tasks <= 0 || job.task.runtime_s <= 0.0) return false;
    bool any_demand = false;
    for (int r = 0; r < kNumResources; ++r) {
      if (job.task.demand[r] < 0.0) return false;
      if (job.task.demand[r] > 0.0) any_demand = true;
    }
    if (!any_demand) return false;
  }
  return true;
}

double Workflow::min_makespan_s(const ResourceVec& capacity) const {
  std::vector<double> weight;
  weight.reserve(jobs.size());
  for (const JobSpec& job : jobs) weight.push_back(job.min_runtime_s(capacity));
  const auto cp = dag::critical_path(dag, weight);
  return cp ? cp->length : std::numeric_limits<double>::infinity();
}

}  // namespace flowtime::workload
