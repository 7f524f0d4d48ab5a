// Workflow model: W_i = {Q_i, ws_i, wd_i, P_i} (paper §II-A).
//
// A workflow is a DAG whose node v carries job `jobs[v]`, released at
// `start_s` with an absolute deadline `deadline_s`. Workflows recur, so all
// job estimates are known at release time.
#pragma once

#include <string>
#include <vector>

#include "dag/dag.h"
#include "workload/job.h"

namespace flowtime::workload {

struct Workflow {
  int id = 0;
  std::string name;
  double start_s = 0.0;     // ws_i: release time
  double deadline_s = 0.0;  // wd_i: absolute deadline
  dag::Dag dag;             // P_i: inter-job dependencies, node = job index
  std::vector<JobSpec> jobs;  // Q_i, indexed by DAG node id
  /// Owning tenant (scenario field `tenant=`). A tag, not a policy: no
  /// scheduler enforces per-tenant shares, and the scheduling pipeline
  /// ignores it. Tenant 0 is the default single-tenant world.
  int tenant = 0;

  /// Structural sanity: one job per node, acyclic, deadline after start,
  /// positive job sizes.
  bool valid() const;

  /// Lower bound on the makespan on a cluster with `capacity`: critical path
  /// weighted by each job's minimum runtime. The decomposer needs slack =
  /// (deadline - start) - this.
  double min_makespan_s(const ResourceVec& capacity) const;
};

/// Globally unique identifier of a job inside a workflow.
struct WorkflowJobRef {
  int workflow_id = 0;
  dag::NodeId node = 0;

  friend bool operator==(const WorkflowJobRef&, const WorkflowJobRef&) =
      default;
  friend auto operator<=>(const WorkflowJobRef&, const WorkflowJobRef&) =
      default;
};

}  // namespace flowtime::workload
