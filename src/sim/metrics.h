// Evaluation metrics (paper §VII-A "Metrics"): deadline misses at job and
// workflow granularity, and the average turnaround time of ad-hoc jobs.
//
// Per-job deadlines are an *input* here: every scheduler in the comparison
// is judged against the same decomposed job deadlines (the workflow's
// internal milestones), exactly as the paper's Fig. 4(a)/(b) does.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "sim/simulator.h"
#include "workload/workflow.h"

namespace flowtime::sim {

/// Deadline evaluation of one job.
struct JobDeadlineOutcome {
  JobUid uid = -1;
  workload::WorkflowJobRef ref;
  double deadline_s = 0.0;
  std::optional<double> completion_s;
  /// completion - deadline (positive = missed); unfinished jobs count as
  /// missed with delta measured at the simulation end.
  double delta_s = 0.0;
  bool missed = false;
};

struct WorkflowDeadlineOutcome {
  int workflow_id = -1;
  double deadline_s = 0.0;
  std::optional<double> completion_s;  // completion of the last job
  double delta_s = 0.0;
  bool missed = false;
};

struct DeadlineReport {
  std::vector<JobDeadlineOutcome> jobs;
  std::vector<WorkflowDeadlineOutcome> workflows;
  int jobs_missed = 0;
  int workflows_missed = 0;

  /// Distribution of job deltas, the series behind Fig. 4(a)/5(a).
  std::vector<double> job_deltas() const;
};

/// Map from workflow job to its absolute deadline (seconds).
using JobDeadlines = std::map<workload::WorkflowJobRef, double>;

/// Judges a simulation against per-job deadlines plus the workflows' own
/// deadlines. Jobs absent from `job_deadlines` are judged only at workflow
/// granularity.
DeadlineReport evaluate_deadlines(const SimResult& result,
                                  const std::vector<workload::Workflow>& workflows,
                                  const JobDeadlines& job_deadlines);

struct AdhocReport {
  int total = 0;
  int completed = 0;
  double mean_turnaround_s = 0.0;
  double p50_turnaround_s = 0.0;
  double p95_turnaround_s = 0.0;
  double max_turnaround_s = 0.0;
  std::vector<double> turnarounds_s;  // completed jobs only
};

/// Turnaround statistics of ad-hoc jobs (Fig. 4(c)/5(c)). Jobs the horizon
/// cut off are counted in `total` but not in the turnaround stats.
AdhocReport evaluate_adhoc(const SimResult& result);

}  // namespace flowtime::sim
