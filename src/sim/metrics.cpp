#include "sim/metrics.h"

#include <algorithm>

#include "util/stats.h"

namespace flowtime::sim {

std::vector<double> DeadlineReport::job_deltas() const {
  std::vector<double> deltas;
  deltas.reserve(jobs.size());
  for (const JobDeadlineOutcome& job : jobs) deltas.push_back(job.delta_s);
  return deltas;
}

DeadlineReport evaluate_deadlines(
    const SimResult& result,
    const std::vector<workload::Workflow>& workflows,
    const JobDeadlines& job_deadlines) {
  DeadlineReport report;
  const double sim_end = result.end_s();

  // Completion time of the last job per workflow.
  std::map<int, std::optional<double>> workflow_completion;
  std::map<int, bool> workflow_has_straggler;
  for (const JobRecord& job : result.jobs) {
    if (job.kind != JobKind::kDeadline) continue;

    auto& completion = workflow_completion[job.workflow_id];
    if (!job.completion_s) {
      workflow_has_straggler[job.workflow_id] = true;
    } else if (!workflow_has_straggler[job.workflow_id]) {
      completion = std::max(completion.value_or(0.0), *job.completion_s);
    }

    const workload::WorkflowJobRef ref{job.workflow_id, job.node};
    const auto it = job_deadlines.find(ref);
    if (it == job_deadlines.end()) continue;
    JobDeadlineOutcome outcome;
    outcome.uid = job.uid;
    outcome.ref = ref;
    outcome.deadline_s = it->second;
    outcome.completion_s = job.completion_s;
    if (job.completion_s) {
      outcome.delta_s = *job.completion_s - it->second;
      outcome.missed = outcome.delta_s > 1e-9;
    } else {
      outcome.delta_s = sim_end - it->second;
      outcome.missed = true;
    }
    if (outcome.missed) ++report.jobs_missed;
    report.jobs.push_back(outcome);
  }

  for (const workload::Workflow& w : workflows) {
    WorkflowDeadlineOutcome outcome;
    outcome.workflow_id = w.id;
    outcome.deadline_s = w.deadline_s;
    const bool straggler = workflow_has_straggler[w.id];
    if (!straggler && workflow_completion[w.id].has_value()) {
      outcome.completion_s = workflow_completion[w.id];
      outcome.delta_s = *outcome.completion_s - w.deadline_s;
      outcome.missed = outcome.delta_s > 1e-9;
    } else {
      outcome.missed = true;
      outcome.delta_s = 0.0;
    }
    if (outcome.missed) ++report.workflows_missed;
    report.workflows.push_back(outcome);
  }
  return report;
}

AdhocReport evaluate_adhoc(const SimResult& result) {
  AdhocReport report;
  for (const JobRecord& job : result.jobs) {
    if (job.kind != JobKind::kAdhoc) continue;
    ++report.total;
    if (!job.completion_s) continue;
    ++report.completed;
    report.turnarounds_s.push_back(job.turnaround_s());
  }
  report.mean_turnaround_s = util::mean(report.turnarounds_s);
  report.p50_turnaround_s = util::quantile(report.turnarounds_s, 0.50);
  report.p95_turnaround_s = util::quantile(report.turnarounds_s, 0.95);
  report.max_turnaround_s = util::max_of(report.turnarounds_s);
  return report;
}

}  // namespace flowtime::sim
