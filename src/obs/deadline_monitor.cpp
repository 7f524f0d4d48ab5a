#include "obs/deadline_monitor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace flowtime::obs {

namespace {
constexpr double kTol = 1e-9;
// A job warns once its laxity falls below this fraction of its remaining
// window (deadline - now).
constexpr double kWarnFraction = 0.1;

int severity(RiskLevel level) { return static_cast<int>(level); }
}  // namespace

const char* to_string(RiskLevel level) {
  switch (level) {
    case RiskLevel::kOk:
      return "ok";
    case RiskLevel::kWarn:
      return "warn";
    case RiskLevel::kBreach:
      return "breach";
  }
  return "ok";
}

RiskLevel DeadlineMonitor::classify(const JobState& job, double now_s,
                                    double projected_s) const {
  const double laxity = job.deadline_s - projected_s;
  if (laxity < -kTol) return RiskLevel::kBreach;
  const double remaining_window = std::max(job.deadline_s - now_s, 0.0);
  if (laxity < kWarnFraction * remaining_window - kTol) {
    return RiskLevel::kWarn;
  }
  return RiskLevel::kOk;
}

void DeadlineMonitor::emit_transition(const char* entity, int workflow_id,
                                      int node, double now_s,
                                      const JobState& job) const {
  if (!enabled()) return;
  registry().counter("obs.deadline.risk_events").add();
  if (job.level == RiskLevel::kBreach) {
    registry().counter("obs.deadline.breaches").add();
  }
  TraceEvent event("deadline_risk");
  event.field("entity", entity)
      .field("workflow", workflow_id);
  if (node >= 0) event.field("node", node);
  event.field("level", to_string(job.level))
      .field("now_s", now_s)
      .field("deadline_s", job.deadline_s)
      .field("projected_s", job.projected_s)
      .field("laxity_s", job.laxity_s);
  if (job.initial_laxity_s > kTol) {
    event.field("slack_consumed",
                (job.initial_laxity_s - job.laxity_s) / job.initial_laxity_s);
  }
  emit(event);
}

void DeadlineMonitor::publish_gauges() const {
  if (!enabled()) return;
  int inflight = 0, warn = 0, breach = 0;
  double min_laxity = 0.0;
  bool has_laxity = false;
  for (const auto& [key, job] : jobs_) {
    (void)key;
    if (job.complete) continue;
    ++inflight;
    if (job.level == RiskLevel::kWarn) ++warn;
    if (job.level == RiskLevel::kBreach) ++breach;
    if (!has_laxity || job.laxity_s < min_laxity) {
      min_laxity = job.laxity_s;
      has_laxity = true;
    }
  }
  int workflows = 0;
  for (const auto& [id, workflow] : workflows_) {
    (void)id;
    if (workflow.inflight > 0) ++workflows;
  }
  Registry& reg = registry();
  reg.gauge("obs.deadline.workflows_inflight").set(workflows);
  reg.gauge("obs.deadline.jobs_inflight").set(inflight);
  reg.gauge("obs.deadline.jobs_warn").set(warn);
  reg.gauge("obs.deadline.jobs_breach").set(breach);
  reg.gauge("obs.deadline.min_laxity_s").set(has_laxity ? min_laxity : 0.0);
}

void DeadlineMonitor::track_workflow(int workflow_id, double release_s,
                                     double deadline_s) {
  std::lock_guard<std::mutex> lock(mu_);
  WorkflowState& workflow = workflows_[workflow_id];
  workflow.release_s = release_s;
  workflow.deadline_s = deadline_s;
  workflow.latest_s = release_s;
  workflow.level = RiskLevel::kOk;
  workflow.inflight = 0;
  publish_gauges();
}

void DeadlineMonitor::track_job(int workflow_id, int node, double release_s,
                                double deadline_s, double min_runtime_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!workflows_.count(workflow_id)) {
    // track_workflow was skipped; degrade gracefully to the job's window.
    WorkflowState& workflow = workflows_[workflow_id];
    workflow.release_s = release_s;
    workflow.deadline_s = deadline_s;
    workflow.latest_s = release_s;
  }
  JobState job;
  job.release_s = release_s;
  job.deadline_s = deadline_s;
  job.projected_s = release_s + min_runtime_s;
  job.laxity_s = deadline_s - job.projected_s;
  job.initial_laxity_s = job.laxity_s;
  job.level = RiskLevel::kOk;
  const JobKey key{workflow_id, node};
  if (!jobs_.count(key)) ++workflows_[workflow_id].inflight;
  jobs_[key] = job;
  publish_gauges();
}

void DeadlineMonitor::update_job(int workflow_id, int node, double now_s,
                                 double projected_completion_s) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(JobKey{workflow_id, node});
  if (it == jobs_.end() || it->second.complete) return;
  JobState& job = it->second;
  job.projected_s = projected_completion_s;
  job.laxity_s = job.deadline_s - projected_completion_s;
  const RiskLevel level = classify(job, now_s, projected_completion_s);
  if (level != job.level) {
    job.level = level;
    emit_transition("job", workflow_id, node, now_s, job);
  }
  refresh_workflow(workflow_id, now_s);
  publish_gauges();
}

void DeadlineMonitor::complete_job(int workflow_id, int node,
                                   double completion_s) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(JobKey{workflow_id, node});
  if (it == jobs_.end() || it->second.complete) return;
  JobState& job = it->second;
  job.complete = true;
  job.projected_s = completion_s;
  job.laxity_s = job.deadline_s - completion_s;
  // The final verdict ignores the warn band: a completed job either made
  // its Stage-1 deadline or it did not.
  const RiskLevel level = job.laxity_s < -kTol ? RiskLevel::kBreach
                                               : RiskLevel::kOk;
  if (level != job.level) {
    job.level = level;
    emit_transition("job", workflow_id, node, completion_s, job);
  }
  const auto workflow_it = workflows_.find(workflow_id);
  if (workflow_it != workflows_.end() && workflow_it->second.inflight > 0) {
    --workflow_it->second.inflight;
  }
  refresh_workflow(workflow_id, completion_s);
  publish_gauges();
}

void DeadlineMonitor::refresh_workflow(int workflow_id, double now_s) {
  const auto it = workflows_.find(workflow_id);
  if (it == workflows_.end()) return;
  WorkflowState& workflow = it->second;
  double latest = workflow.release_s;
  RiskLevel level = RiskLevel::kOk;
  for (const auto& [key, job] : jobs_) {
    if (key.first != workflow_id) continue;
    latest = std::max(latest, job.projected_s);
    if (severity(job.level) > severity(level)) level = job.level;
  }
  workflow.latest_s = latest;
  if (level != workflow.level) {
    workflow.level = level;
    JobState as_job;  // reuse the event shape for the workflow entity
    as_job.deadline_s = workflow.deadline_s;
    as_job.initial_laxity_s = workflow.deadline_s - workflow.release_s;
    as_job.projected_s = latest;
    as_job.laxity_s = workflow.deadline_s - latest;
    as_job.level = level;
    emit_transition("workflow", workflow_id, -1, now_s, as_job);
  }
}

void DeadlineMonitor::forget_workflow(int workflow_id) {
  std::lock_guard<std::mutex> lock(mu_);
  workflows_.erase(workflow_id);
  std::erase_if(jobs_, [workflow_id](const auto& entry) {
    return entry.first.first == workflow_id;
  });
  publish_gauges();
}

RiskLevel DeadlineMonitor::job_level(int workflow_id, int node) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(JobKey{workflow_id, node});
  return it == jobs_.end() ? RiskLevel::kOk : it->second.level;
}

RiskLevel DeadlineMonitor::workflow_level(int workflow_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = workflows_.find(workflow_id);
  return it == workflows_.end() ? RiskLevel::kOk : it->second.level;
}

int DeadlineMonitor::inflight_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  int count = 0;
  for (const auto& [key, job] : jobs_) {
    (void)key;
    if (!job.complete) ++count;
  }
  return count;
}

int DeadlineMonitor::inflight_workflows() const {
  std::lock_guard<std::mutex> lock(mu_);
  int count = 0;
  for (const auto& [id, workflow] : workflows_) {
    (void)id;
    if (workflow.inflight > 0) ++count;
  }
  return count;
}

void DeadlineMonitor::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  jobs_.clear();
  workflows_.clear();
}

DeadlineMonitor& deadline_monitor() {
  static auto* monitor = new DeadlineMonitor();  // process lifetime
  return *monitor;
}

}  // namespace flowtime::obs
