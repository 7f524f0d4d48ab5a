// Deadline-risk monitor: per-workflow / per-job slack accounting.
//
// FlowTime's Stage-1 decomposition turns one workflow deadline into per-job
// deadlines; everything downstream (the LP, slack, re-planning) exists to
// hit those milestones. This monitor makes the runtime margin visible while
// a run is in flight instead of only in the post-hoc deadline report:
//
//   * the scheduler registers every decomposed job with its per-job
//     deadline and estimated minimum runtime (track_workflow / track_job),
//   * each slot it reports the job's projected completion time — the
//     width-limited earliest completion from now (FlowTime plans jobs to
//     finish near their deadline on purpose, so the *planned* end is not a
//     risk signal; whether the job could still make it at full width is),
//     raised to the planned end when the plan itself lands past the
//     deadline,
//   * the monitor converts that into remaining laxity (deadline minus
//     projection), classifies it as ok / warn / breach, emits a
//     `deadline_risk` trace event on every level transition, and keeps the
//     `obs.deadline.*` gauges current.
//
// "warn" means the remaining laxity is small relative to the remaining
// window (laxity < 10% of deadline - now) — i.e. the projection is
// approaching infeasibility, not merely that the plan deferred work. The
// threshold is relative to *remaining* time, not the laxity at
// registration: FlowTime defers work toward the deadline on purpose, so
// any threshold anchored to the initial margin would eventually fire on
// every healthy just-in-time job. "breach" means the projection — or the
// actual completion — is past the Stage-1 deadline. Workflow-level risk is
// derived from the jobs: the workflow projection is the latest
// projection/completion among its jobs, compared against the workflow
// deadline.
//
// Like the rest of obs the monitor is passive bookkeeping: events and
// gauges are only produced while a trace sink / the enabled flag is on,
// and instrumentation sites guard on obs::enabled() before calling in.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <utility>

namespace flowtime::obs {

enum class RiskLevel { kOk, kWarn, kBreach };

/// "ok" / "warn" / "breach".
const char* to_string(RiskLevel level);

/// Tracks in-flight deadline entities and their slack. Thread-safe; one
/// instance per process via deadline_monitor(), or standalone in tests.
class DeadlineMonitor {
 public:
  /// Registers a workflow released at `release_s` with absolute deadline
  /// `deadline_s`. Call before track_job for its nodes.
  void track_workflow(int workflow_id, double release_s, double deadline_s);

  /// Registers one decomposed job. `deadline_s` is the Stage-1 per-job
  /// deadline (without scheduler slack); `min_runtime_s` the width-limited
  /// minimum runtime estimate at release — together they fix the job's
  /// initial laxity, the yardstick for the warn threshold.
  void track_job(int workflow_id, int node, double release_s,
                 double deadline_s, double min_runtime_s);

  /// Per-slot progress report: the caller's current projection of when the
  /// job will finish. Emits `deadline_risk` events on level transitions and
  /// refreshes the obs.deadline.* gauges.
  void update_job(int workflow_id, int node, double now_s,
                  double projected_completion_s);

  /// The job finished at `completion_s`; its final level is judged against
  /// the actual completion and it leaves the in-flight set. When the last
  /// job of a workflow completes the workflow is finalized too.
  void complete_job(int workflow_id, int node, double completion_s);

  /// Drops a workflow and its jobs without finalizing (cancellation).
  void forget_workflow(int workflow_id);

  /// Current level of one tracked job / workflow; kOk for unknown ids.
  RiskLevel job_level(int workflow_id, int node) const;
  RiskLevel workflow_level(int workflow_id) const;

  int inflight_jobs() const;
  int inflight_workflows() const;

  /// Drops all state (tests; paired with registry().reset()).
  void reset();

 private:
  struct JobState {
    double release_s = 0.0;
    double deadline_s = 0.0;
    double initial_laxity_s = 0.0;
    double laxity_s = 0.0;         // after the latest update
    double projected_s = 0.0;      // latest projection or actual completion
    RiskLevel level = RiskLevel::kOk;
    bool complete = false;
  };
  struct WorkflowState {
    double release_s = 0.0;
    double deadline_s = 0.0;
    double latest_s = 0.0;  // max projection/completion over jobs
    RiskLevel level = RiskLevel::kOk;
    int inflight = 0;
  };
  using JobKey = std::pair<int, int>;  // workflow_id, node

  RiskLevel classify(const JobState& job, double now_s,
                     double projected_s) const;
  /// Re-derives the workflow projection/level after a job change and emits
  /// the workflow-level transition event if any. Caller holds mu_.
  void refresh_workflow(int workflow_id, double now_s);
  void publish_gauges() const;  // caller holds mu_
  void emit_transition(const char* entity, int workflow_id, int node,
                       double now_s, const JobState& job) const;

  mutable std::mutex mu_;
  std::map<JobKey, JobState> jobs_;
  std::map<int, WorkflowState> workflows_;
};

/// The process-wide monitor every instrumentation site feeds.
DeadlineMonitor& deadline_monitor();

}  // namespace flowtime::obs
