// CORA-like utility scheduler (Huang et al., INFOCOM 2015 [10]; the paper's
// §VII-A configures it with deadline-critical utilities for workflow jobs
// and completion-time utilities for ad-hoc jobs).
//
// CORA is a job-level policy: it sees each deadline job's deadline as the
// enclosing workflow's deadline (no DAG decomposition — that is FlowTime's
// contribution) and minimizes the maximum utility. Our per-slot realization:
//
//   1. every deadline job receives its *pacing rate* — remaining demand
//      spread evenly until its deadline — which is the allocation that keeps
//      the step-utility of every deadline-critical job equal (and met) with
//      minimal instantaneous usage;
//   2. the remaining capacity is shared max-min across all jobs (ad-hoc and
//      deadline alike), which trades the two classes' completion-time
//      utilities against each other.
//
// The "moderate on both metrics" behaviour the paper reports emerges
// naturally: pacing against the (late) workflow deadline starts upstream
// jobs too slowly, so downstream jobs miss workflow-internal milestones;
// meanwhile ad-hoc jobs share leftovers with deadline jobs instead of
// owning them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace flowtime::sched {

struct CoraConfig {
  /// Safety factor on the pacing rate (>1 front-loads slightly).
  double pacing_boost = 1.1;
};

class CoraScheduler : public sim::Scheduler {
 public:
  explicit CoraScheduler(CoraConfig config = {});

  std::string name() const override { return "CORA"; }
  /// Workflow arrivals only: the rest of the state comes from allocate().
  void on_event(const sim::SchedulerEvent& event) override;
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;

 private:
  CoraConfig config_;
  std::map<sim::JobUid, double> workflow_deadline_by_uid_;
};

}  // namespace flowtime::sched
