// Baseline schedulers (paper §VII-A): FIFO, Fair and EDF.
//
// All baselines are job-level policies — none reasons about workflow
// structure beyond the readiness the simulator enforces — which is exactly
// the gap FlowTime targets.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/decomposition.h"
#include "sim/scheduler.h"

namespace flowtime::sched {

/// FIFO: all jobs, deadline-aware or not, served in arrival order at full
/// width. Deadline-oblivious (the paper's worst baseline for misses).
class FifoScheduler : public sim::Scheduler {
 public:
  std::string name() const override { return "FIFO"; }
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;
};

/// Fair: per-slot max-min fair sharing across every active job, the
/// YARN-Fair-like policy. Deadline-oblivious but interleaves everything, so
/// ad-hoc jobs do comparatively well (paper: best baseline for turnaround).
class FairScheduler : public sim::Scheduler {
 public:
  std::string name() const override { return "Fair"; }
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;
};

/// EDF: deadline jobs strictly first, ordered by deadline, at full width.
/// Per the paper's description (SII-B: EDF "may block the ad-hoc jobs as
/// long as there are deadline-aware workflows in the cluster"), ad-hoc jobs
/// receive nothing while any deadline job is incomplete; set
/// `strict_adhoc_blocking = false` for the milder leftover-sharing variant.
/// The paper's motivating strawman: near-best deadline behaviour, terrible
/// ad-hoc turnaround (Fig. 1).
///
/// Job deadlines come from the same decomposition FlowTime uses (the
/// strongest version of this baseline — with raw workflow deadlines EDF
/// would only do worse on job milestones).
class EdfScheduler : public sim::Scheduler {
 public:
  explicit EdfScheduler(core::DecompositionConfig decomposition = {},
                        bool strict_adhoc_blocking = true);

  std::string name() const override { return "EDF"; }
  /// Workflow arrivals only: the rest of the state comes from allocate().
  void on_event(const sim::SchedulerEvent& event) override;
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;

 private:
  core::DeadlineDecomposer decomposer_;
  bool strict_adhoc_blocking_;
  std::map<sim::JobUid, double> deadline_by_uid_;
};

}  // namespace flowtime::sched
