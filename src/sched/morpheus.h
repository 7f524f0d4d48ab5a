// Morpheus-like scheduler (Jyothi et al., OSDI 2016 [5]).
//
// Morpheus infers per-job SLOs (deadlines) for recurring jobs from the
// history of prior runs, then places a paced reservation for each job. The
// paper's critique (§I): the inference looks at each job in isolation — it
// never uses the workflow's global DAG structure — so inferred milestones
// can be individually plausible yet collectively wrong under contention.
//
// Reproduction of the history: a recurring workflow's past runs executed
// mostly uncontended, so a job's historical completion offset is its
// earliest finish time (critical-path earliest start + own minimum runtime).
// Morpheus then pads the inferred SLO (their "relaxation" step); we expose
// the padding factor. Scheduling is reservation-style: each deadline job is
// paced to its inferred SLO (EDF-ordered under shortage), ad-hoc jobs take
// the leftovers FIFO.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace flowtime::sched {

struct MorpheusConfig {
  /// Inferred SLO = start + padding x historical completion offset.
  double slo_padding = 1.5;
  /// Cluster model used to reconstruct historical (uncontended) runs.
  workload::ClusterSpec cluster;
};

class MorpheusScheduler : public sim::Scheduler {
 public:
  explicit MorpheusScheduler(MorpheusConfig config = {});

  std::string name() const override { return "Morpheus"; }
  /// Workflow arrivals only: the rest of the state comes from allocate().
  void on_event(const sim::SchedulerEvent& event) override;
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;

  /// Inferred per-job deadline, for tests.
  double inferred_deadline(sim::JobUid uid) const {
    return inferred_deadline_by_uid_.at(uid);
  }

 private:
  MorpheusConfig config_;
  std::map<sim::JobUid, double> inferred_deadline_by_uid_;
};

}  // namespace flowtime::sched
