// Admission control — an extension the paper's framework makes natural.
//
// FlowTime plans deadline work as a feasibility problem, so "can this new
// workflow's deadline be met next to everything already promised?" is
// answerable *before* accepting it: decompose the candidate, add its jobs
// to the currently admitted ones, and check that the flattest placement
// stays within capacity. The check runs the first Newton level of the flow
// lexmin (core/flow_placement.h), making it cheap enough for an RPC
// admission gate. Rayon's admission story [4] is the same idea with a
// greedy agenda; here the peak-load answer is exact.
//
// Every verdict and commit runs on a Candidate: the workflow decomposed
// once on the controller's slot grid. A caller that asks about the same
// workflow again and again (the federation's routing and migration scan ask
// once per cell and slot) builds the Candidate once per controller and
// keeps it until that controller's capacity changes or it is rebuilt; the
// verdict clips the Candidate's windows to `now` each time, so it reads
// exactly what a fresh decomposition would. The controller itself keeps no
// Candidate: the one-shot evaluate/admit/force_admit on a Workflow build
// one and drop it.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/decomposition.h"
#include "core/flow_placement.h"
#include "obs/span.h"
#include "workload/workflow.h"

namespace flowtime::core {

struct AdmissionConfig {
  workload::ClusterSpec cluster;
  /// Reserve this fraction of the cluster for ad-hoc work when deciding;
  /// a candidate is admitted only if the deadline plan fits the rest.
  double deadline_cap_fraction = 1.0;
  DecompositionMode decomposition_mode = DecompositionMode::kResourceDemand;
};

struct AdmissionDecision {
  bool admitted = false;
  /// Peak normalized load of the flattest placement including the
  /// candidate (relative to the reduced cap). <= 1 means admissible; +inf
  /// when no load fits some job's window (width-limited) or the candidate
  /// cannot be decomposed.
  double peak_load = 0.0;
  std::string reason;
};

/// Tracks admitted-but-unfinished deadline work and answers admission
/// queries. This is a planning-side companion to FlowTimeScheduler: feed it
/// the same arrivals/completions and ask before accepting new workflows.
class AdmissionController {
  struct AdmittedJob {
    workload::WorkflowJobRef ref;
    LpJob lp_job;
    bool complete = false;
  };

 public:
  /// A workflow decomposed on one controller's slot grid (header comment).
  /// It depends on the workflow and on that controller's cluster and
  /// decomposition mode only; hand it back to the controller that built it.
  class Candidate {
   private:
    friend class AdmissionController;
    int workflow_id_ = -1;
    std::string name_;
    double deadline_s_ = 0.0;
    DecomposeStatus status_ = DecomposeStatus::kOk;
    std::vector<AdmittedJob> jobs_;  // empty unless status_ is kOk
  };

  explicit AdmissionController(AdmissionConfig config = {});

  /// Decomposes `workflow` into LpJobs on this controller's slot grid.
  Candidate candidate(const workload::Workflow& workflow) const;

  /// Would admitting `candidate` at time `now_s` keep every admitted
  /// deadline feasible? Does not mutate state. A candidate that cannot be
  /// decomposed is rejected with an infinite peak load.
  AdmissionDecision evaluate(const Candidate& candidate, double now_s) const;
  /// evaluate() on a Candidate built for this one verdict.
  AdmissionDecision evaluate(const workload::Workflow& workflow,
                             double now_s) const;

  /// evaluate() + commit on success, decomposing the workflow once.
  AdmissionDecision admit(const workload::Workflow& workflow, double now_s);

  /// Commits the candidate without deciding anything: no verdict is
  /// computed and no `admission` event is emitted. The federation
  /// coordinator uses this when it places a workflow whose verdict it has
  /// just computed — including on a cell that rejected it (every cell
  /// rejected it, or a hotspot migration forced the move) — so the cell's
  /// future admission queries still see the demand. No-op when
  /// decomposition failed.
  void force_admit(const Candidate& candidate, double now_s);
  /// force_admit() on a Candidate built for this one commit.
  void force_admit(const workload::Workflow& workflow, double now_s);

  /// Marks one admitted workflow's job complete (frees its demand). The
  /// optional timestamp closes the workflow's `admitted` span when its last
  /// job completes.
  void complete_job(int workflow_id, dag::NodeId node, double now_s = 0.0);

  /// Drops a whole workflow (finished or cancelled).
  void forget_workflow(int workflow_id, double now_s = 0.0);

  /// The cluster's effective capacity changed (machine failure/recovery).
  /// Future admission checks run against the new capacity — a shrunken
  /// cluster admits less; a recovered one admits more. `new_capacity` is
  /// in resource units (cores, GB), like ClusterSpec::capacity.
  void on_capacity_change(const workload::ResourceVec& new_capacity,
                          double now_s = 0.0);

  /// Number of distinct workflows currently tracked.
  int admitted_workflows() const;
  /// Number of incomplete admitted jobs currently tracked.
  int pending_jobs() const;

  /// Checks this controller's cluster model against the authoritative one
  /// (e.g. the simulator's). On mismatch logs, bumps the
  /// "core.admission.config_skew" counter and emits a "config_skew" trace
  /// event. Returns true when the specs agree.
  bool verify_cluster(const workload::ClusterSpec& authoritative) const;

 private:
  /// The verdict on a candidate next to every admitted job.
  AdmissionDecision decide(const Candidate& candidate, double now_s) const;
  /// Adds the candidate's jobs to the ledger and opens the workflow's
  /// `admitted` span.
  void commit(const Candidate& candidate, double now_s);

  AdmissionConfig config_;
  std::vector<AdmittedJob> admitted_;
  /// `admitted` lifecycle span per tracked workflow (admit → last
  /// completion / forget).
  std::map<int, obs::SpanId> admitted_spans_;
};

}  // namespace flowtime::core
