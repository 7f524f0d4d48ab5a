#include "core/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace flowtime::core {

namespace {

void trace_decision(const char* op, int workflow_id, double now_s,
                    const AdmissionDecision& decision) {
  if (!obs::enabled()) return;
  obs::registry().counter("core.admission.evaluations").add();
  if (decision.admitted) {
    obs::registry().counter("core.admission.admitted").add();
  } else {
    obs::registry().counter("core.admission.rejected").add();
  }
  obs::emit(obs::TraceEvent("admission")
                .field("op", op)
                .field("workflow", workflow_id)
                .field("now_s", now_s)
                .field("admitted", decision.admitted)
                .field("peak_load", decision.peak_load)
                .field("reason", decision.reason));
}

}  // namespace

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {}

AdmissionController::Candidate AdmissionController::candidate(
    const workload::Workflow& workflow) const {
  Candidate built;
  built.workflow_id_ = workflow.id;
  built.name_ = workflow.name;
  built.deadline_s_ = workflow.deadline_s;
  DecompositionConfig decomposition_config;
  decomposition_config.cluster = config_.cluster;
  decomposition_config.mode = config_.decomposition_mode;
  const DeadlineDecomposer decomposer(decomposition_config);
  const DecompositionResult decomposition = decomposer.decompose(workflow);
  built.status_ = decomposition.status;
  if (!decomposition.ok()) return built;

  const double slot_seconds = config_.cluster.slot_seconds;
  built.jobs_.reserve(static_cast<std::size_t>(workflow.dag.num_nodes()));
  for (dag::NodeId v = 0; v < workflow.dag.num_nodes(); ++v) {
    const JobWindow& window =
        decomposition.windows[static_cast<std::size_t>(v)];
    const workload::JobSpec& spec =
        workflow.jobs[static_cast<std::size_t>(v)];
    AdmittedJob job;
    job.ref = workload::WorkflowJobRef{workflow.id, v};
    job.lp_job.uid = workflow.id * 100000 + v;
    job.lp_job.release_slot = release_slot_of(window.start_s, slot_seconds);
    job.lp_job.deadline_slot =
        std::max(job.lp_job.release_slot,
                 deadline_slot_of(window.deadline_s, slot_seconds));
    job.lp_job.demand = spec.total_demand();
    job.lp_job.width =
        workload::scale(spec.max_parallel_demand(), slot_seconds);
    built.jobs_.push_back(std::move(job));
  }
  return built;
}

AdmissionDecision AdmissionController::decide(const Candidate& candidate,
                                              double now_s) const {
  AdmissionDecision decision;
  if (candidate.status_ != DecomposeStatus::kOk) {
    // Not an idle cluster's peak of 0: a federation cell that cannot even
    // decompose the workflow must never look like the best target.
    decision.peak_load = std::numeric_limits<double>::infinity();
    decision.reason = std::string("decomposition failed: ") +
                      to_string(candidate.status_);
    return decision;
  }

  const double slot_seconds = config_.cluster.slot_seconds;
  const int now_slot = release_slot_of(now_s, slot_seconds);
  std::vector<LpJob> lp_jobs;
  int last_slot = now_slot;
  auto append = [&](const AdmittedJob& job, bool already_admitted) {
    if (job.complete) return;
    LpJob clipped = job.lp_job;
    clipped.release_slot = std::max(clipped.release_slot, now_slot);
    clipped.deadline_slot = std::max(clipped.deadline_slot,
                                     clipped.release_slot);
    if (already_admitted) {
      // Mid-flight jobs may have made progress the controller cannot see
      // (progress feedback is complete_job only). Extend their windows
      // minimally — like the runtime scheduler does for late jobs — so a
      // stale window registers as load, not as hard infeasibility that
      // would block every future admission.
      widen_to_min_slots(clipped);
    }
    last_slot = std::max(last_slot, clipped.deadline_slot);
    lp_jobs.push_back(clipped);
  };
  for (const AdmittedJob& job : admitted_) append(job, true);
  for (const AdmittedJob& job : candidate.jobs_) append(job, false);

  const double fraction =
      std::clamp(config_.deadline_cap_fraction, 0.05, 1.0);
  const std::vector<workload::ResourceVec> caps(
      static_cast<std::size_t>(last_slot - now_slot + 1),
      workload::scale(config_.cluster.capacity, slot_seconds * fraction));
  const FlowPlacementResult placement =
      solve_flow_placement(lp_jobs, caps, now_slot);
  decision.peak_load = placement.min_max_level;
  if (std::isinf(placement.min_max_level)) {
    decision.reason =
        "a job cannot fit its window at any load (width-limited)";
    return decision;
  }
  decision.admitted = placement.feasible;
  decision.reason = placement.feasible
                        ? "fits within the deadline capacity"
                        : "would overload the deadline capacity";
  return decision;
}

void AdmissionController::commit(const Candidate& candidate, double now_s) {
  admitted_.insert(admitted_.end(), candidate.jobs_.begin(),
                   candidate.jobs_.end());
  if (obs::enabled()) {
    obs::SpanMeta meta;
    meta.workflow_id = candidate.workflow_id_;
    meta.deadline_s = candidate.deadline_s_;
    admitted_spans_[candidate.workflow_id_] = obs::begin_span(
        "admitted", candidate.name_, obs::kNoSpan, now_s, meta);
  }
}

AdmissionDecision AdmissionController::evaluate(const Candidate& candidate,
                                                double now_s) const {
  const AdmissionDecision decision = decide(candidate, now_s);
  trace_decision("evaluate", candidate.workflow_id_, now_s, decision);
  return decision;
}

AdmissionDecision AdmissionController::evaluate(
    const workload::Workflow& workflow, double now_s) const {
  return evaluate(candidate(workflow), now_s);
}

AdmissionDecision AdmissionController::admit(
    const workload::Workflow& workflow, double now_s) {
  const Candidate built = candidate(workflow);
  const AdmissionDecision decision = decide(built, now_s);
  if (decision.admitted) commit(built, now_s);
  trace_decision("admit", built.workflow_id_, now_s, decision);
  return decision;
}

void AdmissionController::force_admit(const Candidate& candidate,
                                      double now_s) {
  if (candidate.status_ == DecomposeStatus::kOk) commit(candidate, now_s);
}

void AdmissionController::force_admit(const workload::Workflow& workflow,
                                      double now_s) {
  force_admit(candidate(workflow), now_s);
}

void AdmissionController::complete_job(int workflow_id, dag::NodeId node,
                                       double now_s) {
  bool any_pending = false;
  for (AdmittedJob& job : admitted_) {
    if (job.ref.workflow_id != workflow_id) continue;
    if (job.ref.node == node) job.complete = true;
    if (!job.complete) any_pending = true;
  }
  if (!any_pending) {
    const auto it = admitted_spans_.find(workflow_id);
    if (it != admitted_spans_.end()) {
      obs::end_span(it->second, now_s);
      admitted_spans_.erase(it);
    }
  }
}

int AdmissionController::admitted_workflows() const {
  std::set<int> ids;
  for (const AdmittedJob& job : admitted_) ids.insert(job.ref.workflow_id);
  return static_cast<int>(ids.size());
}

int AdmissionController::pending_jobs() const {
  int count = 0;
  for (const AdmissionController::AdmittedJob& job : admitted_) {
    if (!job.complete) ++count;
  }
  return count;
}

void AdmissionController::forget_workflow(int workflow_id, double now_s) {
  std::erase_if(admitted_, [workflow_id](const AdmittedJob& job) {
    return job.ref.workflow_id == workflow_id;
  });
  const auto it = admitted_spans_.find(workflow_id);
  if (it != admitted_spans_.end()) {
    obs::end_span(it->second, now_s);
    admitted_spans_.erase(it);
  }
}

void AdmissionController::on_capacity_change(
    const workload::ResourceVec& new_capacity, double now_s) {
  if (workload::fits_within(new_capacity, config_.cluster.capacity, 1e-9) &&
      workload::fits_within(config_.cluster.capacity, new_capacity, 1e-9)) {
    return;  // no change
  }
  config_.cluster.capacity = new_capacity;
  if (obs::enabled()) {
    obs::registry().counter("core.admission.capacity_changes").add();
    obs::TraceEvent event("capacity_change");
    event.field("component", "admission").field("now_s", now_s);
    for (int r = 0; r < workload::kNumResources; ++r) {
      event.field(std::string("capacity_") + workload::resource_name(r),
                  new_capacity[r]);
    }
    obs::emit(event);
  }
}

bool AdmissionController::verify_cluster(
    const workload::ClusterSpec& authoritative) const {
  if (workload::approx_equal(config_.cluster, authoritative)) return true;
  FT_LOG(kWarn) << "admission controller cluster "
                << workload::to_string(config_.cluster)
                << " differs from authoritative "
                << workload::to_string(authoritative);
  if (obs::enabled()) {
    obs::registry().counter("core.admission.config_skew").add();
    obs::emit(obs::TraceEvent("config_skew")
                  .field("component", "admission")
                  .field("configured", workload::to_string(config_.cluster))
                  .field("authoritative",
                         workload::to_string(authoritative)));
  }
  return false;
}

}  // namespace flowtime::core
