#include "core/flowtime_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/greedy_placement.h"
#include "lp/solve_budget.h"
#include "obs/deadline_monitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace flowtime::core {

namespace {
constexpr double kTol = 1e-9;
// A completion at least this many slots from its job's planned last slot
// triggers a re-plan (kDeviation).
constexpr int kReplanDeviationSlots = 2;
// Plan-ahead coarsening: past this many slots of horizon, solve_replan
// buckets consecutive slots so the flow lexmin never sees more.
constexpr int kMaxPlanningSlots = 360;
// Degraded mode ends after this many consecutive clean flow-lexmin
// re-plans (hysteresis; DESIGN.md §10). Every re-plan re-attempts the flow
// lexmin regardless — this only delays *reporting* recovery, so one lucky
// solve amid a numerical storm does not flap the mode.
constexpr int kDegradeRecoveryReplans = 3;
// The simulator's completion tolerance: a job whose remaining estimate is
// at most this in every resource reads as overrun, not as work to plan.
constexpr double kSimTol = 1e-6;

enum class Round { kUp, kDown };

// `amount` in whole containers: rounded up to the most any resource needs,
// or down to the fewest any resource holds. A job without a container
// keeps `amount`.
workload::ResourceVec to_containers(const workload::ResourceVec& amount,
                                    const workload::ResourceVec& container,
                                    Round round) {
  double containers = round == Round::kUp
                          ? 0.0
                          : std::numeric_limits<double>::infinity();
  bool sized = false;
  for (int r = 0; r < workload::kNumResources; ++r) {
    if (container[r] <= kTol) continue;
    const double ratio = amount[r] / container[r];
    containers = round == Round::kUp
                     ? std::max(containers, std::ceil(ratio - kTol))
                     : std::min(containers, std::floor(ratio + kTol));
    sized = true;
  }
  return sized ? workload::scale(container, containers) : amount;
}
}

std::string to_string(ReplanCause causes) {
  std::string out;
  auto append = [&](ReplanCause bit, const char* label) {
    if (!has_cause(causes, bit)) return;
    if (!out.empty()) out += "|";
    out += label;
  };
  append(ReplanCause::kWorkflowArrival, "arrival");
  append(ReplanCause::kDeviation, "deviation");
  append(ReplanCause::kOverrun, "overrun");
  append(ReplanCause::kPlanExhausted, "plan_exhausted");
  append(ReplanCause::kStalePlan, "stale_plan");
  append(ReplanCause::kCapacityChange, "capacity_change");
  append(ReplanCause::kTaskFailure, "task_failure");
  append(ReplanCause::kMigration, "migration");
  append(ReplanCause::kFailover, "failover");
  if (out.empty()) out = "none";
  return out;
}

const char* to_string(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::kNone:
      return "none";
    case DegradeReason::kTimeout:
      return "timeout";
    case DegradeReason::kIterationLimit:
      return "iteration_limit";
    case DegradeReason::kNumericalFailure:
      return "numerical_failure";
    case DegradeReason::kInfeasible:
      return "infeasible";
  }
  return "?";
}

FlowTimeScheduler::FlowTimeScheduler(FlowTimeConfig config)
    : config_(std::move(config)) {}

void FlowTimeScheduler::on_event(const sim::SchedulerEvent& event) {
  std::visit(
      [this](const auto& e) {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, sim::WorkflowArrivalEvent>) {
          handle_workflow_arrival(*e.workflow, e.node_uids, e.now_s);
        } else if constexpr (std::is_same_v<E, sim::AdhocArrivalEvent>) {
          // Ad-hoc jobs never enter the plan; serve() finds them in the
          // views and splits the leftover among them.
        } else if constexpr (std::is_same_v<E, sim::JobCompleteEvent>) {
          handle_job_complete(e.uid, e.now_s);
        } else if constexpr (std::is_same_v<E, sim::CapacityChangeEvent>) {
          handle_capacity_change();
        } else if constexpr (std::is_same_v<E, sim::TaskFailureEvent>) {
          handle_task_failure(e.uid, e.now_s, e.lost_estimate, e.retry_at_s);
        } else if constexpr (std::is_same_v<E, sim::SolverSabotageEvent>) {
          handle_solver_sabotage(e.budget_ms, e.pivot_cap,
                                 e.force_numerical_failure);
        } else {
          // Cell faults are federation-level; the single-cell core ignores
          // them (cluster/federated_scheduler intercepts before delivery).
          static_assert(std::is_same_v<E, sim::CellFaultEvent>);
        }
      },
      event);
}

void FlowTimeScheduler::handle_workflow_arrival(
    const workload::Workflow& workflow,
    const std::vector<sim::JobUid>& node_uids, double now_s) {
  DecompositionConfig decomposition_config;
  decomposition_config.cluster = config_.cluster;
  decomposition_config.mode = config_.decomposition_mode;
  const DeadlineDecomposer decomposer(decomposition_config);
  DecompositionResult decomposition = decomposer.decompose(workflow);
  if (obs::enabled()) {
    obs::registry().counter("core.workflow_arrivals").add();
    if (decomposition.used_fallback) {
      obs::registry().counter("core.decomposition_fallbacks").add();
    }
    obs::TraceEvent event("workflow_arrival");
    event.field("workflow", workflow.id)
        .field("now_s", now_s)
        .field("jobs", workflow.dag.num_nodes())
        .field("deadline_s", workflow.deadline_s)
        .field("decompose_status", to_string(decomposition.status))
        .field("used_fallback", decomposition.used_fallback)
        .field("min_makespan_s", decomposition.min_makespan_s);
    if (config_.cell_id >= 0) event.field("cell", config_.cell_id);
    obs::emit(event);
  }
  if (!decomposition.ok()) {
    // Structurally broken workflow: fall back to the raw workflow deadline
    // for every job so they at least stay schedulable.
    FT_LOG(kError) << "decomposition failed for workflow " << workflow.id
                   << " (" << to_string(decomposition.status)
                   << "); using the workflow deadline for every job";
    decomposition.windows.assign(
        static_cast<std::size_t>(workflow.dag.num_nodes()),
        JobWindow{workflow.start_s, workflow.deadline_s});
  }

  if (obs::enabled()) {
    // Monitored against the raw Stage-1 milestones (without scheduler
    // slack): those are what the evaluation judges, so risk is honest.
    obs::deadline_monitor().track_workflow(workflow.id, workflow.start_s,
                                           workflow.deadline_s);
  }
  const double slot_s = config_.cluster.slot_seconds;
  const int slack_slots =
      static_cast<int>(std::round(config_.deadline_slack_s / slot_s));
  for (dag::NodeId v = 0; v < workflow.dag.num_nodes(); ++v) {
    const JobWindow& window =
        decomposition.windows[static_cast<std::size_t>(v)];
    const workload::JobSpec& spec =
        workflow.jobs[static_cast<std::size_t>(v)];
    DeadlineJobState job;
    job.uid = node_uids[static_cast<std::size_t>(v)];
    job.ref = workload::WorkflowJobRef{workflow.id, v};
    job.release_slot = release_slot_of(window.start_s, slot_s);
    const int deadline_slot = deadline_slot_of(window.deadline_s, slot_s);
    // Slack must not erase the window entirely.
    job.lp_deadline_slot =
        std::max(job.release_slot, deadline_slot - slack_slots);
    job.width = workload::scale(spec.max_parallel_demand(), slot_s);
    job.remaining = spec.total_demand();
    if (obs::enabled()) {
      obs::deadline_monitor().track_job(
          workflow.id, v, window.start_s, window.deadline_s,
          min_slots(job.remaining, job.width) * slot_s);
    }
    deadline_jobs_[job.uid] = job;
    job_deadlines_[job.ref] = window.deadline_s;
  }
  decompositions_[workflow.id] = std::move(decomposition);
  workflows_[workflow.id] = workflow;  // kept for fault re-decomposition
  mark_dirty(ReplanCause::kWorkflowArrival);
}

void FlowTimeScheduler::handle_job_complete(sim::JobUid uid, double now_s) {
  const auto it = deadline_jobs_.find(uid);
  if (it == deadline_jobs_.end()) {
    return;  // ad-hoc completion frees leftover capacity only; no plan impact
  }
  const DeadlineJobState& job = it->second;
  // A deadline job leaving the planning set changes what the next solve
  // sees, whether or not it triggers one: any in-flight solve is now stale.
  ++planner_epoch_;
  if (obs::enabled()) {
    obs::deadline_monitor().complete_job(job.ref.workflow_id, job.ref.node,
                                         now_s);
  }
  // The slot that just ended.
  const int completion_slot =
      deadline_slot_of(now_s, config_.cluster.slot_seconds);
  if (job.planned_last_slot >= 0 &&
      std::abs(completion_slot - job.planned_last_slot) >=
          kReplanDeviationSlots) {
    // Early or late versus the plan: capacity freed up or borrowed;
    // re-flatten the remainder.
    mark_dirty(ReplanCause::kDeviation);
  }
  plan_.erase(uid);
  deadline_jobs_.erase(it);
}

void FlowTimeScheduler::handle_capacity_change() {
  // The next allocate() snapshot carries the new capacity, so the re-plan
  // automatically flattens the remaining deadline work under it (SV: C_t^r
  // may vary). A failure shrinks the budget — the LP may now need late
  // extensions; a recovery widens it — the plan can relax again.
  mark_dirty(ReplanCause::kCapacityChange);
}

void FlowTimeScheduler::handle_task_failure(
    sim::JobUid uid, double now_s, const sim::ResourceVec& lost_estimate,
    double retry_at_s) {
  const auto it = deadline_jobs_.find(uid);
  if (it == deadline_jobs_.end()) {
    // Ad-hoc: no plan to repair; the simulator re-runs the lost work and
    // the max-min fair sweep keeps feeding the job.
    return;
  }
  DeadlineJobState& job = it->second;
  // Re-credit the lost work and clear the overrun latch: the estimate grew
  // back, so "estimate exhausted" no longer describes the job, and a later
  // genuine overrun must be able to re-trigger its own re-plan.
  job.remaining = workload::add(job.remaining, lost_estimate);
  job.overrun = false;
  mark_dirty(ReplanCause::kTaskFailure);

  // Negative slack check: can this job still make its decomposed window,
  // given it cannot run again before retry_at_s? If not, the per-level
  // split this workflow arrived with is dead — fall back to critical-path
  // decomposition (paper footnote 1) and relax every incomplete sibling's
  // LP deadline to the fallback windows. If even those are infeasible the
  // re-plan extends windows minimally and the deadline monitor reports the
  // breach — renegotiation, not silent failure.
  const double slot_s = config_.cluster.slot_seconds;
  const double earliest_end = std::max(now_s, retry_at_s) +
                              min_slots(job.remaining, job.width) * slot_s;
  if (earliest_end <= (job.lp_deadline_slot + 1) * slot_s + kTol) return;
  const auto wf_it = workflows_.find(job.ref.workflow_id);
  if (wf_it == workflows_.end()) return;
  if (decompositions_[job.ref.workflow_id].used_fallback) {
    return;  // this workflow already runs on the fallback windows
  }
  DecompositionConfig decomposition_config;
  decomposition_config.cluster = config_.cluster;
  decomposition_config.mode = DecompositionMode::kCriticalPath;
  const DeadlineDecomposer decomposer(decomposition_config);
  DecompositionResult fallback = decomposer.decompose(wf_it->second);
  if (!fallback.ok()) return;
  fallback.used_fallback = true;
  const int slack_slots =
      static_cast<int>(std::round(config_.deadline_slack_s / slot_s));
  int relaxed = 0;
  for (auto& [other_uid, other] : deadline_jobs_) {
    (void)other_uid;
    if (other.ref.workflow_id != job.ref.workflow_id) continue;
    const JobWindow& window =
        fallback.windows[static_cast<std::size_t>(other.ref.node)];
    const int deadline_slot = deadline_slot_of(window.deadline_s, slot_s);
    const int lp_slot =
        std::max(other.release_slot, deadline_slot - slack_slots);
    if (lp_slot > other.lp_deadline_slot) {
      other.lp_deadline_slot = lp_slot;
      ++relaxed;
    }
  }
  ++fault_redecompositions_;
  decompositions_[job.ref.workflow_id] = std::move(fallback);
  FT_LOG(kInfo) << "FlowTime: fault on workflow " << job.ref.workflow_id
                << " job " << job.ref.node
                << " left its window infeasible; re-decomposed on the "
                   "critical path ("
                << relaxed << " windows relaxed)";
  if (obs::enabled()) {
    obs::registry().counter("core.fault_redecompositions").add();
    obs::emit(obs::TraceEvent("fault_redecompose")
                  .field("workflow", job.ref.workflow_id)
                  .field("node", job.ref.node)
                  .field("now_s", now_s)
                  .field("retry_at_s", retry_at_s)
                  .field("relaxed_windows", relaxed));
  }
}

void FlowTimeScheduler::handle_solver_sabotage(double budget_ms,
                                               std::int64_t pivot_cap,
                                               bool force_numerical_failure) {
  // Stored, not acted on: the sabotage tightens (or, on lift, releases)
  // the budget of every re-plan that starts while it is active. It never
  // triggers a re-plan by itself — that would let the chaos layer change
  // *when* the scheduler plans, not just how hard planning is.
  sabotage_budget_ms_ = budget_ms;
  sabotage_pivot_cap_ = pivot_cap > 0 ? pivot_cap : 0;
  sabotage_force_numerical_ = force_numerical_failure;
}

int FlowTimeScheduler::forget_workflow(int workflow_id) {
  int dropped = 0;
  for (auto it = deadline_jobs_.begin(); it != deadline_jobs_.end();) {
    if (it->second.ref.workflow_id != workflow_id) {
      ++it;
      continue;
    }
    ++dropped;
    plan_.erase(it->first);
    it = deadline_jobs_.erase(it);
  }
  decompositions_.erase(workflow_id);
  workflows_.erase(workflow_id);
  if (dropped == 0) return 0;
  // The deadline monitor keeps its entries: the coordinator re-delivers the
  // workflow to its new cell, whose arrival handler registers the same
  // workflow id again, and the monitor keeps its state — finished jobs keep
  // their verdicts when their completions are re-delivered.
  mark_dirty(ReplanCause::kMigration);
  if (obs::enabled()) {
    obs::registry().counter("core.workflows_forgotten").add();
    obs::TraceEvent event("workflow_forgotten");
    event.field("workflow", workflow_id).field("jobs_dropped", dropped);
    if (config_.cell_id >= 0) event.field("cell", config_.cell_id);
    obs::emit(event);
  }
  return dropped;
}

void FlowTimeScheduler::replan(const sim::ClusterState& state) {
  // The synchronous path: the three phases of the planner/serving split
  // run back to back on the calling thread. The replan drivers call the
  // same phases with the solve moved to a background thread; keeping one
  // code path is what makes sync-vs-async parity testable at all.
  PendingReplan pending = begin_replan(state);
  PlanSolveResult solved = solve_replan(pending);
  finish_replan(pending, std::move(solved), state.now_s);
}

PendingReplan FlowTimeScheduler::begin_replan(const sim::ClusterState& state) {
  PendingReplan pending;
  pending.state = state;
  pending.epoch = planner_epoch_;
  pending.record.slot = state.slot;
  pending.record.causes = pending_causes_;
  pending_causes_ = ReplanCause::kNone;
  dirty_ = false;

  int horizon_last_slot = state.slot;
  for (const auto& [uid, job] : deadline_jobs_) {
    LpJob lp_job;
    lp_job.uid = uid;
    lp_job.width = job.width;
    lp_job.demand = job.remaining;
    if (job.overrun) {
      // Estimate exhausted but the job is still running: keep it fed one
      // slot's width at a time until ground truth finishes it.
      lp_job.demand = job.width;
    }
    // A ready job has effectively arrived (paper: a_i is the arrival time):
    // its parents are done, so the decomposed level start is only a guide,
    // not a constraint. Opening the window to "now" lets the lexmin LP
    // front-load under cross-workflow contention while still deferring work
    // when the profile is loose.
    lp_job.release_slot = job.ready ? state.slot
                                    : std::max(job.release_slot, state.slot);
    if (!job.ready) {
      // Parents still running: pushing the release past their estimated
      // finish avoids planning allocations the simulator would waste.
      int parent_slots = 0;
      for (const auto& [puid, parent] : deadline_jobs_) {
        (void)puid;
        if (parent.ref.workflow_id != job.ref.workflow_id) continue;
        if (parent.release_slot < job.release_slot &&
            parent.lp_deadline_slot <= job.lp_deadline_slot) {
          // Heuristic: any unfinished earlier-level job of this workflow.
          parent_slots = std::max(parent_slots,
                                  min_slots(parent.remaining, parent.width));
        }
      }
      lp_job.release_slot = std::max(lp_job.release_slot,
                                     state.slot + std::max(parent_slots, 1));
    }
    lp_job.deadline_slot = job.lp_deadline_slot;
    // Late (or about to be): extend to the minimal feasible window. The
    // deadline metrics will record the miss; the LP stays feasible.
    if (widen_to_min_slots(lp_job)) ++pending.record.late_extensions;
    horizon_last_slot = std::max(horizon_last_slot, lp_job.deadline_slot);
    pending.lp_jobs.push_back(lp_job);
    pending.lp_uids.push_back(uid);
  }
  pending.horizon_last_slot = horizon_last_slot;
  pending.record.planned_jobs = static_cast<int>(pending.lp_jobs.size());

  // Merged solver budget: the configured wall clock and any chaos-injected
  // sabotage (`fault_solver`), tightest limit winning. Snapshotted here so
  // the solve can run on another thread without reading live sabotage
  // state.
  double wall_ms = config_.solver_budget_ms;
  if (sabotage_budget_ms_ >= 0.0) {
    wall_ms = wall_ms > 0.0 ? std::min(wall_ms, sabotage_budget_ms_)
                            : sabotage_budget_ms_;
  }
  pending.budget_wall_ms = wall_ms;
  pending.budget_pivot_cap = sabotage_pivot_cap_;
  pending.force_numerical = sabotage_force_numerical_;
  return pending;
}

bool FlowTimeScheduler::finish_replan(const PendingReplan& pending,
                                      PlanSolveResult&& solved,
                                      double now_s) {
  // The one adoption rule. A solve whose inputs changed after
  // begin_replan (some event bumped the epoch) or that its cancel token
  // stopped early would install a plan for a planner state that no longer
  // exists; the old plan keeps serving and the trigger is re-asserted.
  if (pending.epoch != planner_epoch_ || solved.preempted) {
    abandon_replan(pending, solved);
    return false;
  }
  // Counted at adoption, not at begin_replan: discarded attempts go to
  // replans_discarded_ instead, so replans() means "plans served" in both
  // sync and async runs and the comparison numbers stay comparable.
  ++replans_;
  ReplanRecord record = pending.record;
  record.pivots = solved.pivots;
  total_pivots_ += solved.pivots;

  // Adopt: the solved rows replace the serving plan wholesale, indexed
  // from the slot the inputs were snapshotted at (plans are time-indexed,
  // so late adoption under the async runtime still aligns).
  plan_ = std::move(solved.rows);
  plan_first_slot_ = pending.state.slot;
  for (auto& [uid, job] : deadline_jobs_) {
    (void)uid;
    job.planned_last_slot = -1;
  }
  for (const auto& [uid, last] : solved.planned_last_slot) {
    const auto it = deadline_jobs_.find(uid);
    if (it != deadline_jobs_.end()) it->second.planned_last_slot = last;
  }
  if (record.lexmin_truncated) {
    ++truncated_replans_;
    FT_LOG(kInfo) << "FlowTime replan: the solver budget cut the lexmin; "
                     "the plan's load profile tail is unrefined";
  }
  if (record.capacity_exceeded) {
    FT_LOG(kInfo) << "FlowTime: deadline windows need "
                  << record.max_normalized_load
                  << "x capacity; some deadlines will be missed";
  }
  replan_log_.push_back(record);

  // Degraded-mode state machine (hysteresis; DESIGN.md §10). Every re-plan
  // re-attempts the flow lexmin, so recovery needs no special trigger —
  // just kDegradeRecoveryReplans consecutive clean rung-0 plans.
  if (record.degrade_rung > 0) {
    ++degraded_replans_;
    clean_replans_ = 0;
    if (obs::enabled()) {
      obs::registry().counter("core.degraded_replans").add();
    }
    if (!degraded_mode_) {
      degraded_mode_ = true;
      FT_LOG(kWarn) << "FlowTime: entering degraded mode at slot "
                    << record.slot << " (rung " << record.degrade_rung
                    << ", " << to_string(record.degrade_reason) << ")";
      if (obs::enabled()) {
        obs::registry().counter("core.degrade_enters").add();
        obs::emit(obs::TraceEvent("degrade_enter")
                      .field("slot", record.slot)
                      .field("rung", record.degrade_rung)
                      .field("reason", to_string(record.degrade_reason)));
        degraded_span_ = obs::begin_span(
            "degraded", "degraded@slot" + std::to_string(record.slot),
            obs::kNoSpan, now_s);
      }
    }
  } else if (degraded_mode_) {
    ++clean_replans_;
    if (clean_replans_ >= kDegradeRecoveryReplans) {
      degraded_mode_ = false;
      clean_replans_ = 0;
      FT_LOG(kInfo) << "FlowTime: leaving degraded mode at slot "
                    << record.slot;
      if (obs::enabled()) {
        obs::emit(obs::TraceEvent("degrade_exit")
                      .field("slot", record.slot)
                      .field("clean_replans", kDegradeRecoveryReplans));
        obs::end_span(degraded_span_, now_s);
        degraded_span_ = obs::kNoSpan;
      }
    }
  }

  if (obs::enabled()) {
    // Each re-plan opens a new plan epoch; the previous one ends here and
    // the simulator's end_open_spans closes the last epoch of the run.
    obs::end_span(plan_span_, now_s);
    std::string plan_name =
        "plan#" + std::to_string(replans_) + ":" + to_string(record.causes);
    if (config_.cell_id >= 0) {
      plan_name = "cell" + std::to_string(config_.cell_id) + ":" + plan_name;
    }
    plan_span_ = obs::begin_span("plan", plan_name, obs::kNoSpan, now_s);
    obs::registry().counter("core.replans").add();
    obs::registry().counter("core.replan_pivots").add(record.pivots);
    obs::registry().histogram("core.replan_seconds").observe(record.wall_s);
    if (record.lp_failed) {
      obs::registry().counter("core.replan_lp_failures").add();
    }
    if (record.lexmin_truncated) {
      obs::registry().counter("core.replan_lexmin_truncated").add();
    }
    if (config_.cell_id >= 0) {
      const std::string cell_prefix =
          "cluster.cell." + std::to_string(config_.cell_id) + ".";
      obs::registry().counter(cell_prefix + "replans").add();
      obs::registry().counter(cell_prefix + "replan_pivots")
          .add(record.pivots);
      obs::registry().gauge(cell_prefix + "load")
          .set(record.max_normalized_load);
    }
    // Starved rows: deadline jobs with estimated work left (and not
    // overrun) that the adopted plan gives nothing, so no plan-exhaustion
    // trigger will ever see them.
    int unplanned_jobs = 0;
    for (const auto& [uid, job] : deadline_jobs_) {
      (void)uid;
      if (!job.overrun && job.planned_last_slot < 0 &&
          !workload::is_zero(job.remaining, kSimTol)) {
        ++unplanned_jobs;
      }
    }
    obs::registry().counter("core.unplanned_jobs").add(unplanned_jobs);
    obs::TraceEvent event("replan");
    event.field("slot", record.slot)
        .field("cause", to_string(record.causes))
        .field("planned_jobs", record.planned_jobs)
        .field("pivots", record.pivots)
        .field("wall_s", record.wall_s)
        .field("late_extensions", record.late_extensions)
        .field("capacity_exceeded", record.capacity_exceeded)
        .field("lp_failed", record.lp_failed)
        .field("lexmin_truncated", record.lexmin_truncated)
        .field("unplanned_jobs", unplanned_jobs)
        .field("max_normalized_load", record.max_normalized_load)
        .field("degrade_rung", record.degrade_rung)
        .field("degrade_reason", to_string(record.degrade_reason))
        .field("budget_exhausted", record.budget_exhausted)
        .field("flow_fast_path", record.flow_fast_path)
        .field("degraded_mode", degraded_mode_);
    if (config_.cell_id >= 0) event.field("cell", config_.cell_id);
    obs::emit(event);
  }
  return true;
}

void FlowTimeScheduler::abandon_replan(const PendingReplan& pending,
                                       const PlanSolveResult& solved) {
  // The solve ran (and spent pivots) but its inputs went stale — or a
  // cancel token preempted it. Account for the work, record the attempt as
  // discarded, and leave every piece of serving state untouched: the old
  // plan keeps serving until a fresh solve adopts.
  ReplanRecord record = pending.record;
  record.pivots = solved.pivots;
  record.discarded = true;
  ++replans_discarded_;
  total_pivots_ += solved.pivots;
  replan_log_.push_back(record);
  // Discarding must not swallow the triggers: begin_replan cleared the
  // dirty flag and the causes when it snapshotted, so put them back. The
  // event that staled this solve bumped the epoch but need not have marked
  // dirty itself (an on-time completion, for instance) — without the
  // re-assert the original trigger would never be re-planned and its jobs
  // would starve with no plan rows. No epoch bump: the next begin_replan
  // snapshots at the live epoch and is valid by construction.
  dirty_ = true;
  pending_causes_ |= pending.record.causes;
  if (obs::enabled()) {
    obs::registry().counter("core.replans_discarded").add();
    obs::emit(obs::TraceEvent("replan_discarded")
                  .field("slot", record.slot)
                  .field("cause", to_string(record.causes))
                  .field("epoch", static_cast<std::int64_t>(pending.epoch))
                  .field("pivots", record.pivots)
                  .field("preempted", solved.preempted));
  }
}

PlanSolveResult FlowTimeScheduler::solve_replan(
    const FlowTimeConfig& /*config*/, PlacementWarmCache* /*warm_cache*/,
    PendingReplan& pending) {
  std::optional<obs::ScopedTimer> timer;
  if (obs::enabled()) timer.emplace(&pending.record.wall_s);
  PlanSolveResult out;
  if (pending.lp_jobs.empty()) return out;
  ReplanRecord& record = pending.record;
  const sim::ClusterState& state = pending.state;
  // Bucketing rewrites the job windows in place; work on a copy so the
  // snapshot in `pending` stays what begin_replan produced.
  std::vector<LpJob> lp_jobs = pending.lp_jobs;
  const int horizon_last_slot = pending.horizon_last_slot;

  const int num_slots = horizon_last_slot - state.slot + 1;
  // Plan-ahead coarsening: bucket `bucket` consecutive slots into one
  // planning slot so the LP's load-row count stays bounded for day-scale
  // horizons. Windows round conservatively (release up, deadline down);
  // bucket allocations are spread evenly over their slots at issue time.
  const int bucket = (num_slots + kMaxPlanningSlots - 1) / kMaxPlanningSlots;
  int coarse_horizon = 1;
  if (bucket > 1) {
    for (LpJob& job : lp_jobs) {
      const int rel_release = job.release_slot - state.slot;
      const int rel_deadline = job.deadline_slot - state.slot;
      job.release_slot = (rel_release + bucket - 1) / bucket;
      job.deadline_slot =
          std::max((rel_deadline + 1) / bucket - 1, job.release_slot);
      job.width = workload::scale(job.width, bucket);
      // Conservative rounding may have shrunk the window below the job's
      // need; extend minimally (the fine-grained pass did the same).
      widen_to_min_slots(job);
      coarse_horizon = std::max(coarse_horizon, job.deadline_slot + 1);
    }
  } else {
    coarse_horizon = num_slots;
  }
  const std::vector<workload::ResourceVec> caps(
      static_cast<std::size_t>(coarse_horizon),
      workload::scale(state.capacity, bucket > 1 ? bucket : 1));
  const int lp_first_slot = bucket > 1 ? 0 : state.slot;

  // --- Escalation ladder (DESIGN.md §10) ---------------------------------
  // One budget shared by every solve of this re-plan. The limits were
  // merged (config knobs + chaos sabotage, tightest winning) at
  // begin_replan time so this function reads no live scheduler state; the
  // cancel token is how the concurrent runtime preempts a solve whose
  // inputs went stale mid-flight.
  lp::SolveBudget budget;
  budget.set_wall_clock_ms(pending.budget_wall_ms);
  budget.set_pivot_cap(pending.budget_pivot_cap);
  budget.set_cancel_token(pending.cancel);
  const auto preempted = [&pending] {
    return pending.cancel != nullptr &&
           pending.cancel->load(std::memory_order_relaxed);
  };
  // Passed only when a limit exists, so the unlimited path is bit-identical
  // to a build without budgets.
  lp::SolveBudget* const solve_budget = budget.limited() ? &budget : nullptr;

  const auto classify = [](lp::SolveStatus status) {
    switch (status) {
      case lp::SolveStatus::kTimeout:
        return DegradeReason::kTimeout;
      case lp::SolveStatus::kIterationLimit:
        return DegradeReason::kIterationLimit;
      case lp::SolveStatus::kInfeasible:
        return DegradeReason::kInfeasible;
      default:
        return DegradeReason::kNumericalFailure;
    }
  };

  // Rung 0: the flow lexmin.
  LpSchedule schedule;
  if (pending.force_numerical) {
    // Chaos injection: pretend the flow solve lost its numerics so the
    // greedy rung is exercised end to end.
    schedule.status = lp::SolveStatus::kNumericalFailure;
  } else {
    schedule = solve_placement(lp_jobs, caps, lp_first_slot, solve_budget);
  }
  out.pivots += schedule.pivots;

  if (!schedule.ok() && preempted()) {
    // Cancelled, not broken: the inputs went stale while rung 0 ran.
    // Falling back would spend the greedy rung on a plan nobody will adopt.
    out.preempted = true;
    return out;
  }
  if (!schedule.ok()) {
    // Rung 1: the LP-free guaranteed fallback. Cannot itself fail; the
    // plan may be less flat and may oversubscribe (capacity_exceeded),
    // which the allocator's proportional shrink absorbs. Re-running the
    // deterministic flow solve would fail the same way, so there is no
    // retry rung.
    const DegradeReason reason = classify(schedule.status);
    record.degrade_rung = 1;
    record.degrade_reason = reason;
    record.lp_failed = true;
    FT_LOG(kInfo) << "FlowTime replan: solver rung 0 failed ("
                  << to_string(reason) << "); greedy fallback (rung 1) for "
                  << lp_jobs.size() << " jobs";
    if (obs::enabled()) {
      obs::registry().counter("core.solver_escalations").add();
      obs::emit(obs::TraceEvent("solver_escalation")
                    .field("slot", state.slot)
                    .field("from_rung", 0)
                    .field("to_rung", 1)
                    .field("reason", to_string(reason))
                    .field("budget_pivots", budget.pivots_used()));
    }
    schedule = greedy_placement(lp_jobs, caps, lp_first_slot);
  }

  record.budget_exhausted = budget.limited() && budget.exhausted();
  record.capacity_exceeded = schedule.capacity_exceeded;
  record.lexmin_truncated = schedule.lexmin_truncated;
  record.max_normalized_load = schedule.max_normalized_load;
  record.flow_fast_path = schedule.flow_fast_path;
  for (std::size_t j = 0; j < lp_jobs.size(); ++j) {
    auto& row = out.rows[pending.lp_uids[j]];
    if (bucket > 1) {
      // Spread each planning bucket's allocation evenly over its slots.
      row.assign(static_cast<std::size_t>(schedule.num_slots) *
                     static_cast<std::size_t>(bucket),
                 workload::ResourceVec{});
      for (int t = 0; t < schedule.num_slots; ++t) {
        const workload::ResourceVec per_slot = workload::scale(
            schedule.allocation[j][static_cast<std::size_t>(t)],
            1.0 / bucket);
        for (int s = 0; s < bucket; ++s) {
          row[static_cast<std::size_t>(t * bucket + s)] = per_slot;
        }
      }
    } else {
      row = schedule.allocation[j];
    }
    int last = -1;
    for (int t = 0; t < static_cast<int>(row.size()); ++t) {
      if (!workload::is_zero(row[static_cast<std::size_t>(t)], kTol)) {
        last = t;
      }
    }
    out.planned_last_slot[pending.lp_uids[j]] =
        last < 0 ? -1 : state.slot + last;
  }
  return out;
}

std::vector<sim::Allocation> FlowTimeScheduler::allocate(
    const sim::ClusterState& state) {
  sync_views(state);
  if (dirty_) replan(state);
  return serve(state);
}

void FlowTimeScheduler::sync_views(const sim::ClusterState& state) {
  // Sync authoritative view state.
  for (const sim::JobView& view : state.active) {
    if (view.kind != sim::JobKind::kDeadline) continue;
    auto it = deadline_jobs_.find(view.uid);
    if (it == deadline_jobs_.end()) continue;
    DeadlineJobState& job = it->second;
    job.remaining = view.remaining_estimate;
    job.ready = view.ready;
    if (view.overrun && !job.overrun) {
      job.overrun = true;
      mark_dirty(ReplanCause::kOverrun);  // needs more than planned
    }
    // Plan exhausted while the job still runs: re-plan.
    if (!dirty_ && job.planned_last_slot >= 0 &&
        state.slot > job.planned_last_slot) {
      mark_dirty(ReplanCause::kPlanExhausted);
    }
  }
}

std::vector<sim::Allocation> FlowTimeScheduler::serve(
    const sim::ClusterState& state) {
  // An ad-hoc job sitting out a fault backoff is not ready; a grant would
  // be wasted, so it gets no share of the leftover.
  std::vector<const sim::JobView*> adhoc_views;
  for (const sim::JobView& view : state.active) {
    if (view.kind != sim::JobKind::kDeadline && view.ready) {
      adhoc_views.push_back(&view);
    }
  }

  if (obs::enabled()) {
    // Feed the deadline-risk monitor. The projection is the width-limited
    // earliest completion from now — FlowTime *plans* completions near the
    // deadline on purpose (minus slack), so the planned end is not a risk
    // signal; whether the job could still finish in time at full width is.
    // Exception: when the plan itself lands past the Stage-1 deadline
    // (late extension, capacity overrun), the plan is the honest forecast.
    const double slot_s = config_.cluster.slot_seconds;
    for (const auto& [uid, job] : deadline_jobs_) {
      (void)uid;
      double projected =
          state.now_s + min_slots(job.remaining, job.width) * slot_s;
      if (job.planned_last_slot >= 0) {
        const double planned_end = (job.planned_last_slot + 1) * slot_s;
        const auto deadline_it = job_deadlines_.find(job.ref);
        const bool planned_late =
            deadline_it != job_deadlines_.end() &&
            planned_end > deadline_it->second + kTol;
        // In degraded mode the plan came from a fallback rung, so its
        // quality guarantee is gone: the planned end is the honest forecast
        // even when it nominally beats the deadline.
        if (planned_late || degraded_mode_) {
          projected = std::max(projected, planned_end);
        }
      }
      obs::deadline_monitor().update_job(job.ref.workflow_id, job.ref.node,
                                         state.now_s, projected);
    }
  }

  std::vector<sim::Allocation> result;
  workload::ResourceVec issued{};

  // Deadline jobs take their planned share; allocations for jobs whose
  // parents are still running are withheld (they would be wasted) and the
  // window shift is handled by the next re-plan. When an over-subscribed
  // plan (capacity_exceeded) asks for more than the slot holds, every job
  // is scaled down proportionally so lateness spreads evenly instead of
  // starving whichever workflow happens to sort last.
  std::vector<std::pair<const sim::JobView*, workload::ResourceVec>> planned;
  workload::ResourceVec planned_total{};
  for (const sim::JobView& view : state.active) {
    if (view.kind != sim::JobKind::kDeadline) continue;
    const auto plan_it = plan_.find(view.uid);
    if (plan_it == plan_.end()) continue;
    const int index = state.slot - plan_first_slot_;
    if (index < 0 ||
        index >= static_cast<int>(plan_it->second.size())) {
      continue;
    }
    workload::ResourceVec amount = workload::elementwise_min(
        plan_it->second[static_cast<std::size_t>(index)], view.width);
    if (workload::is_zero(amount, kTol)) continue;
    if (!view.ready) {
      mark_dirty(ReplanCause::kStalePlan);  // replan next slot
      continue;
    }
    if (config_.round_to_containers) {
      // Round up to whole containers so node-granular execution never
      // quantizes a thin planned slice down to nothing; width still caps.
      amount = workload::elementwise_min(
          to_containers(amount, view.container, Round::kUp), view.width);
    }
    planned_total = workload::add(planned_total, amount);
    planned.emplace_back(&view, amount);
  }
  double shrink = 1.0;
  for (int r = 0; r < workload::kNumResources; ++r) {
    if (planned_total[r] > state.capacity[r]) {
      shrink = std::min(shrink, state.capacity[r] / planned_total[r]);
    }
  }
  for (const auto& [view, amount] : planned) {
    workload::ResourceVec scaled = workload::scale(amount, shrink);
    if (config_.round_to_containers && shrink < 1.0 - kTol) {
      // Shrinking broke the container multiples; round back down so the
      // grant still materializes as whole containers.
      scaled = to_containers(scaled, view->container, Round::kDown);
    }
    issued = workload::add(issued, scaled);
    result.push_back(sim::Allocation{view->uid, scaled});
  }

  // Ad-hoc jobs absorb the leftover, max-min fair by width fraction:
  // first a uniform fraction lambda of every job's width, then a FIFO
  // sweep for the remainder.
  if (!adhoc_views.empty()) {
    std::sort(adhoc_views.begin(), adhoc_views.end(),
              [](const sim::JobView* a, const sim::JobView* b) {
                return a->arrival_s < b->arrival_s;
              });
    workload::ResourceVec leftover = workload::clamp_nonnegative(
        workload::sub(state.capacity, issued));
    workload::ResourceVec total_width{};
    for (const sim::JobView* view : adhoc_views) {
      total_width = workload::add(total_width, view->width);
    }
    double lambda = 1.0;
    for (int r = 0; r < workload::kNumResources; ++r) {
      if (total_width[r] > kTol) {
        lambda = std::min(lambda, leftover[r] / total_width[r]);
      }
    }
    std::vector<workload::ResourceVec> grants(adhoc_views.size());
    for (std::size_t i = 0; i < adhoc_views.size(); ++i) {
      grants[i] = workload::scale(adhoc_views[i]->width, lambda);
      leftover = workload::clamp_nonnegative(
          workload::sub(leftover, grants[i]));
    }
    for (std::size_t i = 0; i < adhoc_views.size(); ++i) {
      const workload::ResourceVec extra = workload::elementwise_min(
          workload::clamp_nonnegative(
              workload::sub(adhoc_views[i]->width, grants[i])),
          leftover);
      grants[i] = workload::add(grants[i], extra);
      leftover = workload::clamp_nonnegative(workload::sub(leftover, extra));
    }
    for (std::size_t i = 0; i < adhoc_views.size(); ++i) {
      if (config_.round_to_containers) {
        grants[i] =
            to_containers(grants[i], adhoc_views[i]->container, Round::kDown);
      }
      if (!workload::is_zero(grants[i], kTol)) {
        result.push_back(sim::Allocation{adhoc_views[i]->uid, grants[i]});
      }
    }
  }
  return result;
}

}  // namespace flowtime::core
