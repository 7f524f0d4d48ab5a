// The FlowTime scheduler (paper §III-§V).
//
// Pipeline per workflow arrival:
//   decompose the workflow deadline into per-job windows (§IV), then place
//   all known deadline jobs with the lexmin-max LP (§V) so the per-slot
//   load profile is as flat as possible; everything the plan leaves free
//   goes to ad-hoc jobs immediately (the "minimally impacting" principle of
//   §II-B). Ad-hoc jobs never enter the LP — their size is unknown.
//
// Dynamic behaviour (§III-A "scheduling efficiency" and "robustness"):
//   * re-plan on workflow arrival;
//   * re-plan when a job deviates from the plan: finishes earlier or later
//     than planned (estimation error), or exhausts its estimate without
//     finishing (under-estimation, the `overrun` flag);
//   * deadline slack: the LP must finish each job `deadline_slack_s` before
//     its decomposed deadline, absorbing small estimation errors (§VII-B.2,
//     default 60 s);
//   * late jobs get minimal feasible window extensions instead of making
//     the LP infeasible — the miss is then visible in the metrics, which is
//     the honest outcome.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/decomposition.h"
#include "core/lp_formulation.h"
#include "obs/span.h"
#include "sim/scheduler.h"

namespace flowtime::core {

struct FlowTimeConfig {
  /// Must match the simulator's cluster for min-runtime computations; the
  /// simulator verifies this via Scheduler::cluster_spec at run start.
  workload::ClusterSpec cluster;
  /// Jobs are planned to finish this long before their decomposed deadline
  /// (paper Fig. 5; 0 disables the feature — the FlowTime_no_ds variant).
  double deadline_slack_s = 60.0;
  DecompositionMode decomposition_mode = DecompositionMode::kResourceDemand;
  LpScheduleOptions lp;
  /// A completion this many slots away from the plan triggers a re-plan.
  int replan_deviation_slots = 2;
  /// Fraction of the cluster the deadline plan may use (paper Fig. 1(b)
  /// draws the deadline workload under a "Resource Cap" below the full
  /// cluster, and SV notes C_t^r may vary to provide flexibility). Values
  /// < 1 reserve guaranteed headroom for ad-hoc jobs; if the reduced cap
  /// cannot fit the deadline windows the re-plan falls back to the full
  /// cluster rather than missing deadlines for the sake of headroom.
  double deadline_cap_fraction = 1.0;
  /// Issue planned allocations as whole task containers (rounding each
  /// slot's grant up to the next container multiple, bounded by width and
  /// free capacity). Required for node-granular clusters, where fractional
  /// grants quantize to zero containers and starve; harmless but
  /// unnecessary on the fluid substrate.
  bool round_to_containers = false;
  /// Plan-ahead coarsening: when the planning horizon exceeds this many
  /// slots, consecutive slots are bucketed so the LP never sees more than
  /// this many load rows. Windows round conservatively (release up,
  /// deadline down), and a bucket's allocation is spread evenly over its
  /// slots. Keeps re-plan latency bounded for day-scale deadlines.
  int max_planning_slots = 360;
  /// Wall-clock allowance for ALL LP solving of one re-plan (warm and cold
  /// rungs share it); <= 0 = unlimited. Enforced by a monotonic-clock
  /// watchdog at pivot granularity, so placements under a wall budget are
  /// machine-dependent — use solver_pivot_budget for reproducible runs.
  double solver_budget_ms = 0.0;
  /// Total simplex pivots one re-plan may spend across every solve; <= 0 =
  /// unlimited. Deterministic, unlike the wall clock: the same scenario and
  /// cap degrade at the same pivot and produce byte-identical placements.
  std::int64_t solver_pivot_budget = 0;
  /// Consecutive clean full-LP re-plans required before degraded mode ends
  /// (hysteresis; see DESIGN.md §10). Every re-plan re-attempts the full
  /// LP regardless — this only delays *reporting* recovery, so one lucky
  /// solve amid a numerical storm does not flap the mode.
  int degrade_recovery_replans = 3;
  /// Cell this scheduler serves when it runs as one shard of a federated
  /// cluster (cluster::FederatedScheduler, DESIGN.md §13); -1 = the whole
  /// cluster. Purely observational: a cell-aware scheduler stamps `cell` on
  /// its replan/arrival trace events and bumps the per-cell
  /// `cluster.cell.<id>.*` counters so multi-cell traces stay separable.
  int cell_id = -1;

  FlowTimeConfig() {
    // Scheduling needs the peak flattened and a couple of refinement
    // levels; full lexicographic refinement is reserved for benches.
    lp.lexmin.max_rounds = 6;
  }
};

/// Why a re-plan was triggered. A single re-plan may coalesce several
/// causes (bitmask); to_string renders e.g. "arrival|deviation".
enum class ReplanCause : unsigned {
  kNone = 0,
  kWorkflowArrival = 1u << 0,  // new deadline work appeared
  kDeviation = 1u << 1,        // completion far from the planned slot
  kOverrun = 1u << 2,          // estimate exhausted, job still running
  kPlanExhausted = 1u << 3,    // current slot past the planned horizon
  kStalePlan = 1u << 4,        // plan allocates to a not-yet-ready job
  kCapacityChange = 1u << 5,   // machine failed or recovered mid-run
  kTaskFailure = 1u << 6,      // a job lost work to a fault and will retry
  kMigration = 1u << 7,        // workflow moved between federation cells
  kFailover = 1u << 8,         // workflow evacuated from a failed cell
};

inline ReplanCause operator|(ReplanCause a, ReplanCause b) {
  return static_cast<ReplanCause>(static_cast<unsigned>(a) |
                                  static_cast<unsigned>(b));
}
inline ReplanCause& operator|=(ReplanCause& a, ReplanCause b) {
  return a = a | b;
}
inline bool has_cause(ReplanCause mask, ReplanCause bit) {
  return (static_cast<unsigned>(mask) & static_cast<unsigned>(bit)) != 0;
}

/// "arrival|deviation|overrun|plan_exhausted|stale_plan" subset.
std::string to_string(ReplanCause causes);

/// Why an escalation-ladder rung was abandoned (DESIGN.md §10). Attached to
/// every `solver_escalation` trace event and, for the first failed rung, to
/// the re-plan's record.
enum class DegradeReason {
  kNone = 0,
  kTimeout,           // wall-clock budget or cancellation fired mid-solve
  kIterationLimit,    // pivot budget (or solver iteration cap) exhausted
  kNumericalFailure,  // solver lost feasibility/optimality numerically
  kInfeasible,        // infeasible even after late-extension window repair
};

const char* to_string(DegradeReason reason);

/// One re-plan, as recorded in FlowTimeScheduler::replan_log() and emitted
/// as a "replan" trace event.
struct ReplanRecord {
  int slot = 0;
  ReplanCause causes = ReplanCause::kNone;
  int planned_jobs = 0;       // incomplete deadline jobs fed to the LP
  std::int64_t pivots = 0;    // simplex pivots this re-plan
  double wall_s = 0.0;        // re-plan wall time (0 when obs disabled)
  int late_extensions = 0;    // jobs whose window had to be extended
  bool capacity_exceeded = false;
  bool lp_failed = false;     // greedy fallback used (degrade_rung == 2)
  /// The lexmin round budget ran out before the load profile was fully
  /// refined: the plan is feasible and its peak exact, but its tail is not
  /// the lexicographic optimum (plan-quality warning, not a failure).
  bool lexmin_truncated = false;
  double max_normalized_load = 0.0;
  /// Escalation-ladder rung that produced this plan: 0 = warm LP,
  /// 1 = cold LP retry, 2 = greedy fallback placement.
  int degrade_rung = 0;
  /// Why rung 0 was abandoned (kNone when the warm LP succeeded). Per-rung
  /// reasons are in the `solver_escalation` trace events.
  DegradeReason degrade_reason = DegradeReason::kNone;
  /// The re-plan's shared SolveBudget ran out at some point of the ladder.
  bool budget_exhausted = false;
  /// At least one resource of the placement was answered by the TU/max-flow
  /// fast path instead of simplex (first-level-only solves that pass the
  /// lp/unimodular flow_representable gate; see LpScheduleOptions).
  bool flow_fast_path = false;
  /// The solve finished (or was preempted) but was never adopted: its
  /// inputs went stale while it ran, or its cancel token fired, so
  /// finish_replan discarded it. Synchronous runs never set this.
  bool discarded = false;
};

/// One re-plan in flight, produced by FlowTimeScheduler::begin_replan. The
/// planner/serving split (DESIGN.md §11) hinges on this type: everything
/// the heavy LP solve needs is copied in here, so `solve_replan` can run on
/// a background thread against this immutable snapshot — a plan epoch —
/// while the scheduler keeps serving the current plan. `epoch` captures the
/// planner-state version the inputs were built from; finish_replan compares
/// it against the live version to detect solves whose inputs went stale
/// mid-flight.
struct PendingReplan {
  sim::ClusterState state;      // trigger-time snapshot (slot, capacity)
  ReplanRecord record;          // slot/causes filled; solve adds the rest
  std::vector<LpJob> lp_jobs;   // planner inputs, windows already baked
  std::vector<sim::JobUid> lp_uids;
  int horizon_last_slot = 0;
  std::uint64_t epoch = 0;      // planner-state version at build time
  // Merged solver budget (config knobs + active sabotage, tightest wins).
  double budget_wall_ms = 0.0;
  std::int64_t budget_pivot_cap = 0;
  bool force_numerical = false;
  /// Optional cooperative preemption: the async runtime points this at its
  /// cancel flag so a stale solve can be aborted between pivots. Not owned.
  const std::atomic<bool>* cancel = nullptr;
};

/// What one solve produced: the plan rows (per uid, indexed from
/// PendingReplan::state.slot) ready for adoption. Carried separately from
/// the scheduler so a background solve never touches live serving state.
struct PlanSolveResult {
  std::map<sim::JobUid, std::vector<workload::ResourceVec>> rows;
  std::map<sim::JobUid, int> planned_last_slot;  // absolute slot, -1 = none
  std::int64_t pivots = 0;
  /// The solve was abandoned because PendingReplan::cancel fired — the
  /// result must be discarded, not adopted (it skipped the ladder).
  bool preempted = false;
};

/// FlowTime as a sim::Scheduler.
///
/// Threading contract: allocate() re-plans inline, single-threaded. A
/// replan driver (runtime::ConcurrentScheduler, cluster::FederatedScheduler)
/// instead calls sync_views / begin_replan / solve_replan / finish_replan /
/// serve itself, and then the class splits into two roles that may run on
/// different threads:
///   * serving — on_event / sync_views / serve / begin_replan /
///     finish_replan, all from one thread (the event-loop / simulator
///     thread);
///   * solving — `solve_replan`, which reads only the immutable config, the
///     planner's warm cache and the PendingReplan snapshot, and may
///     therefore run concurrently with serving, provided at most one solve
///     per planner is in flight.
class FlowTimeScheduler : public sim::Scheduler {
 public:
  explicit FlowTimeScheduler(FlowTimeConfig config = {});

  std::string name() const override { return "FlowTime"; }

  const workload::ClusterSpec* cluster_spec() const override {
    return &config_.cluster;
  }

  /// FlowTime consumes the typed event API natively (the legacy virtuals
  /// are bypassed entirely).
  void on_event(const sim::SchedulerEvent& event) override;
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;

  // --- Planner / serving split (DESIGN.md §11) ---------------------------
  // The one replan cycle: begin_replan -> solve_replan -> finish_replan.
  // allocate() runs it inline; the replan drivers run the same three steps
  // with the solve moved to a background thread. These are building
  // blocks, not a general API: begin/finish must run on the serving thread,
  // and finish_replan must see every begin_replan exactly once (or the
  // pending plan be explicitly abandoned via abandon_replan).

  /// True when some event since the last re-plan invalidated the plan.
  bool dirty() const { return dirty_; }
  /// Causes accumulated since the last re-plan (merged into the next one).
  ReplanCause pending_causes() const { return pending_causes_; }
  /// Version counter of the planner inputs: bumped by every event that
  /// changes what a re-plan would see. A solve built at epoch E is stale
  /// once planner_epoch() > E.
  std::uint64_t planner_epoch() const { return planner_epoch_; }

  /// Starts a re-plan: snapshots planner inputs into a PendingReplan and
  /// clears the dirty flag. Serving thread only.
  PendingReplan begin_replan(const sim::ClusterState& state);
  /// The heavy step against this planner's own warm cache. Touches no
  /// serving state, so a driver may run it on a solver thread while the
  /// serving thread keeps serving — one solve per planner at a time.
  PlanSolveResult solve_replan(PendingReplan& pending) {
    return solve_replan(config_, &warm_cache_, pending);
  }
  /// The same step as a free function of its arguments: bucketing,
  /// escalation ladder, LP solves. `warm_cache` must not be shared with a
  /// concurrent solve. Updates pending.record in place, including its wall
  /// time (measured only while obs is enabled).
  static PlanSolveResult solve_replan(const FlowTimeConfig& config,
                                      PlacementWarmCache* warm_cache,
                                      PendingReplan& pending);
  /// Adopts the solve when its snapshot is still current — no event bumped
  /// planner_epoch() since begin_replan — and its cancel token did not
  /// preempt it: installs the rows, updates counters, the replan log, the
  /// degraded-mode state machine and observability. Otherwise discards it
  /// through abandon_replan. Returns whether the plan was adopted; only
  /// the plan rows are moved out of `solved`, its counters stay readable.
  /// Serving thread only. `now_s` is adoption time (== pending.state.now_s
  /// on the synchronous path; later under async adoption).
  bool finish_replan(const PendingReplan& pending, PlanSolveResult&& solved,
                     double now_s);
  /// Accounts a solve that was discarded unadopted (stale or preempted):
  /// the attempt shows up in replans_discarded()/total_pivots() and the
  /// replan log so solver work is never silently unattributed, and the
  /// planner is re-marked dirty with the discarded solve's causes so the
  /// driver immediately re-bases a fresh solve — a discard must never
  /// swallow its trigger. Serving thread only.
  void abandon_replan(const PendingReplan& pending,
                      const PlanSolveResult& solved);

  /// First half of allocate(): syncs job state from the authoritative views
  /// (remaining estimates, readiness, the overrun latch, plan-exhaustion).
  /// May mark the scheduler dirty. Idempotent for a given state. A replan
  /// driver calls this before deciding whether to start a solve; plain
  /// allocate() calls it internally.
  void sync_views(const sim::ClusterState& state);
  /// Second half of allocate(): issues allocations from the current plan
  /// (deadline shares, then max-min fair ad-hoc leftover). Never solves.
  std::vector<sim::Allocation> serve(const sim::ClusterState& state);

  /// Decomposed job deadlines (without slack), for evaluation: every
  /// scheduler in a comparison is judged against these milestones.
  const std::map<workload::WorkflowJobRef, double>& job_deadlines() const {
    return job_deadlines_;
  }

  /// Decomposition of one arrived workflow (for tests and examples).
  const DecompositionResult* decomposition(int workflow_id) const;

  /// Drops one workflow's incomplete deadline jobs from the planning set
  /// (plan rows included) and marks the planner dirty with kMigration. The
  /// federation coordinator calls this on the source cell when it moves a
  /// workflow to another cell; the caller is responsible for re-delivering
  /// the workflow (arrival + completed-job events) to its new owner. The
  /// evaluation milestones in job_deadlines() are kept — the re-delivery
  /// re-derives identical values. Returns the number of incomplete jobs
  /// dropped (0 = nothing to move; the planner is left untouched).
  int forget_workflow(int workflow_id);

  /// Externally asserts a replan trigger. The federation coordinator uses
  /// this to tag a destination cell with kFailover when it re-homes an
  /// evacuated workflow (the forced arrival alone would record only
  /// kWorkflowArrival). The next adopted plan carries the cause.
  void request_replan(ReplanCause cause) { mark_dirty(cause); }

  /// Re-plans whose solution was adopted (counted at finish_replan, so
  /// sync and async runs report comparable numbers). Discarded attempts
  /// are in replans_discarded().
  int replans() const { return replans_; }
  /// Solves that ran but were abandoned unadopted (stale or preempted).
  /// Always 0 on the synchronous path.
  int replans_discarded() const { return replans_discarded_; }
  std::int64_t total_pivots() const { return total_pivots_; }

  /// The effective configuration (after construction-time adjustments).
  const FlowTimeConfig& config() const { return config_; }

  /// One record per re-plan, in order — cause tags, LP stats, fallbacks.
  /// In-process mirror of the "replan" trace events, so tests can assert on
  /// causes without parsing JSONL.
  const std::vector<ReplanRecord>& replan_log() const { return replan_log_; }

  /// Workflows whose decomposition fell back to critical-path splitting
  /// (negative slack) since construction.
  int decomposition_fallbacks() const { return decomposition_fallbacks_; }

  /// Re-plans whose lexmin solve was truncated by the round budget (see
  /// ReplanRecord::lexmin_truncated) since construction.
  int truncated_replans() const { return truncated_replans_; }

  /// Workflows re-decomposed in critical-path mode after a fault left a
  /// job's decomposed window infeasible (negative slack) since
  /// construction. See on_task_failure.
  int fault_redecompositions() const { return fault_redecompositions_; }

  /// True while the scheduler is in degraded mode: some recent re-plan
  /// needed the ladder and fewer than `degrade_recovery_replans` clean
  /// full-LP re-plans have happened since.
  bool degraded_mode() const { return degraded_mode_; }

  /// Re-plans that escalated past the warm LP (rung > 0) since construction.
  int degraded_replans() const { return degraded_replans_; }

 private:
  struct DeadlineJobState {
    sim::JobUid uid = -1;
    workload::WorkflowJobRef ref;
    int release_slot = 0;
    int lp_deadline_slot = 0;  // slack already applied
    workload::ResourceVec width{};
    workload::ResourceVec remaining{};  // estimate, synced from the view
    bool ready = true;
    bool overrun = false;
    bool complete = false;
    int planned_last_slot = -1;  // last slot with planned allocation
  };

  // Event handlers behind on_event (the former legacy virtuals).
  void handle_workflow_arrival(const workload::Workflow& workflow,
                               const std::vector<sim::JobUid>& node_uids,
                               double now_s);
  void handle_adhoc_arrival(sim::JobUid uid);
  void handle_job_complete(sim::JobUid uid, double now_s);
  void handle_capacity_change();
  void handle_task_failure(sim::JobUid uid, double now_s,
                           const sim::ResourceVec& lost_estimate,
                           double retry_at_s);
  void handle_solver_sabotage(double budget_ms, std::int64_t pivot_cap,
                              bool force_numerical_failure);

  void replan(const sim::ClusterState& state);
  void mark_dirty(ReplanCause cause) {
    dirty_ = true;
    pending_causes_ |= cause;
    // Time-derived causes (the clock walked past the planned horizon, or
    // the current plan touched a not-yet-ready job) re-assert every slot
    // until a fresh plan is adopted, and a re-plan started from the same
    // planner inputs already accounts for them. Bumping the epoch for them
    // would re-mark an in-flight solve stale every slot — a solve slower
    // than one slot would then never be adopted.
    if (cause != ReplanCause::kPlanExhausted &&
        cause != ReplanCause::kStalePlan) {
      ++planner_epoch_;
    }
  }
  /// Once per run: compare config_.cluster against the simulator's view.
  void check_cluster_skew(const sim::ClusterState& state);
  int seconds_to_release_slot(double seconds) const;
  int seconds_to_deadline_slot(double seconds) const;
  /// Minimum slots this job needs at full width.
  int min_slots_needed(const DeadlineJobState& job) const;

  FlowTimeConfig config_;
  /// Warm-start cache threaded through every solve_placement call: the
  /// final basis of one re-plan seeds the next when the LP shape (same
  /// jobs, same windows, same horizon) repeats, which is the common case
  /// for deviation/overrun re-plans. Keyed by a shape fingerprint inside
  /// solve_placement; a mismatch falls back to a cold solve. Only
  /// solve_replan touches it, so under a replan driver the solver thread
  /// owns it while a solve is in flight.
  PlacementWarmCache warm_cache_;
  bool dirty_ = false;
  ReplanCause pending_causes_ = ReplanCause::kNone;
  /// Bumped by every event that changes what a re-plan would see (arrivals,
  /// completions, failures, capacity changes, overrun latches) — the
  /// staleness yardstick for asynchronous solves. Per-slot estimate drift
  /// does not count: a plan is not stale merely because time passed.
  std::uint64_t planner_epoch_ = 0;
  bool skew_checked_ = false;
  int replans_ = 0;            // adopted plans only
  int replans_discarded_ = 0;  // stale/preempted solves, never adopted
  std::int64_t total_pivots_ = 0;
  int decomposition_fallbacks_ = 0;
  int truncated_replans_ = 0;
  int fault_redecompositions_ = 0;
  std::vector<ReplanRecord> replan_log_;
  obs::SpanId plan_span_ = obs::kNoSpan;  // current re-plan epoch

  // Degraded-mode state machine (DESIGN.md §10): entered when a re-plan
  // escalates past the warm LP, left after `degrade_recovery_replans`
  // consecutive clean full-LP re-plans.
  bool degraded_mode_ = false;
  int clean_replans_ = 0;       // consecutive rung-0 re-plans while degraded
  int degraded_replans_ = 0;    // lifetime count of rung > 0 re-plans
  obs::SpanId degraded_span_ = obs::kNoSpan;
  // Active solver sabotage injected via on_solver_sabotage (chaos testing);
  // merged into the re-plan budget. budget_ms < 0 and pivot_cap == 0 mean
  // no sabotage.
  double sabotage_budget_ms_ = -1.0;
  std::int64_t sabotage_pivot_cap_ = 0;
  bool sabotage_force_numerical_ = false;

  std::map<sim::JobUid, DeadlineJobState> deadline_jobs_;
  std::vector<sim::JobUid> adhoc_fifo_;  // arrival order
  std::map<workload::WorkflowJobRef, double> job_deadlines_;
  std::map<int, DecompositionResult> decompositions_;  // by workflow id
  /// Arrived workflows, kept so a fault can re-decompose them (the arrival
  /// callback only borrows its Workflow reference).
  std::map<int, workload::Workflow> workflows_;

  // Current plan: allocation per uid from plan_first_slot_ onwards.
  std::map<sim::JobUid, std::vector<workload::ResourceVec>> plan_;
  int plan_first_slot_ = 0;
};

}  // namespace flowtime::core
