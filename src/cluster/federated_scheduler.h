// Federated FlowTime: cluster sharding with a cross-cell placement
// coordinator (DESIGN.md §13).
//
// The Stage-2 lexmin LP solves over the whole cluster, so its cost grows
// superlinearly with machine count. Federation partitions the cluster into
// N cells (cluster/partition.h), runs one full FlowTimeScheduler per cell —
// lexmin *within* a cell — and adds a greedy coordinator *across* cells:
// workflow arrivals are bin-packed onto the cell with the lowest residual
// normalized load among those whose admission check accepts the deadline
// (prune-infeasible-first), ad-hoc jobs go to the cell with the least ad-hoc
// pressure, and workflows migrate off a cell whose degradation ladder
// engages or whose plan overloads/extends deadlines. Per-cell replans are
// independent, so they can run concurrently on a runtime::SolverPool; each
// cell's planner solves against its own warm cache with a 1/N slice of the
// solver budget.
//
// Invariant: with cells = 1 the coordinator is a pass-through — same event
// order, same replan sequence, same serve calls — so the federated plan is
// byte-identical to a plain FlowTimeScheduler's. Tests pin this.
//
// Cell fault tolerance (DESIGN.md §14): the coordinator treats each cell as
// a process that can crash, hang, flap, or lose its solver (the fault_cell
// chaos family). A per-cell health state machine — healthy → suspect →
// quarantined — is driven by observed failures only (missed heartbeats
// while a cell is down, preempted solves): after K consecutive failures the
// circuit breaker trips, the cell leaves the routing set and its incomplete
// workflows fail over to surviving admitting cells via the migration path
// (forget + forced re-admission, completed work re-credited,
// ReplanCause::kFailover). Re-admission is probe-based with exponential,
// deterministically jittered backoff, so flapping cells earn growing
// quarantine windows. With no cell faults none of this machinery acts, and
// runs stay byte-identical to the pre-fault-tolerance coordinator.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/partition.h"
#include "core/admission.h"
#include "core/flowtime_scheduler.h"
#include "fault/plan.h"
#include "obs/span.h"
#include "runtime/solver_pool.h"
#include "sim/scheduler.h"
#include "util/backoff.h"

namespace flowtime::cluster {

struct FederatedConfig {
  /// Per-cell scheduler template. `flowtime.cluster` is the TOTAL cluster;
  /// the partitioner derives each cell's slice, and solver budgets
  /// (`solver_budget_ms`, `solver_pivot_budget`) are divided evenly across
  /// cells so the federation spends the same solve allowance in aggregate.
  core::FlowTimeConfig flowtime;
  PartitionConfig partition;
  /// Largest fraction of the whole cluster one tenant's in-flight deadline
  /// workflows may claim (demand averaged over each workflow's window).
  /// Arrivals over quota are deferred — routed to no cell — until earlier
  /// work of the same tenant completes. >= 1 disables quotas.
  double tenant_quota_fraction = 1.0;
  /// Solve dirty cells concurrently on a SolverPool instead of one after
  /// another. Plans are unchanged either way (each cell's solve reads only
  /// its own inputs); only wall clock differs. Adoption stays in cell order
  /// on the serving thread.
  bool parallel_solve = false;
  /// Worker threads for parallel_solve; 0 = one per cell, capped at 16.
  int solver_threads = 0;
  /// Move workflows off overloaded cells (no effect with one cell).
  bool enable_migration = true;
  /// A cell whose last adopted plan exceeded this peak normalized load is
  /// considered a hotspot (1.0 = exactly full).
  double overload_threshold = 1.2;
  int max_migrations_per_slot = 1;
  /// A migrated workflow is pinned to its new cell for this many slots, so
  /// load oscillations do not bounce it between cells.
  int migration_cooldown_slots = 30;
  /// Route new workflows only to cells whose admission check accepts the
  /// deadline; fall back to the least-loaded cell (and count it) when every
  /// cell rejects. Off = pure least-load routing.
  bool admission_aware_routing = true;

  // --- Cell fault tolerance (DESIGN.md §14) ------------------------------
  /// Wall-clock ceiling (ms) on one cell's solve, merged into the solve
  /// budget at begin_replan (tightest wins) so a slow shard degrades via
  /// the escalation ladder instead of stalling the round. 0 = off, keeping
  /// purely event-driven runs bit-deterministic.
  double cell_solve_deadline_ms = 0.0;
  /// Circuit breaker K: consecutive observed failures (missed heartbeats
  /// while the cell is down, preempted solves) before the cell is
  /// quarantined and its incomplete workflows evacuated. Crashes quarantine
  /// immediately — a dead connection is unambiguous, a timeout is not.
  int quarantine_after_failures = 3;
  /// Probe-based re-admission: a quarantined cell is re-probed after a
  /// backoff that grows exponentially per failed probe, with deterministic
  /// seeded jitter (seeded from partition.seed and the cell id), so
  /// flapping cells earn growing quarantine windows.
  double probe_backoff_base_slots = 2.0;
  double probe_backoff_multiplier = 2.0;
  double probe_backoff_cap_slots = 64.0;
  double probe_backoff_jitter = 0.25;
  /// Slots of uninterrupted health after re-admission before the probe
  /// backoff resets to its base (earlier relapses keep the longer delays).
  int backoff_reset_slots = 60;
};

/// Coordinator-observed health of one cell. Healthy cells are in the
/// routing set; a suspect cell has failures pending but keeps its work; a
/// quarantined cell tripped the circuit breaker — its workflows were
/// evacuated and it re-enters only through a successful probe.
enum class CellHealth { kHealthy, kSuspect, kQuarantined };

const char* to_string(CellHealth health);

/// One cell: a FlowTimeScheduler scoped to the cell's capacity slice, the
/// cell's admission controller (the routing oracle), and the health state
/// the coordinator keeps for it.
class CellScheduler {
 public:
  CellScheduler(CellSpec spec, core::FlowTimeConfig config,
                util::BackoffConfig probe_backoff = {});

  const CellSpec& spec() const { return spec_; }
  core::FlowTimeScheduler& scheduler() { return *scheduler_; }
  const core::FlowTimeScheduler& scheduler() const { return *scheduler_; }
  core::AdmissionController& admission() { return *admission_; }

  /// Crash recovery: rebuilds the scheduler (warm cache included) and the
  /// admission ledger from the stored config — everything a real shard
  /// process holds in memory and loses when it dies. Routing and health
  /// bookkeeping live in the coordinator and survive.
  void reset();

  /// Peak normalized load of the cell's last adopted plan (0 before any).
  double last_peak_load() const;
  /// Hotspot test: degradation ladder engaged, last plan's peak above the
  /// threshold, or the last plan had to extend deadline windows (projected
  /// breach).
  bool overloaded(double threshold) const;

  /// Ad-hoc pressure bookkeeping for routing (count of live ad-hoc jobs).
  void adhoc_arrived() { ++adhoc_active_; }
  void adhoc_finished() { adhoc_active_ = std::max(adhoc_active_ - 1, 0); }
  int adhoc_active() const { return adhoc_active_; }

  /// Overload-transition latch, so `cluster.cell_overload_events` counts
  /// transitions into overload rather than every overloaded slot.
  bool latch_overload(bool now_overloaded);

  // --- Health state (owned here, driven by the coordinator) --------------
  CellHealth health() const { return health_; }
  void set_health(CellHealth health) { health_ = health; }
  /// Down = an injected crash/hang/flap phase is active: the shard serves
  /// nothing and misses heartbeats. Distinct from quarantine, which is the
  /// coordinator's verdict and outlives the fault until a probe passes.
  bool down() const { return down_; }
  void set_down(bool down, fault::CellFaultMode mode) {
    down_ = down;
    down_mode_ = mode;
    arm_cancel();
  }
  fault::CellFaultMode down_mode() const { return down_mode_; }
  /// Solver-broken = every solve attempt is preempted (fault_cell mode
  /// `solver`); the cell still serves its last plan and answers heartbeats.
  bool solver_broken() const { return solver_broken_; }
  void set_solver_broken(bool broken) {
    solver_broken_ = broken;
    arm_cancel();
  }
  /// Cooperative-preemption token handed to PendingReplan::cancel while a
  /// solver fault or downtime is active; lp::SolveBudget polls it between
  /// pivots, so injected solve failures are deterministic (no wall clocks).
  const std::atomic<bool>* cancel_flag() const { return &cancel_; }

  int consecutive_failures() const { return consecutive_failures_; }
  void count_failure() { ++consecutive_failures_; }
  void clear_failures() { consecutive_failures_ = 0; }

  util::Backoff& probe_backoff() { return probe_backoff_; }
  int probe_at_slot() const { return probe_at_slot_; }
  void set_probe_at_slot(int slot) { probe_at_slot_ = slot; }
  int healthy_since_slot() const { return healthy_since_slot_; }
  void set_healthy_since_slot(int slot) { healthy_since_slot_ = slot; }
  obs::SpanId quarantine_span = obs::kNoSpan;

 private:
  void arm_cancel() {
    cancel_.store(down_ || solver_broken_, std::memory_order_relaxed);
  }

  CellSpec spec_;
  core::FlowTimeConfig config_;  ///< kept verbatim for reset()
  std::unique_ptr<core::FlowTimeScheduler> scheduler_;
  std::unique_ptr<core::AdmissionController> admission_;
  int adhoc_active_ = 0;
  bool was_overloaded_ = false;

  CellHealth health_ = CellHealth::kHealthy;
  bool down_ = false;
  fault::CellFaultMode down_mode_ = fault::CellFaultMode::kCrash;
  bool solver_broken_ = false;
  std::atomic<bool> cancel_{false};
  int consecutive_failures_ = 0;
  util::Backoff probe_backoff_;
  int probe_at_slot_ = -1;
  int healthy_since_slot_ = -1;
};

/// The coordinator. Implements the plain sim::Scheduler typed-event
/// interface, so the simulator (and the concurrent runtime) drive it like
/// any single scheduler; internally it routes events to cells, drives the
/// per-cell begin/solve/finish replan cycle (serially or on a SolverPool),
/// and merges the per-cell allocations into one vector.
class FederatedScheduler : public sim::Scheduler {
 public:
  explicit FederatedScheduler(FederatedConfig config = {});
  ~FederatedScheduler() override;

  std::string name() const override { return "FlowTime"; }
  const workload::ClusterSpec* cluster_spec() const override {
    return &config_.flowtime.cluster;
  }

  void on_event(const sim::SchedulerEvent& event) override;
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;

  int num_cells() const { return static_cast<int>(cells_.size()); }
  const CellScheduler& cell(int i) const { return *cells_[i]; }
  /// Cell currently owning a workflow, or -1 (unknown / quota-deferred).
  int cell_of_workflow(int workflow_id) const;

  // Aggregate statistics across cells (comparable to the accessors of a
  // single FlowTimeScheduler).
  int replans() const;
  std::int64_t total_pivots() const;
  bool degraded_mode() const;
  int degraded_replans() const;
  int truncated_replans() const;
  int decomposition_fallbacks() const;

  int migrations() const { return migrations_; }
  int overload_events() const { return overload_events_; }
  int quota_deferrals() const { return quota_deferrals_; }
  int infeasible_routes() const { return infeasible_routes_; }

  // --- Fault-tolerance statistics (DESIGN.md §14) ------------------------
  /// Cell fault engagements observed (CellFaultEvent with active=true).
  int cell_failures() const { return cell_failures_; }
  /// Workflows evacuated off failed/quarantined cells and re-admitted.
  int failovers() const { return failovers_; }
  /// Transitions into quarantine (circuit-breaker trips and crashes).
  int quarantines() const { return quarantines_; }
  /// Probe re-admissions back into the routing set.
  int cell_recoveries() const { return cell_recoveries_; }
  /// Workflows currently waiting for any live cell (never stranded: the
  /// queue is retried every slot and drains as soon as a cell is routable).
  int pending_failover() const {
    return static_cast<int>(pending_failover_.size());
  }

  /// One entry per quarantine episode: [failed_slot, recovered_slot) with
  /// recovered_slot == -1 while the outage is still open. The failover
  /// bench derives recovery latency and per-cell downtime from this.
  struct CellOutage {
    int cell = -1;
    int failed_slot = 0;
    int recovered_slot = -1;
  };
  const std::vector<CellOutage>& outage_log() const { return outage_log_; }

  /// Wall seconds of each replan *round* (one allocate() that solved at
  /// least one cell): max over concurrently solved cells under
  /// parallel_solve, sum under serial. Zeros when obs is disabled. The
  /// sharding bench derives its p50/p99 from this.
  const std::vector<double>& replan_round_wall_s() const {
    return replan_round_wall_s_;
  }

 private:
  struct WorkflowInfo {
    std::shared_ptr<const workload::Workflow> workflow;
    std::vector<sim::JobUid> node_uids;
    std::vector<bool> complete;  // per DAG node
    int cell = -1;               // -1 = quota-deferred, owned by no cell
    int incomplete_jobs = 0;
    double quota_share = 0.0;  // this workflow's claim on its tenant quota
    int last_migration_slot = -1000000;
  };

  void handle_workflow_arrival(const sim::WorkflowArrivalEvent& arrival);
  /// Reacts to an injected cell fault engaging or lifting: crashes reset
  /// the cell and quarantine it immediately; hangs/flaps mark it down (the
  /// heartbeat path escalates); solver faults arm the preemption token.
  void handle_cell_fault(const sim::CellFaultEvent& event);
  /// Per-slot health pass: counts missed heartbeats of down cells toward
  /// the circuit breaker, runs due probes of quarantined cells, and resets
  /// probe backoffs after a stable healthy period. No-op with no faults.
  void update_cell_health(const sim::ClusterState& state);
  /// Trips the circuit breaker: quarantine the cell, open an outage,
  /// schedule the first probe, and evacuate its incomplete workflows.
  /// `state_lost` = crash semantics (the cell was reset; nothing to
  /// forget). Idempotent while already quarantined.
  void quarantine_cell(int cell, int slot, double now_s, const char* reason,
                       bool state_lost);
  /// Probe passed: the cell re-enters the routing set.
  void readmit_cell(int cell, int slot, double now_s);
  /// Moves every incomplete workflow off `cell` onto surviving admitting
  /// cells (pending_failover_ when none is live). With `state_lost` the
  /// cell's ad-hoc jobs are re-delivered elsewhere too.
  void fail_over_workflows(int cell, int slot, double now_s,
                           const char* cause, bool state_lost);
  /// Completes a failover for one workflow onto `target`.
  void place_failover(int workflow_id, int target, int slot, double now_s,
                      int from_cell, int jobs_moved, const char* cause);
  /// Retries pending_failover_/pending_adhoc_ once a cell is routable.
  void route_pending_failover(const sim::ClusterState& state);
  /// In the routing set: healthy and currently reachable.
  bool cell_routable(int cell) const;
  /// Ad-hoc routing: the routable cell with the least ad-hoc pressure (live
  /// ad-hoc jobs per unit of cell capacity); ties go to the lowest cell id,
  /// so routing is deterministic. -1 when no cell is routable.
  int route_adhoc() const;
  /// Cells currently quarantined (the cluster.cells_quarantined gauge).
  int quarantined_cells() const;
  /// Delivers one capacity-change broadcast to a single cell (scaled slice
  /// to the scheduler, resource units to the admission ledger).
  void apply_capacity_to_cell(int cell, const sim::CapacityChangeEvent& change);
  /// Places a known workflow on a cell: delivers the arrival (and any
  /// already-complete jobs), registers uids, and commits the demand to the
  /// cell's admission ledger whether or not it passed the feasibility gate.
  void place_workflow(int workflow_id, int cell, double now_s);
  /// Bin-pack routing: least projected peak load among admitting cells,
  /// falling back to least-loaded when all reject. Returns the cell id.
  int route_workflow(const workload::Workflow& workflow, double now_s);
  void handle_job_complete(const sim::JobCompleteEvent& event);
  /// Re-routes quota-deferred workflows whose tenant dropped under quota.
  void route_deferred(double now_s);
  /// One migration round (allocate-time): move up to
  /// `max_migrations_per_slot` workflows off overloaded cells.
  void run_migrations(const sim::ClusterState& state);
  void migrate_workflow(int workflow_id, int from, int to, double now_s,
                        int slot);
  /// Splits the global snapshot into per-cell snapshots (views of jobs the
  /// cell owns, capacity scaled by the cell's fraction), preserving view
  /// order. Views of deferred workflows are dropped — they get nothing.
  std::vector<sim::ClusterState> split_state(
      const sim::ClusterState& state) const;
  /// Runs the begin/solve/finish cycle for every dirty cell (serially or on
  /// the pool, adopting in cell order), applies the health reactions to the
  /// outcome, and records the round's wall time.
  void replan_dirty_cells(const std::vector<sim::ClusterState>& cell_states,
                          double now_s);
  double tenant_usage(int tenant) const;
  double quota_share(const workload::Workflow& workflow) const;

  FederatedConfig config_;
  std::vector<std::unique_ptr<CellScheduler>> cells_;
  std::unique_ptr<runtime::SolverPool> pool_;

  std::map<sim::JobUid, int> cell_of_uid_;
  std::map<sim::JobUid, int> workflow_of_uid_;   // deadline uids only
  std::map<int, WorkflowInfo> workflows_;        // by workflow id
  std::map<int, int> tenant_of_workflow_;        // workflow id -> tenant
  std::map<int, double> tenant_usage_;           // tenant -> summed shares
  std::vector<int> deferred_;                    // workflow ids, FIFO

  /// Workflows evacuated with no live cell to land on, FIFO; retried every
  /// slot so nothing is ever stranded.
  std::vector<int> pending_failover_;
  /// Ad-hoc arrivals kept verbatim so a crashed cell's ad-hoc jobs can be
  /// re-delivered to a survivor (the crashed shard forgot them).
  std::map<sim::JobUid, sim::AdhocArrivalEvent> adhoc_events_;
  /// Ad-hoc jobs waiting for any routable cell (uids into adhoc_events_).
  std::vector<sim::JobUid> pending_adhoc_;
  /// Last broadcast capacity change, re-applied to a cell rebuilt after a
  /// crash (the fresh admission ledger would otherwise assume the
  /// original cluster capacity through concurrent machine churn).
  std::optional<sim::CapacityChangeEvent> last_capacity_event_;

  int migrations_ = 0;
  int overload_events_ = 0;
  int quota_deferrals_ = 0;
  int infeasible_routes_ = 0;
  int cell_failures_ = 0;
  int failovers_ = 0;
  int quarantines_ = 0;
  int cell_recoveries_ = 0;
  std::vector<CellOutage> outage_log_;
  std::vector<double> replan_round_wall_s_;
};

}  // namespace flowtime::cluster
