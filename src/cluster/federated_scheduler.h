// Federated FlowTime: cluster sharding with a cross-cell placement
// coordinator (DESIGN.md §13).
//
// The Stage-2 lexmin LP solves over the whole cluster, so its cost grows
// superlinearly with machine count. Federation partitions the cluster into
// N cells (cluster/partition.h), runs one full FlowTimeScheduler per cell —
// lexmin *within* a cell — and adds a greedy coordinator *across* cells:
// workflow arrivals are bin-packed onto the cell with the lowest projected
// peak load among those whose admission check accepts the deadline
// (prune-infeasible-first), ad-hoc jobs go to the cell with the least ad-hoc
// pressure, and at most one workflow per slot migrates off a cell whose
// degradation ladder engages or whose plan overloads/extends deadlines.
// Per-cell replans are independent: the serving thread runs each dirty
// cell's replan cycle in turn, and each cell's planner solves against its
// own warm cache with a 1/N slice of the solver budget.
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
#include "sim/scheduler.h"
#include "util/backoff.h"

namespace flowtime::cluster {

/// Coordinator settings. Routing is always admission-aware, at most one
/// workflow migrates per slot, and the hotspot threshold (1.2), migration
/// cooldown (30 slots), circuit breaker (3 failures) and probe schedule are
/// fixed (§13–14).
struct FederatedConfig {
  /// Per-cell scheduler template. `flowtime.cluster` is the TOTAL cluster;
  /// the partitioner derives each cell's slice, and the wall-clock solver
  /// budget (`solver_budget_ms`) is divided evenly across cells so the
  /// federation spends the same solve allowance in aggregate.
  core::FlowTimeConfig flowtime;
  PartitionConfig partition;
  /// Unread: every cell solves on the serving thread. Declared only because
  /// bench_e2e's fed_failover scenario still sets them; they go with that
  /// benchmark's next change (ROADMAP item 4).
  bool parallel_solve = false;
  int solver_threads = 0;
};

/// Coordinator-observed health of one cell. Healthy cells are in the
/// routing set; a suspect cell has failures pending but keeps its work; a
/// quarantined cell tripped the circuit breaker — its workflows were
/// evacuated and it re-enters only through a successful probe.
enum class CellHealth { kHealthy, kSuspect, kQuarantined };

/// One cell: a FlowTimeScheduler scoped to the cell's capacity slice, the
/// cell's admission controller (the routing oracle), and the routing and
/// health state the coordinator keeps for it.
class CellScheduler {
 public:
  CellScheduler(CellSpec cell_spec, core::FlowTimeConfig config,
                util::BackoffConfig probe);

  core::FlowTimeScheduler& scheduler() { return *scheduler_; }
  const core::FlowTimeScheduler& scheduler() const { return *scheduler_; }

  /// Crash recovery: rebuilds the scheduler (warm cache included), the
  /// admission ledger and its cached candidates from the stored config —
  /// everything a real shard process holds in memory and loses when it
  /// dies. Routing and health bookkeeping live in the coordinator and
  /// survive.
  void reset();

  /// Peak normalized load of the cell's last adopted plan (0 before any).
  double last_peak_load() const;
  /// Hotspot test: degradation ladder engaged, last plan's peak above 1.2,
  /// or the last plan had to extend deadline windows (projected breach).
  bool overloaded() const;

  /// An injected fault engages or lifts: mode `solver` sets
  /// `solver_broken`, every other mode `down`; either one arms `cancel`.
  void set_fault(fault::CellFaultMode mode, bool active);

  const CellSpec spec;
  core::AdmissionController admission;
  /// Each live workflow decomposed on `admission`'s grid, by workflow id,
  /// built at the first verdict or placement that needs it. Dropped with
  /// the cell's capacity changes and crashes, and with the workflow when
  /// it finishes.
  std::map<int, core::AdmissionController::Candidate> candidates;
  /// Live ad-hoc jobs, the ad-hoc routing pressure.
  int adhoc_active = 0;
  /// Overload latch, so `cluster.cell_overload_events` counts transitions
  /// into overload rather than every overloaded slot.
  bool was_overloaded = false;

  // --- Health state (driven by the coordinator) ---------------------------
  CellHealth health = CellHealth::kHealthy;
  // `down` and `solver_broken` are written only by set_fault.
  /// Down = an injected crash/hang/flap phase is active: the shard serves
  /// nothing and misses heartbeats. Distinct from quarantine, which is the
  /// coordinator's verdict and outlives the fault until a probe passes.
  bool down = false;
  /// Every solve attempt is preempted (fault_cell mode `solver`); the cell
  /// still serves its last plan and answers heartbeats.
  bool solver_broken = false;
  /// Cooperative-preemption token handed to PendingReplan::cancel while a
  /// solver fault or downtime is active; lp::SolveBudget polls it, so
  /// injected solve failures are deterministic (no wall clocks).
  std::atomic<bool> cancel{false};
  int consecutive_failures = 0;
  util::Backoff probe_backoff;
  int probe_at_slot = -1;  ///< next probe of a quarantined cell, -1 = none
  int healthy_since_slot = -1;
  obs::SpanId quarantine_span = obs::kNoSpan;

 private:
  core::FlowTimeConfig config_;  ///< kept verbatim for reset()
  std::unique_ptr<core::FlowTimeScheduler> scheduler_;
};

/// The coordinator. Implements the plain sim::Scheduler typed-event
/// interface, so the simulator (and the concurrent runtime) drive it like
/// any single scheduler; internally it routes events to cells, drives the
/// per-cell begin/solve/finish replan cycle on the serving thread, and
/// merges the per-cell allocations into one vector.
class FederatedScheduler : public sim::Scheduler {
 public:
  explicit FederatedScheduler(FederatedConfig config = {});

  std::string name() const override { return "FlowTime"; }
  const workload::ClusterSpec* cluster_spec() const override {
    return &config_.flowtime.cluster;
  }

  void on_event(const sim::SchedulerEvent& event) override;
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;

  int num_cells() const { return static_cast<int>(cells_.size()); }
  const CellScheduler& cell(int i) const { return *cells_[i]; }

  /// Cell `cell`'s admission verdict on the live workflow `workflow_id` at
  /// `now_s`, the answer routing and the migration scan read: the cell's
  /// cached Candidate, evaluated against what the cell has admitted.
  core::AdmissionDecision verdict(int cell, int workflow_id, double now_s);

  // Aggregate statistics across cells (comparable to the accessors of a
  // single FlowTimeScheduler).
  int replans() const;
  std::int64_t total_pivots() const;
  int degraded_replans() const;
  int truncated_replans() const;

  int migrations() const { return migrations_; }
  int overload_events() const { return overload_events_; }

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
  /// least one cell): the sum of its cells' solves. Zeros when obs is
  /// disabled. The sharding bench derives its p50/p99 from this.
  const std::vector<double>& replan_round_wall_s() const {
    return replan_round_wall_s_;
  }

 private:
  struct WorkflowInfo {
    std::shared_ptr<const workload::Workflow> workflow;
    std::vector<sim::JobUid> node_uids;
    std::vector<bool> complete;  // per DAG node
    int cell = -1;               // -1 = parked for failover, owned by no cell
    int incomplete_jobs = 0;
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
  /// The failure rule: one observed failure (missed heartbeat, failed
  /// solve) counts toward the breaker, a healthy cell turns suspect, and
  /// the K-th consecutive failure quarantines the cell.
  void record_failure(int cell, int slot, double now_s, const char* reason);
  /// The recovery rule: a suspect cell that is reachable and has a working
  /// solver is healthy again.
  void recover_if_alive(int cell, int slot);
  /// Trips the circuit breaker: quarantine the cell, open an outage,
  /// schedule the first probe, and evacuate its incomplete workflows.
  /// `state_lost` = crash semantics (the cell was reset; nothing to
  /// forget). Idempotent while already quarantined.
  void quarantine_cell(int cell, int slot, double now_s, const char* reason,
                       bool state_lost);
  /// Probe passed: the cell re-enters the routing set.
  void readmit_cell(int cell, int slot, double now_s);
  /// Moves every incomplete workflow off `cell` onto surviving admitting
  /// cells (pending_failover_ when none is live). A down cell hands its
  /// ad-hoc jobs to the ad-hoc router too.
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
  /// to the scheduler, resource units to the admission ledger) and drops
  /// the cell's cached candidates, which were decomposed at the old
  /// capacity.
  void apply_capacity_to_cell(int cell, const sim::CapacityChangeEvent& change);
  /// The cell's Candidate for a live workflow, decomposed on first use.
  const core::AdmissionController::Candidate& candidate_of(int cell,
                                                           int workflow_id);
  /// Places a known workflow on a cell: delivers the arrival (and any
  /// already-complete jobs), registers uids, and commits the demand to the
  /// cell's admission ledger whether or not it passed the feasibility gate.
  void place_workflow(int workflow_id, int cell, double now_s);
  /// Bin-pack routing of a known workflow: least projected peak load
  /// among admitting cells, falling back to the least-loaded live cell
  /// when all reject. Returns the cell id, or -1 when every cell is down or
  /// quarantined.
  int route_workflow(int workflow_id, double now_s);
  void handle_job_complete(const sim::JobCompleteEvent& event);
  /// One migration round (allocate-time): moves at most one workflow off
  /// an overloaded cell.
  void run_migrations(const sim::ClusterState& state);
  void migrate_workflow(int workflow_id, int from, int to, double now_s,
                        int slot);
  /// Splits the global snapshot into per-cell snapshots (views of jobs the
  /// cell owns, capacity scaled by the cell's fraction), preserving view
  /// order. Views of jobs no cell owns (parked for failover) are dropped —
  /// they get nothing.
  std::vector<sim::ClusterState> split_state(
      const sim::ClusterState& state) const;
  /// Runs the begin/solve/finish cycle for every reachable dirty cell, in
  /// cell order, then applies the health reactions to the outcome and
  /// records the round's wall time.
  void replan_dirty_cells(const std::vector<sim::ClusterState>& cell_states,
                          double now_s);

  FederatedConfig config_;
  std::vector<std::unique_ptr<CellScheduler>> cells_;

  std::map<sim::JobUid, int> cell_of_uid_;
  std::map<sim::JobUid, int> workflow_of_uid_;   // deadline uids only
  std::map<int, WorkflowInfo> workflows_;        // by workflow id

  /// Workflows evacuated with no live cell to land on, FIFO; retried every
  /// slot so nothing is ever stranded.
  std::vector<int> pending_failover_;
  /// Ad-hoc arrivals kept verbatim so an evacuated cell's ad-hoc jobs can
  /// be re-delivered to a survivor.
  std::map<sim::JobUid, sim::AdhocArrivalEvent> adhoc_events_;
  /// Ad-hoc jobs waiting for any routable cell (uids into adhoc_events_).
  std::vector<sim::JobUid> pending_adhoc_;
  /// Last broadcast capacity change, re-applied to a cell rebuilt after a
  /// crash (the fresh admission ledger would otherwise assume the
  /// original cluster capacity through concurrent machine churn).
  std::optional<sim::CapacityChangeEvent> last_capacity_event_;

  int migrations_ = 0;
  int overload_events_ = 0;
  int cell_failures_ = 0;
  int failovers_ = 0;
  int quarantines_ = 0;
  int cell_recoveries_ = 0;
  std::vector<CellOutage> outage_log_;
  std::vector<double> replan_round_wall_s_;
};

}  // namespace flowtime::cluster
