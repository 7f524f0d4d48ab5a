#include "cluster/federated_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <variant>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace flowtime::cluster {

namespace {

// Probe schedule of a quarantined cell (DESIGN.md §14): 2 slots, doubling
// per failed probe up to 64, jittered by +/-25%; 60 slots of uninterrupted
// health reset it to the base delay.
constexpr double kProbeBaseSlots = 2.0;
constexpr double kProbeMultiplier = 2.0;
constexpr double kProbeCapSlots = 64.0;
constexpr double kProbeJitter = 0.25;
constexpr int kProbeResetSlots = 60;
// A cell whose last adopted plan peaks above this normalized load is a
// hotspot (1.0 = exactly full).
constexpr double kOverloadThreshold = 1.2;
// A migrated (or failed-over) workflow stays on its new cell this many
// slots, so load oscillations do not bounce it between cells.
constexpr int kMigrationCooldownSlots = 30;
// Circuit breaker K (DESIGN.md §14): consecutive observed failures (missed
// heartbeats while the cell is down, preempted solves) before the cell is
// quarantined and its incomplete workflows evacuated. Crashes quarantine
// immediately — a dead connection is unambiguous, a timeout is not.
constexpr int kQuarantineAfterFailures = 3;

core::AdmissionConfig admission_config_for(
    const CellSpec& spec, const core::FlowTimeConfig& flowtime) {
  core::AdmissionConfig config;
  config.cluster = spec.cluster;
  config.decomposition_mode = flowtime.decomposition_mode;
  return config;
}

int backoff_delay_slots(util::Backoff& backoff) {
  return std::max(1, static_cast<int>(std::lround(backoff.next())));
}

// Sums one planner statistic over every cell.
template <typename T>
T sum_over_cells(const std::vector<std::unique_ptr<CellScheduler>>& cells,
                 T (core::FlowTimeScheduler::*stat)() const) {
  T total = 0;
  for (const auto& cell : cells) total += (cell->scheduler().*stat)();
  return total;
}

}  // namespace

CellScheduler::CellScheduler(CellSpec cell_spec, core::FlowTimeConfig config,
                             util::BackoffConfig probe)
    : spec(cell_spec),
      admission(admission_config_for(cell_spec, config)),
      probe_backoff(probe),
      config_(std::move(config)),
      scheduler_(std::make_unique<core::FlowTimeScheduler>(config_)) {}

void CellScheduler::reset() {
  scheduler_ = std::make_unique<core::FlowTimeScheduler>(config_);
  admission = core::AdmissionController(admission_config_for(spec, config_));
  candidates.clear();
  adhoc_active = 0;
  was_overloaded = false;
}

double CellScheduler::last_peak_load() const {
  const auto& log = scheduler_->replan_log();
  return log.empty() ? 0.0 : log.back().max_normalized_load;
}

bool CellScheduler::overloaded() const {
  if (scheduler_->degraded_mode()) return true;
  const auto& log = scheduler_->replan_log();
  if (log.empty()) return false;
  return log.back().max_normalized_load > kOverloadThreshold ||
         log.back().late_extensions > 0;
}

void CellScheduler::set_fault(fault::CellFaultMode mode, bool active) {
  if (mode == fault::CellFaultMode::kSolverFail) {
    solver_broken = active;
  } else {
    down = active;
  }
  cancel.store(down || solver_broken, std::memory_order_relaxed);
}

FederatedScheduler::FederatedScheduler(FederatedConfig config)
    : config_(std::move(config)) {
  config_.partition.cells = std::max(config_.partition.cells, 1);
  const CellPartitioner partitioner(config_.partition);
  const auto specs = partitioner.partition(config_.flowtime.cluster);
  const int n = static_cast<int>(specs.size());
  cells_.reserve(specs.size());
  for (const CellSpec& spec : specs) {
    core::FlowTimeConfig cell_config = config_.flowtime;
    cell_config.cluster = spec.cluster;
    // Invisible at cells = 1: no cell stamps on traces/counters, so the
    // single-cell federation is byte-for-byte a plain FlowTimeScheduler.
    cell_config.cell_id = n > 1 ? spec.id : -1;
    // Each cell gets a 1/N slice of the wall-clock allowance so the
    // federation spends the same aggregate budget as one whole-cluster
    // scheduler.
    if (cell_config.solver_budget_ms > 0.0) cell_config.solver_budget_ms /= n;
    // Each cell's probe backoff draws jitter from its own stream, seeded
    // from the partition seed and cell id, so recovery schedules are
    // reproducible and uncorrelated across cells.
    util::BackoffConfig probe;
    probe.base = kProbeBaseSlots;
    probe.multiplier = kProbeMultiplier;
    probe.cap = kProbeCapSlots;
    probe.jitter = kProbeJitter;
    probe.seed = config_.partition.seed ^
                 (0x9e3779b97f4a7c15ull *
                  static_cast<std::uint64_t>(spec.id + 1));
    cells_.push_back(
        std::make_unique<CellScheduler>(spec, cell_config, probe));
  }
}

int FederatedScheduler::replans() const {
  return sum_over_cells(cells_, &core::FlowTimeScheduler::replans);
}

std::int64_t FederatedScheduler::total_pivots() const {
  return sum_over_cells(cells_, &core::FlowTimeScheduler::total_pivots);
}

int FederatedScheduler::degraded_replans() const {
  return sum_over_cells(cells_, &core::FlowTimeScheduler::degraded_replans);
}

int FederatedScheduler::truncated_replans() const {
  return sum_over_cells(cells_, &core::FlowTimeScheduler::truncated_replans);
}

void FederatedScheduler::on_event(const sim::SchedulerEvent& event) {
  if (const auto* arrival = std::get_if<sim::WorkflowArrivalEvent>(&event)) {
    handle_workflow_arrival(*arrival);
    return;
  }
  if (const auto* adhoc = std::get_if<sim::AdhocArrivalEvent>(&event)) {
    // The event is kept verbatim so an evacuated cell's ad-hoc jobs can be
    // re-delivered to a survivor.
    adhoc_events_[adhoc->uid] = *adhoc;
    const int best = route_adhoc();
    if (best < 0) {
      // No live cell right now; parked until one re-enters the routing set.
      pending_adhoc_.push_back(adhoc->uid);
      return;
    }
    cell_of_uid_[adhoc->uid] = best;
    ++cells_[best]->adhoc_active;
    cells_[best]->scheduler().on_event(event);
    return;
  }
  if (const auto* complete = std::get_if<sim::JobCompleteEvent>(&event)) {
    handle_job_complete(*complete);
    return;
  }
  if (const auto* change = std::get_if<sim::CapacityChangeEvent>(&event)) {
    // Remembered so a cell rebuilt after a crash can be brought up to date
    // with churn that happened before (or during) its downtime.
    last_capacity_event_ = *change;
    for (int i = 0; i < num_cells(); ++i) {
      apply_capacity_to_cell(i, *change);
    }
    return;
  }
  if (const auto* failure = std::get_if<sim::TaskFailureEvent>(&event)) {
    const auto it = cell_of_uid_.find(failure->uid);
    if (it != cell_of_uid_.end()) {
      cells_[it->second]->scheduler().on_event(event);
    }
    return;
  }
  if (const auto* fault = std::get_if<sim::CellFaultEvent>(&event)) {
    handle_cell_fault(*fault);
    return;
  }
  // Solver sabotage re-parametrizes every cell's solver.
  for (auto& cell : cells_) cell->scheduler().on_event(event);
}

void FederatedScheduler::apply_capacity_to_cell(
    int cell, const sim::CapacityChangeEvent& change) {
  CellScheduler& target = *cells_[cell];
  const double fraction = target.spec.fraction;
  sim::CapacityChangeEvent scaled = change;
  scaled.capacity = workload::scale(change.capacity, fraction);
  target.scheduler().on_event(sim::SchedulerEvent{scaled});
  // The event carries per-slot resource-seconds; the admission layer
  // models capacity in resource units.
  const double slot_seconds = target.spec.cluster.slot_seconds;
  target.admission.on_capacity_change(
      workload::scale(change.capacity, fraction / slot_seconds),
      change.now_s);
  target.candidates.clear();
}

const core::AdmissionController::Candidate& FederatedScheduler::candidate_of(
    int cell, int workflow_id) {
  CellScheduler& target = *cells_[cell];
  auto it = target.candidates.find(workflow_id);
  if (it == target.candidates.end()) {
    it = target.candidates
             .emplace(workflow_id, target.admission.candidate(
                                       *workflows_.at(workflow_id).workflow))
             .first;
  }
  return it->second;
}

core::AdmissionDecision FederatedScheduler::verdict(int cell, int workflow_id,
                                                    double now_s) {
  return cells_[cell]->admission.evaluate(candidate_of(cell, workflow_id),
                                          now_s);
}

bool FederatedScheduler::cell_routable(int cell) const {
  const CellScheduler& c = *cells_[cell];
  return !c.down && c.health == CellHealth::kHealthy;
}

int FederatedScheduler::route_adhoc() const {
  int best = -1;
  double best_pressure = std::numeric_limits<double>::infinity();
  for (int i = 0; i < num_cells(); ++i) {
    if (!cell_routable(i)) continue;
    const double pressure = static_cast<double>(cells_[i]->adhoc_active) /
                            std::max(cells_[i]->spec.fraction, 1e-12);
    if (pressure < best_pressure - 1e-12) {
      best = i;
      best_pressure = pressure;
    }
  }
  return best;
}

int FederatedScheduler::quarantined_cells() const {
  int quarantined = 0;
  for (const auto& c : cells_) {
    if (c->health == CellHealth::kQuarantined) ++quarantined;
  }
  return quarantined;
}

void FederatedScheduler::handle_cell_fault(const sim::CellFaultEvent& event) {
  if (event.cell < 0 || event.cell >= num_cells()) return;
  CellScheduler& cell = *cells_[event.cell];
  // A hang only marks the cell down (it looks like slowness; missed
  // heartbeats escalate it), a solver fault only arms the preemption token.
  // A lifted fault re-admits nothing: a quarantined cell rejoins only
  // through a probe, so flapping keeps hurting the flapper, not the fleet.
  cell.set_fault(event.mode, event.active);
  if (!event.active) return;
  const int slot = core::release_slot_of(
      event.now_s, config_.flowtime.cluster.slot_seconds);
  ++cell_failures_;
  if (obs::enabled()) {
    obs::registry().counter("cluster.cell_failures").add();
    obs::emit(obs::TraceEvent("cell_failed")
                  .field("cell", event.cell)
                  .field("mode", fault::to_string(event.mode))
                  .field("slot", slot)
                  .field("sim_s", event.now_s));
  }
  if (event.mode != fault::CellFaultMode::kCrash &&
      event.mode != fault::CellFaultMode::kFlap) {
    return;
  }
  // The shard's memory is gone: rebuild it empty, then replay the last
  // capacity broadcast so the fresh admission ledger tracks any machine
  // churn that already happened.
  cell.reset();
  if (last_capacity_event_.has_value()) {
    apply_capacity_to_cell(event.cell, *last_capacity_event_);
  }
  // A dead connection is an unambiguous failure signal (unlike a timeout),
  // so the breaker trips immediately.
  quarantine_cell(event.cell, slot, event.now_s, fault::to_string(event.mode),
                  /*state_lost=*/true);
}

void FederatedScheduler::update_cell_health(const sim::ClusterState& state) {
  for (int i = 0; i < num_cells(); ++i) {
    CellScheduler& cell = *cells_[i];
    if (cell.health == CellHealth::kQuarantined) {
      if (cell.probe_at_slot < 0 || state.slot < cell.probe_at_slot) continue;
      if (!cell.down && !cell.solver_broken) {
        readmit_cell(i, state.slot, state.now_s);
      } else {
        // Probe failed; the next one waits exponentially longer.
        cell.probe_at_slot =
            state.slot + backoff_delay_slots(cell.probe_backoff);
      }
      continue;
    }
    if (cell.down) {
      // Missed heartbeat: one observed failure per slot while unreachable.
      record_failure(i, state.slot, state.now_s, "heartbeat_timeout");
      continue;
    }
    // Heartbeats (and the solver) are back before the breaker tripped.
    recover_if_alive(i, state.slot);
    if (cell.health == CellHealth::kHealthy &&
        cell.probe_backoff.attempts() > 0 && cell.healthy_since_slot >= 0 &&
        state.slot - cell.healthy_since_slot >= kProbeResetSlots) {
      // Stable for long enough: future outages start from the base delay.
      cell.probe_backoff.reset();
    }
  }
}

void FederatedScheduler::record_failure(int cell_id, int slot, double now_s,
                                        const char* reason) {
  CellScheduler& cell = *cells_[cell_id];
  ++cell.consecutive_failures;
  if (cell.health == CellHealth::kHealthy) cell.health = CellHealth::kSuspect;
  if (cell.consecutive_failures >= kQuarantineAfterFailures) {
    quarantine_cell(cell_id, slot, now_s, reason, /*state_lost=*/false);
  }
}

void FederatedScheduler::recover_if_alive(int cell_id, int slot) {
  CellScheduler& cell = *cells_[cell_id];
  if (cell.health != CellHealth::kSuspect || cell.down || cell.solver_broken) {
    return;
  }
  cell.consecutive_failures = 0;
  cell.health = CellHealth::kHealthy;
  cell.healthy_since_slot = slot;
}

void FederatedScheduler::quarantine_cell(int cell_id, int slot, double now_s,
                                         const char* reason,
                                         bool state_lost) {
  CellScheduler& cell = *cells_[cell_id];
  if (cell.health == CellHealth::kQuarantined) {
    // Already quarantined (e.g. a flap's next down phase): evacuation
    // already ran and the probe schedule stands.
    return;
  }
  cell.health = CellHealth::kQuarantined;
  ++quarantines_;
  outage_log_.push_back(CellOutage{cell_id, slot, -1});
  cell.probe_at_slot = slot + backoff_delay_slots(cell.probe_backoff);
  if (obs::enabled()) {
    obs::registry().counter("cluster.cell_quarantines").add();
    obs::registry().gauge("cluster.cells_quarantined").set(
        quarantined_cells());
    cell.quarantine_span = obs::begin_span(
        "quarantine", "cell " + std::to_string(cell_id), obs::kNoSpan, now_s);
  }
  fail_over_workflows(cell_id, slot, now_s, reason, state_lost);
}

void FederatedScheduler::readmit_cell(int cell_id, int slot, double now_s) {
  CellScheduler& cell = *cells_[cell_id];
  cell.health = CellHealth::kHealthy;
  cell.consecutive_failures = 0;
  cell.probe_at_slot = -1;
  cell.healthy_since_slot = slot;
  ++cell_recoveries_;
  int downtime_slots = 0;
  for (auto it = outage_log_.rbegin(); it != outage_log_.rend(); ++it) {
    if (it->cell == cell_id && it->recovered_slot < 0) {
      it->recovered_slot = slot;
      downtime_slots = slot - it->failed_slot;
      break;
    }
  }
  if (obs::enabled()) {
    obs::registry().counter("cluster.cell_recoveries").add();
    obs::registry().gauge("cluster.cells_quarantined").set(
        quarantined_cells());
    obs::emit(obs::TraceEvent("cell_recovered")
                  .field("cell", cell_id)
                  .field("downtime_slots", downtime_slots)
                  .field("slot", slot)
                  .field("sim_s", now_s));
    obs::end_span(cell.quarantine_span, now_s);
    cell.quarantine_span = obs::kNoSpan;
  }
}

void FederatedScheduler::fail_over_workflows(int cell_id, int slot,
                                             double now_s, const char* cause,
                                             bool state_lost) {
  std::vector<int> evacuees;
  for (const auto& [workflow_id, info] : workflows_) {
    if (info.cell == cell_id && info.incomplete_jobs > 0) {
      evacuees.push_back(workflow_id);
    }
  }
  CellScheduler& cell = *cells_[cell_id];
  for (const int workflow_id : evacuees) {
    WorkflowInfo& info = workflows_.at(workflow_id);
    int jobs_moved = info.incomplete_jobs;
    if (!state_lost) {
      // The shard is alive (hung or solver-broken): drop its planning state
      // for the workflow so it cannot double-serve after recovery. A
      // crashed shard already lost everything.
      const int dropped = cell.scheduler().forget_workflow(workflow_id);
      if (dropped > 0) jobs_moved = dropped;
    }
    cell.admission.forget_workflow(workflow_id, now_s);
    for (std::size_t node = 0; node < info.node_uids.size(); ++node) {
      if (!info.complete[node]) cell_of_uid_.erase(info.node_uids[node]);
    }
    info.cell = -1;
    const int target = route_workflow(workflow_id, now_s);
    if (target < 0) {
      // No live cell: parked, retried every slot — never stranded.
      pending_failover_.push_back(workflow_id);
      continue;
    }
    place_failover(workflow_id, target, slot, now_s, cell_id, jobs_moved,
                   cause);
  }
  // A down cell (crashed, or hung possibly for good) serves nothing, so its
  // ad-hoc jobs go back to the router via the pending queue (drained the
  // same slot when a survivor exists). No progress is lost — it lives in
  // the simulator — and the old cell never sees those views again, since
  // split_state routes by cell_of_uid_. A cell quarantined for solver
  // failures still serves, so it keeps them.
  if (!cell.down) return;
  std::vector<sim::JobUid> adhocs;
  for (const auto& [uid, owner] : cell_of_uid_) {
    if (owner == cell_id &&
        workflow_of_uid_.find(uid) == workflow_of_uid_.end()) {
      adhocs.push_back(uid);
    }
  }
  for (const sim::JobUid uid : adhocs) {
    cell_of_uid_.erase(uid);
    cell.adhoc_active = std::max(cell.adhoc_active - 1, 0);
    pending_adhoc_.push_back(uid);
  }
}

void FederatedScheduler::place_failover(int workflow_id, int target, int slot,
                                        double now_s, int from_cell,
                                        int jobs_moved, const char* cause) {
  place_workflow(workflow_id, target, now_s);
  // The forced arrival marks the target dirty with kWorkflowArrival; the
  // extra cause tag attributes the next plan to the failover.
  cells_[target]->scheduler().request_replan(core::ReplanCause::kFailover);
  WorkflowInfo& info = workflows_.at(workflow_id);
  info.last_migration_slot = slot;  // migration cooldown: no instant bounce
  ++failovers_;
  if (obs::enabled()) {
    obs::registry().counter("cluster.failovers").add();
    obs::emit(obs::TraceEvent("failover")
                  .field("workflow", workflow_id)
                  .field("from_cell", from_cell)
                  .field("to_cell", target)
                  .field("jobs_moved", jobs_moved)
                  .field("cause", cause)
                  .field("sim_s", now_s));
  }
}

void FederatedScheduler::route_pending_failover(
    const sim::ClusterState& state) {
  if (!pending_failover_.empty()) {
    std::vector<int> still_pending;
    for (const int workflow_id : pending_failover_) {
      const auto it = workflows_.find(workflow_id);
      if (it == workflows_.end()) continue;  // completed while parked
      const int target = route_workflow(workflow_id, state.now_s);
      if (target < 0) {
        still_pending.push_back(workflow_id);
        continue;
      }
      place_failover(workflow_id, target, state.slot, state.now_s,
                     /*from_cell=*/-1, it->second.incomplete_jobs,
                     "pending");
    }
    pending_failover_ = std::move(still_pending);
  }
  if (!pending_adhoc_.empty()) {
    std::vector<sim::JobUid> still_pending;
    for (const sim::JobUid uid : pending_adhoc_) {
      const auto it = adhoc_events_.find(uid);
      if (it == adhoc_events_.end()) continue;  // completed while parked
      const int best = route_adhoc();
      if (best < 0) {
        still_pending.push_back(uid);
        continue;
      }
      cell_of_uid_[uid] = best;
      ++cells_[best]->adhoc_active;
      cells_[best]->scheduler().on_event(sim::SchedulerEvent{it->second});
    }
    pending_adhoc_ = std::move(still_pending);
  }
}

void FederatedScheduler::handle_workflow_arrival(
    const sim::WorkflowArrivalEvent& arrival) {
  const workload::Workflow& workflow = *arrival.workflow;
  WorkflowInfo info;
  info.workflow = arrival.workflow;
  info.node_uids = arrival.node_uids;
  info.complete.assign(arrival.node_uids.size(), false);
  info.incomplete_jobs = static_cast<int>(arrival.node_uids.size());
  workflows_[workflow.id] = std::move(info);
  for (const sim::JobUid uid : arrival.node_uids) {
    workflow_of_uid_[uid] = workflow.id;
  }

  const int cell = route_workflow(workflow.id, arrival.now_s);
  if (cell < 0) {
    // Unplaceable: every cell is down or quarantined. Parked and retried
    // each slot until a cell comes back.
    pending_failover_.push_back(workflow.id);
    return;
  }
  place_workflow(workflow.id, cell, arrival.now_s);
}

int FederatedScheduler::route_workflow(int workflow_id, double now_s) {
  if (num_cells() == 1) return cell_routable(0) ? 0 : -1;
  // Pass 0 considers only healthy cells; pass 1 (reached only when no
  // healthy cell exists) falls back to suspect cells — degraded but still
  // answering — and never to down or quarantined ones.
  for (int pass = 0; pass < 2; ++pass) {
    int best = -1;
    double best_peak = std::numeric_limits<double>::infinity();
    int fallback = -1;
    double fallback_peak = std::numeric_limits<double>::infinity();
    for (int i = 0; i < num_cells(); ++i) {
      const CellScheduler& cell = *cells_[i];
      if (cell.down || cell.health == CellHealth::kQuarantined) continue;
      const bool healthy = cell.health == CellHealth::kHealthy;
      if (pass == 0 ? !healthy : healthy) continue;
      // Projected peak load with the candidate added — the bin-pack key.
      // Infeasible cells (deadline cannot be met next to their admitted
      // work) are pruned first, DCoflow-style.
      const core::AdmissionDecision decision = verdict(i, workflow_id, now_s);
      if (decision.admitted && decision.peak_load < best_peak - 1e-12) {
        best = i;
        best_peak = decision.peak_load;
      }
      // `fallback < 0` seeds the first live candidate even when its peak is
      // infinite (width-limited or not decomposable), matching the
      // pre-health-filter behavior of defaulting to cell 0.
      if (fallback < 0 || decision.peak_load < fallback_peak - 1e-12) {
        fallback = i;
        fallback_peak = decision.peak_load;
      }
    }
    if (best >= 0) return best;
    if (fallback < 0) continue;  // no candidate in this pass
    // Every cell rejected: take the least-loaded cell anyway — the cell
    // scheduler extends windows rather than failing, and the miss stays
    // visible in the metrics.
    if (obs::enabled()) {
      obs::registry().counter("cluster.route_infeasible").add();
      obs::emit(obs::TraceEvent("route_infeasible")
                    .field("workflow", workflow_id)
                    .field("cell", fallback)
                    .field("peak_load", fallback_peak));
    }
    return fallback;
  }
  return -1;  // every cell is down or quarantined
}

void FederatedScheduler::place_workflow(int workflow_id, int cell,
                                        double now_s) {
  WorkflowInfo& info = workflows_.at(workflow_id);
  info.cell = cell;
  CellScheduler& target = *cells_[cell];
  target.scheduler().on_event(sim::SchedulerEvent{
      sim::WorkflowArrivalEvent{info.workflow, info.node_uids, now_s}});
  for (std::size_t node = 0; node < info.node_uids.size(); ++node) {
    if (info.complete[node]) {
      // Re-deliver completions so a migrated-in workflow's finished jobs
      // are not re-planned.
      target.scheduler().on_event(sim::SchedulerEvent{
          sim::JobCompleteEvent{info.node_uids[node], now_s}});
    } else {
      cell_of_uid_[info.node_uids[node]] = cell;
    }
  }
  // Commit the demand to the cell's admission view even when routing
  // placed it past the feasibility gate — the routing oracle must keep
  // seeing it. Routing or the migration scan has just computed the verdict
  // on the same cached candidate, so the commit computes none.
  target.admission.force_admit(candidate_of(cell, workflow_id), now_s);
}

void FederatedScheduler::handle_job_complete(
    const sim::JobCompleteEvent& event) {
  // A job may complete while its workflow is parked for failover (no owning
  // cell). The cell-side delivery is then skipped, but the federation-level
  // bookkeeping below must still run — completion credit is never lost.
  const auto cell_it = cell_of_uid_.find(event.uid);
  const int uid_cell = cell_it == cell_of_uid_.end() ? -1 : cell_it->second;
  if (uid_cell >= 0) {
    cells_[uid_cell]->scheduler().on_event(sim::SchedulerEvent{event});
    cell_of_uid_.erase(cell_it);
  }

  const auto wf_it = workflow_of_uid_.find(event.uid);
  if (wf_it == workflow_of_uid_.end()) {
    // Ad-hoc job: just drop the routing pressure.
    if (uid_cell >= 0) {
      CellScheduler& owner = *cells_[uid_cell];
      owner.adhoc_active = std::max(owner.adhoc_active - 1, 0);
    }
    adhoc_events_.erase(event.uid);
    return;
  }
  const int workflow_id = wf_it->second;
  workflow_of_uid_.erase(wf_it);
  auto info_it = workflows_.find(workflow_id);
  if (info_it == workflows_.end()) return;
  WorkflowInfo& info = info_it->second;
  for (std::size_t node = 0; node < info.node_uids.size(); ++node) {
    if (info.node_uids[node] != event.uid) continue;
    if (!info.complete[node]) {
      info.complete[node] = true;
      --info.incomplete_jobs;
      if (info.cell >= 0) {
        cells_[info.cell]->admission.complete_job(
            workflow_id, static_cast<dag::NodeId>(node), event.now_s);
      }
    }
    break;
  }
  if (info.incomplete_jobs <= 0) {
    if (info.cell >= 0) {
      cells_[info.cell]->admission.forget_workflow(workflow_id, event.now_s);
    }
    for (auto& cell : cells_) cell->candidates.erase(workflow_id);
    workflows_.erase(info_it);
  }
}

void FederatedScheduler::run_migrations(const sim::ClusterState& state) {
  if (num_cells() <= 1) return;
  // Overload detection runs every slot; the counter fires on transitions.
  std::vector<int> hot;
  for (int i = 0; i < num_cells(); ++i) {
    if (!cell_routable(i)) continue;  // failover, not migration, moves work
    CellScheduler& cell = *cells_[i];
    const bool overloaded = cell.overloaded();
    if (overloaded) hot.push_back(i);
    const bool transition = overloaded && !cell.was_overloaded;
    cell.was_overloaded = overloaded;
    if (transition) {
      ++overload_events_;
      if (obs::enabled()) {
        obs::registry().counter("cluster.cell_overload_events").add();
        obs::emit(obs::TraceEvent("cell_overload")
                      .field("cell", i)
                      .field("peak_load", cell.last_peak_load())
                      .field("degraded", cell.scheduler().degraded_mode()));
      }
    }
  }
  if (hot.empty()) return;

  // Remaining demand per workflow, from the authoritative views.
  std::map<int, double> remaining_by_workflow;
  for (const sim::JobView& view : state.active) {
    if (view.kind != sim::JobKind::kDeadline) continue;
    double worst = 0.0;
    for (int r = 0; r < workload::kNumResources; ++r) {
      worst = std::max(worst, view.remaining_estimate[r]);
    }
    remaining_by_workflow[view.workflow_id] += worst;
  }

  // At most one workflow moves per slot: the first hot cell with a movable
  // candidate and a target gives it up.
  for (const int from : hot) {
    // Candidate: the cell's heaviest incomplete workflow not in cooldown.
    int candidate = -1;
    double candidate_remaining = 0.0;
    for (const auto& [workflow_id, info] : workflows_) {
      if (info.cell != from || info.incomplete_jobs <= 0) continue;
      if (state.slot - info.last_migration_slot < kMigrationCooldownSlots) {
        continue;
      }
      const auto it = remaining_by_workflow.find(workflow_id);
      const double remaining = it == remaining_by_workflow.end()
                                   ? 0.0
                                   : it->second;
      if (remaining > candidate_remaining + 1e-9) {
        candidate = workflow_id;
        candidate_remaining = remaining;
      }
    }
    if (candidate < 0) continue;
    // Target: the least-loaded non-hot cell that admits the workflow
    // (forced placement onto the least-loaded one if none admits — moving
    // to a cooler cell still beats staying on the hotspot — but never onto
    // another hotspot: in that state migration only reshuffles pain).
    // Unlike route_workflow it never takes a cell whose projected peak is
    // infinite, so the two scans cannot be merged without changing plans.
    int to = -1;
    double to_peak = std::numeric_limits<double>::infinity();
    int cool = -1;
    double cool_peak = std::numeric_limits<double>::infinity();
    for (int i = 0; i < num_cells(); ++i) {
      if (i == from || !cell_routable(i) || cells_[i]->overloaded()) {
        continue;
      }
      const core::AdmissionDecision decision =
          verdict(i, candidate, state.now_s);
      if (decision.admitted && decision.peak_load < to_peak - 1e-12) {
        to = i;
        to_peak = decision.peak_load;
      }
      if (decision.peak_load < cool_peak - 1e-12) {
        cool = i;
        cool_peak = decision.peak_load;
      }
    }
    if (to < 0) to = cool;
    if (to < 0) continue;
    migrate_workflow(candidate, from, to, state.now_s, state.slot);
    return;
  }
}

void FederatedScheduler::migrate_workflow(int workflow_id, int from, int to,
                                          double now_s, int slot) {
  const int dropped =
      cells_[from]->scheduler().forget_workflow(workflow_id);
  cells_[from]->admission.forget_workflow(workflow_id, now_s);
  place_workflow(workflow_id, to, now_s);
  WorkflowInfo& info = workflows_.at(workflow_id);
  info.last_migration_slot = slot;
  ++migrations_;
  if (obs::enabled()) {
    obs::registry().counter("cluster.migrations").add();
    obs::emit(obs::TraceEvent("migration")
                  .field("workflow", workflow_id)
                  .field("from_cell", from)
                  .field("to_cell", to)
                  .field("jobs_moved", dropped)
                  .field("sim_s", now_s));
  }
}

std::vector<sim::ClusterState> FederatedScheduler::split_state(
    const sim::ClusterState& state) const {
  std::vector<sim::ClusterState> cell_states(cells_.size());
  for (int i = 0; i < num_cells(); ++i) {
    sim::ClusterState& cs = cell_states[static_cast<std::size_t>(i)];
    cs.slot = state.slot;
    cs.now_s = state.now_s;
    cs.slot_seconds = state.slot_seconds;
    cs.capacity = workload::scale(state.capacity, cells_[i]->spec.fraction);
  }
  for (const sim::JobView& view : state.active) {
    const auto it = cell_of_uid_.find(view.uid);
    if (it == cell_of_uid_.end()) continue;  // parked: no cell serves it
    cell_states[static_cast<std::size_t>(it->second)].active.push_back(view);
  }
  return cell_states;
}

void FederatedScheduler::replan_dirty_cells(
    const std::vector<sim::ClusterState>& cell_states, double now_s) {
  // Every solved cell's plan is adopted (or discarded), in cell order,
  // before any health reaction: a quarantine below fails workflows over
  // onto other cells, which must not stale their solves.
  std::vector<std::pair<int, bool>> outcomes;  // (cell, plan adopted)
  double round_wall = 0.0;
  for (int i = 0; i < num_cells(); ++i) {
    CellScheduler& cell = *cells_[i];
    if (!cell.scheduler().dirty()) continue;
    // Down cells are unreachable — their dirty bit survives and the plan
    // runs after recovery. A quarantined cell with a broken solver is a
    // tripped breaker: no solve attempts until a probe re-admits it.
    if (cell.down) continue;
    if (cell.solver_broken && cell.health == CellHealth::kQuarantined) {
      continue;
    }
    core::FlowTimeScheduler& planner = cell.scheduler();
    core::PendingReplan pending =
        planner.begin_replan(cell_states[static_cast<std::size_t>(i)]);
    // A broken solver preempts deterministically via the cancel token
    // rather than timing out on a wall clock.
    if (cell.solver_broken) pending.cancel = &cell.cancel;
    core::PlanSolveResult solved = planner.solve_replan(pending);
    outcomes.emplace_back(
        i, planner.finish_replan(pending, std::move(solved), now_s));
    round_wall += pending.record.wall_s;
  }
  if (outcomes.empty()) return;
  replan_round_wall_s_.push_back(round_wall);

  for (const auto& [c, adopted] : outcomes) {
    const int slot = cell_states[static_cast<std::size_t>(c)].slot;
    if (adopted) {
      // A clean solve is proof of life.
      recover_if_alive(c, slot);
    } else {
      // The broken solver preempted the solve: the old plan keeps serving
      // and the dirty bit is back.
      record_failure(c, slot, now_s, "solver_failure");
    }
  }
}

std::vector<sim::Allocation> FederatedScheduler::allocate(
    const sim::ClusterState& state) {
  // Health first (missed heartbeats, probes), so the routing passes below
  // see this slot's routing set; then parked failover work gets first claim
  // on any cell that just came back.
  update_cell_health(state);
  route_pending_failover(state);
  run_migrations(state);
  const std::vector<sim::ClusterState> cell_states = split_state(state);
  for (int i = 0; i < num_cells(); ++i) {
    if (cells_[i]->down) continue;  // unreachable: no heartbeat round-trip
    cells_[i]->scheduler().sync_views(
        cell_states[static_cast<std::size_t>(i)]);
  }
  replan_dirty_cells(cell_states, state.now_s);
  std::vector<sim::Allocation> merged;
  for (int i = 0; i < num_cells(); ++i) {
    // A down cell serves nothing (its machines answer no RPCs); a merely
    // quarantined cell keeps serving what it still owns — quarantine only
    // removes it from the routing set.
    if (cells_[i]->down) continue;
    std::vector<sim::Allocation> cell_allocs = cells_[i]->scheduler().serve(
        cell_states[static_cast<std::size_t>(i)]);
    merged.insert(merged.end(), cell_allocs.begin(), cell_allocs.end());
  }
  return merged;
}

}  // namespace flowtime::cluster
