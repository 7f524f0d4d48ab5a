#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <variant>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/job_table.h"
#include "util/logging.h"

namespace flowtime::sim {

namespace {

constexpr double kTol = 1e-6;

// Fluid execution state of one job, parallel to the job table's uids.
struct FluidJob {
  ResourceVec remaining_actual{};
  ResourceVec remaining_estimate{};
  int adhoc_id = -1;  // scenario AdhocJob::id (fault-plan selector)
  // Fault state: a failed job sits out until backoff_until_slot, then its
  // retry is released (pending_retry drives the task_retry event).
  int retries = 0;
  int backoff_until_slot = -1;
  bool pending_retry = false;
  obs::SpanId job_span = obs::kNoSpan;        // release → completion
  obs::SpanId placement_span = obs::kNoSpan;  // current allocated run
  obs::SpanId fault_span = obs::kNoSpan;      // failure → retry release
  // Per-slot stamps, so no per-slot pass touches every job: the slot of
  // the job's entry in `grants` (at grant_index, where duplicate
  // allocations are summed) and the last slot it was granted work.
  int grant_slot = -1;
  std::size_t grant_index = 0;
  int granted_slot = -1;
};

}  // namespace

Simulator::Simulator(SimConfig config) : config_(std::move(config)) {}

SimResult Simulator::run(const workload::Scenario& scenario,
                         Scheduler& scheduler) {
  SimResult result;
  result.slot_seconds = config_.cluster.slot_seconds;
  fault::FaultInjector injector(config_.fault_plan, config_.cluster);

  check_config_skew(scheduler, config_.cluster);

  // A job's width is its full parallelism over one slot.
  JobTable table(scenario, config_.cluster.slot_seconds,
                 [](const workload::JobSpec& spec, double slot_s) {
                   return workload::scale(spec.max_parallel_demand(), slot_s);
                 });
  std::vector<FluidJob> jobs(table.size());
  std::size_t adhoc = 0;  // ad-hoc jobs hold the last uids, in scenario order
  for (JobUid uid = 0; uid < static_cast<JobUid>(jobs.size()); ++uid) {
    JobRecord& record = table.record(uid);
    FluidJob& job = jobs[static_cast<std::size_t>(uid)];
    if (record.kind == JobKind::kAdhoc) {
      job.adhoc_id = scenario.adhoc_jobs[adhoc++].id;
    } else if (injector.active()) {
      // Estimate noise perturbs only the hidden ground truth; the
      // estimates handed to schedulers stay what prior runs "measured".
      record.actual_demand = workload::scale(
          record.actual_demand,
          injector.noise_factor(record.workflow_id, record.node));
    }
    job.remaining_actual = record.actual_demand;
    job.remaining_estimate = table.job(uid).spec->total_demand();
  }
  const auto job_of = [&](JobUid uid) -> FluidJob& {
    return jobs[static_cast<std::size_t>(uid)];
  };
  /// Runnable = DAG-ready and not sitting out a fault backoff.
  const auto runnable = [&](JobUid uid, int slot) {
    return slot >= job_of(uid).backoff_until_slot && table.ready(uid);
  };

  // Lifecycle spans: workflow span + remaining-job count, closed when the
  // last job of the workflow completes.
  std::map<int, std::pair<obs::SpanId, int>> workflow_spans;
  const auto job_meta = [&](JobUid uid) {
    obs::SpanMeta meta;  // an ad-hoc job has no workflow or node (-1)
    meta.workflow_id = table.record(uid).workflow_id;
    meta.node = table.record(uid).node;
    meta.uid = uid;
    return meta;
  };
  // Each released workflow's and job's spans open before the scheduler
  // sees the arrival.
  const auto open_spans = [&](const SchedulerEvent& event) {
    if (!obs::enabled()) return;
    const double now = event_time(event);
    if (const auto* e = std::get_if<WorkflowArrivalEvent>(&event)) {
      const workload::Workflow& w = *e->workflow;
      obs::SpanMeta wf_meta;
      wf_meta.workflow_id = w.id;
      wf_meta.deadline_s = w.deadline_s;
      const obs::SpanId wf_span =
          obs::begin_span("workflow", w.name, obs::kNoSpan, now, wf_meta);
      workflow_spans[w.id] = {wf_span, static_cast<int>(e->node_uids.size())};
      for (JobUid uid : e->node_uids) {
        job_of(uid).job_span = obs::begin_span(
            "job", table.record(uid).name, wf_span, now, job_meta(uid));
      }
    } else if (const auto* e = std::get_if<AdhocArrivalEvent>(&event)) {
      job_of(e->uid).job_span =
          obs::begin_span("job", table.record(e->uid).name, obs::kNoSpan, now,
                          job_meta(e->uid));
    }
  };

  const int max_slots = static_cast<int>(
      std::ceil(config_.max_horizon_s / config_.cluster.slot_seconds));

  for (int slot = 0; slot < max_slots && table.incomplete() > 0; ++slot) {
    const double now = slot * config_.cluster.slot_seconds;

    // Release everything that has arrived by the start of this slot.
    table.release(now, scheduler, open_spans);

    // Effective capacity this slot: the base, less injected machine churn
    // (the time-varying C_t^r of the paper's §V).
    ResourceVec capacity_units = config_.cluster.capacity;
    if (injector.active()) {
      bool capacity_changed = false;
      capacity_units = injector.capacity_for_slot(slot, now, capacity_units,
                                                  &capacity_changed);
      if (capacity_changed) {
        scheduler.on_event(CapacityChangeEvent{
            now,
            workload::scale(capacity_units, config_.cluster.slot_seconds)});
      }

      // Solver sabotage: squeeze (or release) the scheduler's internal
      // solver on window transitions.
      bool solver_changed = false;
      const auto sabotage = injector.solver_fault_for_slot(slot, &solver_changed);
      if (solver_changed) {
        if (obs::enabled()) {
          if (sabotage.has_value()) {
            obs::registry().counter("fault.solver_sabotages").add();
            obs::emit(obs::TraceEvent("fault_injected")
                          .field("kind", "solver_sabotage")
                          .field("slot", slot)
                          .field("now_s", now)
                          .field("budget_ms", sabotage->budget_ms)
                          .field("pivot_cap", sabotage->pivot_cap)
                          .field("force_numerical_failure",
                                 sabotage->force_numerical_failure));
          } else {
            obs::emit(obs::TraceEvent("fault_lifted")
                          .field("kind", "solver_sabotage")
                          .field("slot", slot)
                          .field("now_s", now));
          }
        }
        if (sabotage.has_value()) {
          scheduler.on_event(SolverSabotageEvent{
              now, sabotage->budget_ms, sabotage->pivot_cap,
              sabotage->force_numerical_failure});
        } else {
          scheduler.on_event(SolverSabotageEvent{now, -1.0, 0, false});
        }
      }

      // Cell faults: whole scheduler shards crash/hang/flap. The injector
      // emits the fault_injected/fault_lifted trace pair; here we only
      // forward the typed transition (federated coordinators react,
      // single-cell policies ignore it).
      for (const auto& transition : injector.cell_faults_for_slot(slot, now)) {
        scheduler.on_event(CellFaultEvent{transition.cell, now,
                                          transition.mode,
                                          transition.active});
      }

      // Release retries whose backoff expired, then inject this slot's
      // task faults and stragglers. Order matters for determinism: jobs
      // are visited in uid order and retries precede new failures.
      for (JobUid uid : table.live()) {
        FluidJob& job = job_of(uid);
        const JobRecord& record = table.record(uid);
        if (!job.pending_retry || slot < job.backoff_until_slot) continue;
        job.pending_retry = false;
        injector.count_task_retry();
        if (obs::enabled()) {
          obs::registry().counter("fault.task_retries").add();
          obs::emit(obs::TraceEvent("task_retry")
                        .field("slot", slot)
                        .field("now_s", now)
                        .field("uid", record.uid)
                        .field("workflow", record.workflow_id)
                        .field("node", record.node)
                        .field("name", record.name)
                        .field("retry", job.retries));
          obs::end_span(job.fault_span, now);
          job.fault_span = obs::kNoSpan;
        }
      }
      for (JobUid uid : table.live()) {
        FluidJob& job = job_of(uid);
        const JobRecord& record = table.record(uid);
        const bool is_adhoc = record.kind == JobKind::kAdhoc;
        const int selector_node = is_adhoc ? job.adhoc_id : record.node;
        const double straggle = injector.straggler_factor(
            slot, record.workflow_id, selector_node);
        if (straggle != 1.0) {
          job.remaining_actual =
              workload::scale(job.remaining_actual, straggle);
          injector.count_straggler();
          if (obs::enabled()) {
            obs::registry().counter("fault.stragglers").add();
            obs::emit(obs::TraceEvent("fault_injected")
                          .field("kind", "straggler")
                          .field("slot", slot)
                          .field("now_s", now)
                          .field("uid", record.uid)
                          .field("workflow", record.workflow_id)
                          .field("node", record.node)
                          .field("factor", straggle));
          }
        }
        if (!runnable(uid, slot)) continue;  // backoff / parents
        const auto fault = injector.task_fault(
            slot, record.workflow_id, selector_node, job.retries);
        if (!fault) continue;
        // Fail-and-retry: the job loses `lost_fraction` of the progress it
        // made, in both the ground-truth and the estimate domains, and is
        // barred from running until the backoff expires.
        const ResourceVec lost_actual = workload::scale(
            workload::clamp_nonnegative(workload::sub(
                record.actual_demand, job.remaining_actual)),
            fault->lost_fraction);
        const ResourceVec lost_estimate = workload::scale(
            workload::clamp_nonnegative(
                workload::sub(table.job(uid).spec->total_demand(),
                              job.remaining_estimate)),
            fault->lost_fraction);
        job.remaining_actual =
            workload::add(job.remaining_actual, lost_actual);
        job.remaining_estimate =
            workload::add(job.remaining_estimate, lost_estimate);
        ++job.retries;
        job.backoff_until_slot = slot + fault->backoff_slots;
        job.pending_retry = true;
        table.unlatch_ready_since(uid);  // re-latches when the retry runs
        injector.count_task_failure();
        if (obs::enabled()) {
          obs::registry().counter("fault.task_failures").add();
          obs::TraceEvent event("fault_injected");
          event.field("kind", "task_failure")
              .field("slot", slot)
              .field("now_s", now)
              .field("uid", record.uid)
              .field("workflow", record.workflow_id)
              .field("node", record.node)
              .field("name", record.name)
              .field("retry", job.retries)
              .field("backoff_slots", fault->backoff_slots)
              .field("from_hazard", fault->from_hazard);
          for (int r = 0; r < workload::kNumResources; ++r) {
            event.field(std::string("lost_") + workload::resource_name(r),
                        lost_actual[r]);
          }
          obs::emit(event);
          // The failed run's placement ends here; the fault span covers
          // failure → retry release, pairing injection with recovery.
          obs::end_span(job.placement_span, now);
          job.placement_span = obs::kNoSpan;
          job.fault_span =
              obs::begin_span("fault", "task_retry:" + record.name,
                              job.job_span, now, job_meta(uid));
        }
        scheduler.on_event(TaskFailureEvent{
            record.uid, now, lost_estimate, job.retries,
            job.backoff_until_slot * config_.cluster.slot_seconds});
      }
    }

    // Snapshot for the scheduler.
    ClusterState state;
    state.slot = slot;
    state.now_s = now;
    state.slot_seconds = config_.cluster.slot_seconds;
    state.capacity =
        workload::scale(capacity_units, config_.cluster.slot_seconds);
    state.active.reserve(table.live().size());
    for (JobUid uid : table.live()) {
      JobView& view = table.add_view(state, uid, runnable(uid, slot));
      if (view.kind == JobKind::kDeadline) {
        view.remaining_estimate = job_of(uid).remaining_estimate;
        view.overrun = workload::is_zero(view.remaining_estimate, kTol);
      }
    }

    const std::vector<Allocation> allocations = scheduler.allocate(state);

    // One grant per live job, in first-occurrence order: a job's
    // allocations this slot are summed before any check, so it is
    // width-checked, delivered and completed at most once.
    std::vector<std::pair<JobUid, ResourceVec>> grants;
    for (const Allocation& alloc : allocations) {
      if (!table.is_live(alloc.uid)) continue;
      FluidJob& job = job_of(alloc.uid);
      const ResourceVec amount = workload::clamp_nonnegative(alloc.amount);
      if (job.grant_slot == slot) {
        ResourceVec& sum = grants[job.grant_index].second;
        sum = workload::add(sum, amount);
        continue;
      }
      job.grant_slot = slot;
      job.grant_index = grants.size();
      grants.emplace_back(alloc.uid, amount);
    }

    // Enforce the contract: per-job width, readiness, then global capacity.
    ResourceVec granted_total{};
    for (auto& [uid, amount] : grants) {
      const ResourceVec& width = table.job(uid).width;
      if (!workload::fits_within(amount, width, kTol)) {
        ++result.width_violations;
        amount = workload::elementwise_min(amount, width);
      }
      granted_total = workload::add(granted_total, amount);
      if (!runnable(uid, slot)) {
        // Physical precedence (or a fault backoff): the grant is wasted,
        // not banked.
        ++result.not_ready_allocations;
        amount = workload::zeros();
      }
    }
    double scale_factor = 1.0;
    if (!workload::fits_within(granted_total, state.capacity, 1e-3)) {
      ++result.capacity_violations;
      for (int r = 0; r < workload::kNumResources; ++r) {
        if (granted_total[r] > state.capacity[r]) {
          scale_factor =
              std::min(scale_factor, state.capacity[r] / granted_total[r]);
        }
      }
    }

    // Node mode: realize grants as whole containers placed first-fit on
    // identical nodes; whatever does not pack is fragmentation loss.
    std::vector<ResourceVec> node_free;
    if (config_.num_nodes > 0) {
      node_free.assign(
          static_cast<std::size_t>(config_.num_nodes),
          workload::scale(state.capacity, 1.0 / config_.num_nodes));
    }

    // Deliver and collect completions.
    ResourceVec used{};
    const bool spans_on = obs::enabled();
    for (auto& [uid, amount] : grants) {
      FluidJob& job = job_of(uid);
      ResourceVec granted = workload::scale(amount, scale_factor);
      if (config_.num_nodes > 0) {
        const ResourceVec& container = table.job(uid).container;
        int want = 0;
        bool sized = false;
        for (int r = 0; r < workload::kNumResources; ++r) {
          if (container[r] > kTol) {
            const int fit = static_cast<int>(
                std::floor(granted[r] / container[r] + 1e-9));
            want = sized ? std::min(want, fit) : fit;
            sized = true;
          }
        }
        int placed = 0;
        for (int c = 0; c < want; ++c) {
          bool found = false;
          for (ResourceVec& free : node_free) {
            if (workload::fits_within(container, free, 1e-9)) {
              free = workload::sub(free, container);
              found = true;
              break;
            }
          }
          if (!found) break;
          ++placed;
        }
        const ResourceVec realized = workload::scale(container, placed);
        result.fragmentation_lost = workload::add(
            result.fragmentation_lost,
            workload::clamp_nonnegative(workload::sub(granted, realized)));
        granted = realized;
      }
      if (spans_on && !workload::is_zero(granted, kTol)) {
        job.granted_slot = slot;
        if (job.placement_span == obs::kNoSpan) {
          job.placement_span =
              obs::begin_span("placement", table.record(uid).name,
                              job.job_span, now, job_meta(uid));
        }
      }
      const ResourceVec delivered =
          workload::elementwise_min(granted, job.remaining_actual);
      job.remaining_actual = workload::clamp_nonnegative(
          workload::sub(job.remaining_actual, delivered));
      job.remaining_estimate = workload::clamp_nonnegative(
          workload::sub(job.remaining_estimate, granted));
      used = workload::add(used, delivered);
      if (workload::is_zero(job.remaining_actual, kTol)) {
        table.complete(uid, now + config_.cluster.slot_seconds);
      }
    }
    const std::vector<JobUid> completed_now = table.retire();
    if (spans_on) {
      // A slot without allocation ends the job's current placement run.
      for (JobUid uid : table.live()) {
        FluidJob& job = job_of(uid);
        if (job.placement_span != obs::kNoSpan && job.granted_slot != slot) {
          obs::end_span(job.placement_span, now);
          job.placement_span = obs::kNoSpan;
        }
      }
    }

    result.used_per_slot.push_back(used);
    result.allocated_per_slot.push_back(
        workload::scale(granted_total, scale_factor));
    result.slots_simulated = slot + 1;

    if (obs::enabled()) {
      obs::registry().counter("sim.slots").add();
      int ready_jobs = 0;
      for (const JobView& view : state.active) {
        if (view.ready) ++ready_jobs;
      }
      obs::TraceEvent event("slot");
      event.field("scheduler", scheduler.name())
          .field("slot", slot)
          .field("now_s", now);
      for (int r = 0; r < workload::kNumResources; ++r) {
        const double load =
            state.capacity[r] > kTol ? used[r] / state.capacity[r] : 0.0;
        event.field(std::string("load_") + workload::resource_name(r), load);
        obs::registry()
            .histogram(std::string("sim.load.") +
                       workload::resource_name(r))
            .observe(load);
      }
      event.field("active_jobs", state.active.size())
          .field("ready_jobs", ready_jobs)
          .field("completions", completed_now.size());
      obs::emit(event);
    }

    for (JobUid uid : completed_now) {
      if (spans_on) {
        FluidJob& job = job_of(uid);
        const double end_s = now + config_.cluster.slot_seconds;
        obs::end_span(job.placement_span, end_s);
        job.placement_span = obs::kNoSpan;
        obs::end_span(job.job_span, end_s);
        job.job_span = obs::kNoSpan;
        const auto wf_it =
            workflow_spans.find(table.record(uid).workflow_id);
        if (wf_it != workflow_spans.end() && --wf_it->second.second == 0) {
          obs::end_span(wf_it->second.first, end_s);
          workflow_spans.erase(wf_it);
        }
      }
      scheduler.on_event(
          JobCompleteEvent{uid, now + config_.cluster.slot_seconds});
    }

    if (config_.stats_every_slots > 0 && config_.stats_hook &&
        (slot + 1) % config_.stats_every_slots == 0) {
      config_.stats_hook(slot, now + config_.cluster.slot_seconds);
    }
  }

  // Horizon expiry can leave spans open (unfinished jobs, the scheduler's
  // final plan epoch); close them so every begin pairs with exactly one end.
  obs::end_open_spans(result.slots_simulated * config_.cluster.slot_seconds);

  table.finish(result, scheduler);
  if (obs::enabled()) {
    obs::emit(obs::TraceEvent("sim_run")
                  .field("scheduler", scheduler.name())
                  .field("slots", result.slots_simulated)
                  .field("jobs", jobs.size())
                  .field("all_completed", result.all_completed)
                  .field("capacity_violations", result.capacity_violations)
                  .field("width_violations", result.width_violations)
                  .field("not_ready_allocations",
                         result.not_ready_allocations));
  }
  result.faults = injector.log();
  return result;
}

}  // namespace flowtime::sim
