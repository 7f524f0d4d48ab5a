#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace flowtime::sim {

namespace {

constexpr double kTol = 1e-6;

// Ground-truth execution state of one job.
struct LiveJob {
  JobRecord record;
  ResourceVec remaining_actual{};
  ResourceVec remaining_estimate{};
  ResourceVec estimate_total{};  // for computing fault progress loss
  ResourceVec width{};
  ResourceVec container{};  // one task's per-slot footprint (node mode)
  std::vector<JobUid> parent_uids;  // empty for ad-hoc jobs
  int adhoc_id = -1;        // scenario AdhocJob::id (fault-plan selector)
  bool arrived = false;
  bool complete = false;
  double ready_since_s = -1.0;  // first instant the job was runnable
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

  bool ready(const std::vector<LiveJob>& all) const {
    for (JobUid p : parent_uids) {
      if (!all[static_cast<std::size_t>(p)].complete) return false;
    }
    return true;
  }

  /// Runnable = DAG-ready and not sitting out a fault backoff.
  bool runnable(const std::vector<LiveJob>& all, int slot) const {
    return slot >= backoff_until_slot && ready(all);
  }
};

struct PendingWorkflow {
  const workload::Workflow* workflow = nullptr;
  std::vector<JobUid> node_uids;
};

}  // namespace

Simulator::Simulator(SimConfig config) : config_(std::move(config)) {}

SimResult Simulator::run(const workload::Scenario& scenario,
                         Scheduler& scheduler) {
  SimResult result;
  result.slot_seconds = config_.cluster.slot_seconds;
  fault::FaultInjector injector(config_.fault_plan, config_.cluster);

  // Config-skew check: a scheduler that plans against a different cluster
  // than the one executing produces plans that silently never fit (or
  // silently underuse the cluster). Flag it up front, once per run.
  if (const workload::ClusterSpec* spec = scheduler.cluster_spec()) {
    if (!workload::approx_equal(*spec, config_.cluster, 1e-6)) {
      FT_LOG(kWarn) << "scheduler " << scheduler.name()
                    << " is configured for " << workload::to_string(*spec)
                    << " but the simulator runs "
                    << workload::to_string(config_.cluster);
      if (obs::enabled()) {
        obs::registry().counter("sim.config_skew").add();
        obs::emit(obs::TraceEvent("config_skew")
                      .field("component", "simulator")
                      .field("scheduler", scheduler.name())
                      .field("configured", workload::to_string(*spec))
                      .field("authoritative",
                             workload::to_string(config_.cluster)));
      }
    }
  }

  std::size_t num_jobs = scenario.adhoc_jobs.size();
  for (const workload::Workflow& w : scenario.workflows) {
    num_jobs += static_cast<std::size_t>(w.dag.num_nodes());
  }
  std::vector<LiveJob> jobs;
  jobs.reserve(num_jobs);

  // Lay out uids: workflow jobs first (in workflow order), then ad-hoc.
  std::vector<PendingWorkflow> workflow_arrivals;
  for (const workload::Workflow& w : scenario.workflows) {
    assert(w.valid());
    PendingWorkflow pending;
    pending.workflow = &w;
    for (dag::NodeId v = 0; v < w.dag.num_nodes(); ++v) {
      const workload::JobSpec& spec = w.jobs[static_cast<std::size_t>(v)];
      LiveJob job;
      job.record.uid = static_cast<JobUid>(jobs.size());
      job.record.kind = JobKind::kDeadline;
      job.record.name = w.name + "/" + spec.name + "#" + std::to_string(v);
      job.record.workflow_id = w.id;
      job.record.node = v;
      job.record.arrival_s = w.start_s;
      job.record.actual_demand = spec.actual_total_demand();
      if (injector.active()) {
        // Estimate noise perturbs only the hidden ground truth; the
        // estimates handed to schedulers stay what prior runs "measured".
        job.record.actual_demand = workload::scale(
            job.record.actual_demand, injector.noise_factor(w.id, v));
      }
      job.remaining_actual = job.record.actual_demand;
      job.remaining_estimate = spec.total_demand();
      job.estimate_total = job.remaining_estimate;
      job.width = workload::scale(spec.max_parallel_demand(),
                                  config_.cluster.slot_seconds);
      job.container = workload::scale(spec.task.demand, config_.cluster.slot_seconds);
      pending.node_uids.push_back(job.record.uid);
      jobs.push_back(std::move(job));
    }
    // Parent uids need the whole workflow laid out first.
    for (dag::NodeId v = 0; v < w.dag.num_nodes(); ++v) {
      LiveJob& job = jobs[static_cast<std::size_t>(
          pending.node_uids[static_cast<std::size_t>(v)])];
      for (dag::NodeId p : w.dag.parents(v)) {
        job.parent_uids.push_back(
            pending.node_uids[static_cast<std::size_t>(p)]);
      }
    }
    workflow_arrivals.push_back(std::move(pending));
  }
  for (const workload::AdhocJob& a : scenario.adhoc_jobs) {
    LiveJob job;
    job.record.uid = static_cast<JobUid>(jobs.size());
    job.record.kind = JobKind::kAdhoc;
    job.record.name = a.spec.name;
    job.record.arrival_s = a.arrival_s;
    job.record.actual_demand = a.spec.actual_total_demand();
    job.remaining_actual = job.record.actual_demand;
    job.remaining_estimate = a.spec.total_demand();
    job.estimate_total = job.remaining_estimate;
    job.adhoc_id = a.id;
    job.width =
        workload::scale(a.spec.max_parallel_demand(), config_.cluster.slot_seconds);
    job.container =
        workload::scale(a.spec.task.demand, config_.cluster.slot_seconds);
    jobs.push_back(std::move(job));
  }

  // Arrival queues sorted by time. std::sort is not stable: the order is
  // deterministic, but ties do not keep their input order.
  std::sort(workflow_arrivals.begin(), workflow_arrivals.end(),
            [](const PendingWorkflow& a, const PendingWorkflow& b) {
              return a.workflow->start_s < b.workflow->start_s;
            });
  std::vector<JobUid> adhoc_queue;
  for (const LiveJob& job : jobs) {
    if (job.record.kind == JobKind::kAdhoc) adhoc_queue.push_back(job.record.uid);
  }
  std::sort(adhoc_queue.begin(), adhoc_queue.end(), [&](JobUid a, JobUid b) {
    return jobs[static_cast<std::size_t>(a)].record.arrival_s <
           jobs[static_cast<std::size_t>(b)].record.arrival_s;
  });

  // Lifecycle spans: workflow span + remaining-job count, closed when the
  // last job of the workflow completes.
  std::map<int, std::pair<obs::SpanId, int>> workflow_spans;

  std::size_t next_workflow = 0;
  std::size_t next_adhoc = 0;
  std::size_t incomplete = jobs.size();
  const int max_slots = static_cast<int>(
      std::ceil(config_.max_horizon_s / config_.cluster.slot_seconds));
  // Uids of the arrived, incomplete jobs in uid order. Every per-slot loop
  // walks this list, so a slot costs in proportion to live jobs.
  std::vector<JobUid> live;

  for (int slot = 0; slot < max_slots && incomplete > 0; ++slot) {
    const double now = slot * config_.cluster.slot_seconds;

    // Release everything that has arrived by the start of this slot.
    const std::size_t released_from = live.size();
    while (next_workflow < workflow_arrivals.size() &&
           workflow_arrivals[next_workflow].workflow->start_s <=
               now + kTol) {
      PendingWorkflow& pending = workflow_arrivals[next_workflow];
      for (JobUid uid : pending.node_uids) {
        jobs[static_cast<std::size_t>(uid)].arrived = true;
        live.push_back(uid);
      }
      if (obs::enabled()) {
        const workload::Workflow& w = *pending.workflow;
        obs::SpanMeta wf_meta;
        wf_meta.workflow_id = w.id;
        wf_meta.deadline_s = w.deadline_s;
        const obs::SpanId wf_span =
            obs::begin_span("workflow", w.name, obs::kNoSpan, now, wf_meta);
        workflow_spans[w.id] = {wf_span,
                                static_cast<int>(pending.node_uids.size())};
        for (JobUid uid : pending.node_uids) {
          LiveJob& job = jobs[static_cast<std::size_t>(uid)];
          obs::SpanMeta meta;
          meta.workflow_id = w.id;
          meta.node = job.record.node;
          meta.uid = uid;
          job.job_span =
              obs::begin_span("job", job.record.name, wf_span, now, meta);
        }
      }
      // The event aliases the scenario's workflow (no copy, no ownership):
      // the scenario outlives the run, and any scheduler that needs the DAG
      // past the callback copies it, as FlowTimeScheduler does.
      scheduler.on_event(WorkflowArrivalEvent{
          std::shared_ptr<const workload::Workflow>(
              std::shared_ptr<const workload::Workflow>(), pending.workflow),
          pending.node_uids, now});
      ++next_workflow;
    }
    while (next_adhoc < adhoc_queue.size() &&
           jobs[static_cast<std::size_t>(adhoc_queue[next_adhoc])]
                   .record.arrival_s <= now + kTol) {
      LiveJob& job =
          jobs[static_cast<std::size_t>(adhoc_queue[next_adhoc])];
      job.arrived = true;
      live.push_back(job.record.uid);
      if (obs::enabled()) {
        obs::SpanMeta meta;
        meta.uid = job.record.uid;
        job.job_span = obs::begin_span("job", job.record.name, obs::kNoSpan,
                                       now, meta);
      }
      scheduler.on_event(AdhocArrivalEvent{job.record.uid, now, job.width});
      ++next_adhoc;
    }
    // A later-starting workflow can hold lower uids than live jobs, and
    // ad-hoc uid order need not follow arrival order: sort the slot's new
    // uids, then merge them in.
    const auto released =
        live.begin() + static_cast<std::ptrdiff_t>(released_from);
    std::sort(released, live.end());
    std::inplace_merge(live.begin(), released, live.end());

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
      for (JobUid uid : live) {
        LiveJob& job = jobs[static_cast<std::size_t>(uid)];
        if (!job.pending_retry || slot < job.backoff_until_slot) continue;
        job.pending_retry = false;
        injector.count_task_retry();
        if (obs::enabled()) {
          obs::registry().counter("fault.task_retries").add();
          obs::emit(obs::TraceEvent("task_retry")
                        .field("slot", slot)
                        .field("now_s", now)
                        .field("uid", job.record.uid)
                        .field("workflow", job.record.workflow_id)
                        .field("node", job.record.node)
                        .field("name", job.record.name)
                        .field("retry", job.retries));
          obs::end_span(job.fault_span, now);
          job.fault_span = obs::kNoSpan;
        }
      }
      for (JobUid uid : live) {
        LiveJob& job = jobs[static_cast<std::size_t>(uid)];
        const bool is_adhoc = job.record.kind == JobKind::kAdhoc;
        const int selector_node = is_adhoc ? job.adhoc_id : job.record.node;
        const double straggle = injector.straggler_factor(
            slot, job.record.workflow_id, selector_node);
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
                          .field("uid", job.record.uid)
                          .field("workflow", job.record.workflow_id)
                          .field("node", job.record.node)
                          .field("factor", straggle));
          }
        }
        if (!job.runnable(jobs, slot)) continue;  // backoff / parents
        const auto fault = injector.task_fault(
            slot, job.record.workflow_id, selector_node, job.retries);
        if (!fault) continue;
        // Fail-and-retry: the job loses `lost_fraction` of the progress it
        // made, in both the ground-truth and the estimate domains, and is
        // barred from running until the backoff expires.
        const ResourceVec lost_actual = workload::scale(
            workload::clamp_nonnegative(workload::sub(
                job.record.actual_demand, job.remaining_actual)),
            fault->lost_fraction);
        const ResourceVec lost_estimate = workload::scale(
            workload::clamp_nonnegative(
                workload::sub(job.estimate_total, job.remaining_estimate)),
            fault->lost_fraction);
        job.remaining_actual =
            workload::add(job.remaining_actual, lost_actual);
        job.remaining_estimate =
            workload::add(job.remaining_estimate, lost_estimate);
        ++job.retries;
        job.backoff_until_slot = slot + fault->backoff_slots;
        job.pending_retry = true;
        job.ready_since_s = -1.0;  // re-latches when the retry runs
        injector.count_task_failure();
        if (obs::enabled()) {
          obs::registry().counter("fault.task_failures").add();
          obs::TraceEvent event("fault_injected");
          event.field("kind", "task_failure")
              .field("slot", slot)
              .field("now_s", now)
              .field("uid", job.record.uid)
              .field("workflow", job.record.workflow_id)
              .field("node", job.record.node)
              .field("name", job.record.name)
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
          obs::SpanMeta meta;
          meta.workflow_id = job.record.workflow_id;
          meta.node = job.record.node;
          meta.uid = job.record.uid;
          job.fault_span =
              obs::begin_span("fault", "task_retry:" + job.record.name,
                              job.job_span, now, meta);
        }
        scheduler.on_event(TaskFailureEvent{
            job.record.uid, now, lost_estimate, job.retries,
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
    state.active.reserve(live.size());
    for (JobUid uid : live) {
      LiveJob& job = jobs[static_cast<std::size_t>(uid)];
      JobView view;
      view.uid = job.record.uid;
      view.kind = job.record.kind;
      view.workflow_id = job.record.workflow_id;
      view.node = job.record.node;
      view.arrival_s = job.record.arrival_s;
      view.width = job.width;
      view.container = job.container;
      view.ready = job.runnable(jobs, slot);
      if (view.ready) {
        if (job.ready_since_s < 0.0) job.ready_since_s = now;
        view.ready_since_s = job.ready_since_s;
      } else {
        view.ready_since_s = now;  // not runnable yet
      }
      if (job.record.kind == JobKind::kDeadline) {
        view.remaining_estimate = job.remaining_estimate;
        view.overrun = workload::is_zero(job.remaining_estimate, kTol);
      }
      state.active.push_back(view);
    }

    const std::vector<Allocation> allocations = scheduler.allocate(state);

    // One grant per live job, in first-occurrence order: a job's
    // allocations this slot are summed before any check, so it is
    // width-checked, delivered and completed at most once.
    std::vector<std::pair<JobUid, ResourceVec>> grants;
    for (const Allocation& alloc : allocations) {
      if (alloc.uid < 0 ||
          alloc.uid >= static_cast<JobUid>(jobs.size())) {
        continue;
      }
      LiveJob& job = jobs[static_cast<std::size_t>(alloc.uid)];
      if (!job.arrived || job.complete) continue;
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
      const LiveJob& job = jobs[static_cast<std::size_t>(uid)];
      if (!workload::fits_within(amount, job.width, kTol)) {
        ++result.width_violations;
        amount = workload::elementwise_min(amount, job.width);
      }
      granted_total = workload::add(granted_total, amount);
      if (!job.runnable(jobs, slot)) {
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
    std::vector<JobUid> completed_now;
    const bool spans_on = obs::enabled();
    for (auto& [uid, amount] : grants) {
      LiveJob& job = jobs[static_cast<std::size_t>(uid)];
      ResourceVec granted = workload::scale(amount, scale_factor);
      if (config_.num_nodes > 0) {
        int want = 0;
        bool sized = false;
        for (int r = 0; r < workload::kNumResources; ++r) {
          if (job.container[r] > kTol) {
            const int fit = static_cast<int>(
                std::floor(granted[r] / job.container[r] + 1e-9));
            want = sized ? std::min(want, fit) : fit;
            sized = true;
          }
        }
        int placed = 0;
        for (int c = 0; c < want; ++c) {
          bool found = false;
          for (ResourceVec& free : node_free) {
            if (workload::fits_within(job.container, free, 1e-9)) {
              free = workload::sub(free, job.container);
              found = true;
              break;
            }
          }
          if (!found) break;
          ++placed;
        }
        const ResourceVec realized =
            workload::scale(job.container, placed);
        result.fragmentation_lost = workload::add(
            result.fragmentation_lost,
            workload::clamp_nonnegative(workload::sub(granted, realized)));
        granted = realized;
      }
      if (spans_on && !workload::is_zero(granted, kTol)) {
        job.granted_slot = slot;
        if (job.placement_span == obs::kNoSpan) {
          obs::SpanMeta meta;
          meta.workflow_id = job.record.workflow_id;
          meta.node = job.record.node;
          meta.uid = uid;
          job.placement_span = obs::begin_span(
              "placement", job.record.name, job.job_span, now, meta);
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
        job.complete = true;
        job.record.completion_s = now + config_.cluster.slot_seconds;
        completed_now.push_back(uid);
      }
    }
    if (!completed_now.empty()) {
      std::erase_if(live, [&](JobUid uid) {
        return jobs[static_cast<std::size_t>(uid)].complete;
      });
    }
    if (spans_on) {
      // A slot without allocation ends the job's current placement run.
      for (JobUid uid : live) {
        LiveJob& job = jobs[static_cast<std::size_t>(uid)];
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
      --incomplete;
      if (spans_on) {
        LiveJob& job = jobs[static_cast<std::size_t>(uid)];
        const double end_s = now + config_.cluster.slot_seconds;
        obs::end_span(job.placement_span, end_s);
        job.placement_span = obs::kNoSpan;
        obs::end_span(job.job_span, end_s);
        job.job_span = obs::kNoSpan;
        const auto wf_it = workflow_spans.find(job.record.workflow_id);
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

  result.all_completed = incomplete == 0;
  if (!result.all_completed) {
    FT_LOG(kWarn) << "simulation horizon expired with " << incomplete
                  << " incomplete jobs under scheduler " << scheduler.name();
  }
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
  result.jobs.reserve(jobs.size());
  for (LiveJob& job : jobs) result.jobs.push_back(std::move(job.record));
  return result;
}

}  // namespace flowtime::sim
