#include "sim/task_simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "util/logging.h"

namespace flowtime::sim {

namespace {

constexpr double kTol = 1e-6;

struct TaskJob {
  JobRecord record;
  int tasks_total = 0;
  int tasks_done = 0;
  int tasks_running = 0;
  int task_slots = 1;        // actual whole-slot duration of one task
  ResourceVec container{};   // per-slot footprint of one running task
  ResourceVec est_total{};   // estimated total demand (for the view)
  ResourceVec est_per_task{};
  std::vector<JobUid> parent_uids;
  std::vector<int> running_until;  // slot index at which each task frees
  bool arrived = false;
  bool complete = false;
  double ready_since_s = -1.0;

  int tasks_pending() const {
    return tasks_total - tasks_done - tasks_running;
  }
  bool ready(const std::vector<TaskJob>& all) const {
    for (JobUid p : parent_uids) {
      if (!all[static_cast<std::size_t>(p)].complete) return false;
    }
    return true;
  }
};

TaskJob make_task_job(const workload::JobSpec& spec, double slot_seconds) {
  TaskJob job;
  job.tasks_total = spec.num_tasks;
  job.task_slots = std::max(
      1, static_cast<int>(std::ceil(
             spec.task.runtime_s * spec.actual_runtime_factor /
                 slot_seconds -
             kTol)));
  job.container = workload::scale(spec.task.demand, slot_seconds);
  job.est_total = spec.total_demand();
  job.est_per_task =
      workload::scale(spec.task.demand, spec.task.runtime_s);
  job.record.actual_demand = spec.actual_total_demand();
  return job;
}

}  // namespace

TaskLevelSimulator::TaskLevelSimulator(TaskSimConfig config)
    : config_(config) {}

SimResult TaskLevelSimulator::run(const workload::Scenario& scenario,
                                  Scheduler& scheduler) {
  SimResult result;
  result.slot_seconds = config_.cluster.slot_seconds;
  std::size_t num_jobs = scenario.adhoc_jobs.size();
  for (const workload::Workflow& w : scenario.workflows) {
    num_jobs += static_cast<std::size_t>(w.dag.num_nodes());
  }
  std::vector<TaskJob> jobs;
  jobs.reserve(num_jobs);

  struct PendingWorkflow {
    const workload::Workflow* workflow = nullptr;
    std::vector<JobUid> node_uids;
  };
  std::vector<PendingWorkflow> workflow_arrivals;
  for (const workload::Workflow& w : scenario.workflows) {
    assert(w.valid());
    PendingWorkflow pending;
    pending.workflow = &w;
    for (dag::NodeId v = 0; v < w.dag.num_nodes(); ++v) {
      const workload::JobSpec& spec = w.jobs[static_cast<std::size_t>(v)];
      TaskJob job = make_task_job(spec, config_.cluster.slot_seconds);
      job.record.uid = static_cast<JobUid>(jobs.size());
      job.record.kind = JobKind::kDeadline;
      job.record.name = w.name + "/" + spec.name + "#" + std::to_string(v);
      job.record.workflow_id = w.id;
      job.record.node = v;
      job.record.arrival_s = w.start_s;
      pending.node_uids.push_back(job.record.uid);
      jobs.push_back(std::move(job));
    }
    for (dag::NodeId v = 0; v < w.dag.num_nodes(); ++v) {
      TaskJob& job = jobs[static_cast<std::size_t>(
          pending.node_uids[static_cast<std::size_t>(v)])];
      for (dag::NodeId p : w.dag.parents(v)) {
        job.parent_uids.push_back(
            pending.node_uids[static_cast<std::size_t>(p)]);
      }
    }
    workflow_arrivals.push_back(std::move(pending));
  }
  for (const workload::AdhocJob& a : scenario.adhoc_jobs) {
    TaskJob job = make_task_job(a.spec, config_.cluster.slot_seconds);
    job.record.uid = static_cast<JobUid>(jobs.size());
    job.record.kind = JobKind::kAdhoc;
    job.record.name = a.spec.name;
    job.record.arrival_s = a.arrival_s;
    jobs.push_back(std::move(job));
  }

  // Arrival queues sorted by time. std::sort is not stable: the order is
  // deterministic, but ties do not keep their input order.
  std::sort(workflow_arrivals.begin(), workflow_arrivals.end(),
            [](const PendingWorkflow& a, const PendingWorkflow& b) {
              return a.workflow->start_s < b.workflow->start_s;
            });
  std::vector<JobUid> adhoc_queue;
  for (const TaskJob& job : jobs) {
    if (job.record.kind == JobKind::kAdhoc) {
      adhoc_queue.push_back(job.record.uid);
    }
  }
  std::sort(adhoc_queue.begin(), adhoc_queue.end(), [&](JobUid a, JobUid b) {
    return jobs[static_cast<std::size_t>(a)].record.arrival_s <
           jobs[static_cast<std::size_t>(b)].record.arrival_s;
  });

  std::size_t next_workflow = 0;
  std::size_t next_adhoc = 0;
  std::size_t incomplete = jobs.size();
  const int max_slots = static_cast<int>(
      std::ceil(config_.max_horizon_s / config_.cluster.slot_seconds));
  const ResourceVec slot_capacity =
      workload::scale(config_.cluster.capacity, config_.cluster.slot_seconds);
  // Uids of the arrived, incomplete jobs in uid order. Every per-slot loop
  // walks this list, so a slot costs in proportion to live jobs.
  std::vector<JobUid> live;

  for (int slot = 0; slot < max_slots && incomplete > 0; ++slot) {
    const double now = slot * config_.cluster.slot_seconds;

    // Tasks finishing at this boundary free their containers.
    std::vector<JobUid> completed_now;
    for (JobUid uid : live) {
      TaskJob& job = jobs[static_cast<std::size_t>(uid)];
      const auto still_running = std::partition(
          job.running_until.begin(), job.running_until.end(),
          [slot](int until) { return until > slot; });
      const int finished = static_cast<int>(
          std::distance(still_running, job.running_until.end()));
      if (finished > 0) {
        job.running_until.erase(still_running, job.running_until.end());
        job.tasks_running -= finished;
        job.tasks_done += finished;
        if (job.tasks_done == job.tasks_total) {
          job.complete = true;
          job.record.completion_s = now;
          completed_now.push_back(job.record.uid);
        }
      }
    }
    if (!completed_now.empty()) {
      std::erase_if(live, [&](JobUid uid) {
        return jobs[static_cast<std::size_t>(uid)].complete;
      });
    }
    for (JobUid uid : completed_now) {
      --incomplete;
      scheduler.on_event(JobCompleteEvent{uid, now});
    }
    if (incomplete == 0) {
      result.slots_simulated = slot;
      break;
    }

    // Arrivals.
    const std::size_t released_from = live.size();
    while (next_workflow < workflow_arrivals.size() &&
           workflow_arrivals[next_workflow].workflow->start_s <= now + kTol) {
      PendingWorkflow& pending = workflow_arrivals[next_workflow];
      for (JobUid uid : pending.node_uids) {
        jobs[static_cast<std::size_t>(uid)].arrived = true;
        live.push_back(uid);
      }
      // Aliasing, non-owning: the scenario outlives the run, so the event
      // can carry a shared_ptr without taking ownership or copying.
      scheduler.on_event(WorkflowArrivalEvent{
          std::shared_ptr<const workload::Workflow>(
              std::shared_ptr<const workload::Workflow>(), pending.workflow),
          pending.node_uids, now});
      ++next_workflow;
    }
    while (next_adhoc < adhoc_queue.size() &&
           jobs[static_cast<std::size_t>(adhoc_queue[next_adhoc])]
                   .record.arrival_s <= now + kTol) {
      TaskJob& job = jobs[static_cast<std::size_t>(adhoc_queue[next_adhoc])];
      job.arrived = true;
      live.push_back(job.record.uid);
      scheduler.on_event(AdhocArrivalEvent{
          job.record.uid, now,
          workload::scale(job.container, job.tasks_total)});
      ++next_adhoc;
    }
    // Release order is not uid order: sort the slot's new uids, then merge.
    const auto released =
        live.begin() + static_cast<std::ptrdiff_t>(released_from);
    std::sort(released, live.end());
    std::inplace_merge(live.begin(), released, live.end());

    // Snapshot.
    ClusterState state;
    state.slot = slot;
    state.now_s = now;
    state.slot_seconds = config_.cluster.slot_seconds;
    state.capacity = slot_capacity;
    ResourceVec occupied{};
    state.active.reserve(live.size());
    for (JobUid uid : live) {
      TaskJob& job = jobs[static_cast<std::size_t>(uid)];
      occupied = workload::add(
          occupied, workload::scale(job.container, job.tasks_running));
      JobView view;
      view.uid = job.record.uid;
      view.kind = job.record.kind;
      view.workflow_id = job.record.workflow_id;
      view.node = job.record.node;
      view.arrival_s = job.record.arrival_s;
      view.width = workload::scale(job.container, job.tasks_total);
      view.container = job.container;
      view.ready = job.ready(jobs);
      if (view.ready) {
        if (job.ready_since_s < 0.0) job.ready_since_s = now;
        view.ready_since_s = job.ready_since_s;
      } else {
        view.ready_since_s = now;
      }
      if (job.record.kind == JobKind::kDeadline) {
        // Remaining estimate: unfinished tasks at their estimated cost.
        view.remaining_estimate = workload::scale(
            job.est_per_task, job.tasks_total - job.tasks_done);
        view.overrun = false;  // task model: estimates shift task_slots
      }
      state.active.push_back(view);
    }

    const std::vector<Allocation> allocations = scheduler.allocate(state);

    // Launch new tasks toward each job's granted footprint; running tasks
    // are never preempted and always count against the grant first.
    ResourceVec free = workload::clamp_nonnegative(
        workload::sub(slot_capacity, occupied));
    for (const Allocation& alloc : allocations) {
      if (alloc.uid < 0 ||
          alloc.uid >= static_cast<JobUid>(jobs.size())) {
        continue;
      }
      TaskJob& job = jobs[static_cast<std::size_t>(alloc.uid)];
      if (!job.arrived || job.complete || !job.ready(jobs)) continue;
      // Target containers from the granted footprint (round to nearest:
      // the LP's fractional grants should not starve on floor).
      int target = job.tasks_running;
      for (int r = 0; r < workload::kNumResources; ++r) {
        if (job.container[r] > kTol) {
          target = std::max(
              target, static_cast<int>(std::llround(
                          alloc.amount[r] / job.container[r])));
          break;  // container components are proportional by construction
        }
      }
      int to_start = std::min(target - job.tasks_running,
                              job.tasks_pending());
      while (to_start > 0 &&
             workload::fits_within(job.container, free, kTol)) {
        free = workload::sub(free, job.container);
        job.running_until.push_back(slot + job.task_slots);
        ++job.tasks_running;
        --to_start;
      }
    }

    // Jobs off the live list run no tasks: the live sum is the occupancy.
    ResourceVec used{};
    for (JobUid uid : live) {
      const TaskJob& job = jobs[static_cast<std::size_t>(uid)];
      used = workload::add(
          used, workload::scale(job.container, job.tasks_running));
    }
    result.used_per_slot.push_back(used);
    result.allocated_per_slot.push_back(used);
    result.slots_simulated = slot + 1;
  }

  result.all_completed = incomplete == 0;
  if (!result.all_completed) {
    FT_LOG(kWarn) << "task-level horizon expired with " << incomplete
                  << " incomplete jobs under " << scheduler.name();
  }
  result.jobs.reserve(jobs.size());
  for (TaskJob& job : jobs) result.jobs.push_back(std::move(job.record));
  return result;
}

}  // namespace flowtime::sim
