#include "sim/task_simulator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/job_table.h"

namespace flowtime::sim {

namespace {

constexpr double kTol = 1e-6;

// Task-level execution state of one job, parallel to the job table's uids.
struct TaskJob {
  int tasks_done = 0;
  int task_slots = 1;  // actual whole-slot duration of one task
  std::vector<int> running_until;  // the end slot of each running task
};

}  // namespace

TaskLevelSimulator::TaskLevelSimulator(TaskSimConfig config)
    : config_(config) {}

SimResult TaskLevelSimulator::run(const workload::Scenario& scenario,
                                  Scheduler& scheduler) {
  SimResult result;
  result.slot_seconds = config_.cluster.slot_seconds;
  // A job's width is one container per task.
  JobTable table(scenario, config_.cluster.slot_seconds,
                 [](const workload::JobSpec& spec, double slot_s) {
                   return workload::scale(
                       workload::scale(spec.task.demand, slot_s),
                       spec.num_tasks);
                 });
  std::vector<TaskJob> jobs(table.size());
  for (JobUid uid = 0; uid < static_cast<JobUid>(jobs.size()); ++uid) {
    const workload::JobSpec& spec = *table.job(uid).spec;
    jobs[static_cast<std::size_t>(uid)].task_slots = std::max(
        1, static_cast<int>(std::ceil(
               spec.task.runtime_s * spec.actual_runtime_factor /
                   config_.cluster.slot_seconds -
               kTol)));
  }

  const int max_slots = static_cast<int>(
      std::ceil(config_.max_horizon_s / config_.cluster.slot_seconds));
  const ResourceVec slot_capacity =
      workload::scale(config_.cluster.capacity, config_.cluster.slot_seconds);

  for (int slot = 0; slot < max_slots && table.incomplete() > 0; ++slot) {
    const double now = slot * config_.cluster.slot_seconds;

    // Tasks finishing at this boundary free their containers.
    for (JobUid uid : table.live()) {
      TaskJob& job = jobs[static_cast<std::size_t>(uid)];
      const auto still_running = std::partition(
          job.running_until.begin(), job.running_until.end(),
          [slot](int until) { return until > slot; });
      const int finished = static_cast<int>(
          std::distance(still_running, job.running_until.end()));
      if (finished > 0) {
        job.running_until.erase(still_running, job.running_until.end());
        job.tasks_done += finished;
        if (job.tasks_done == table.job(uid).spec->num_tasks) {
          table.complete(uid, now);
        }
      }
    }
    for (JobUid uid : table.retire()) {
      scheduler.on_event(JobCompleteEvent{uid, now});
    }
    if (table.incomplete() == 0) {
      result.slots_simulated = slot;
      break;
    }

    table.release(now, scheduler, [](const SchedulerEvent&) {});

    // Snapshot.
    ClusterState state;
    state.slot = slot;
    state.now_s = now;
    state.slot_seconds = config_.cluster.slot_seconds;
    state.capacity = slot_capacity;
    ResourceVec occupied{};
    state.active.reserve(table.live().size());
    for (JobUid uid : table.live()) {
      const TaskJob& job = jobs[static_cast<std::size_t>(uid)];
      JobView& view = table.add_view(state, uid, table.ready(uid));
      occupied = workload::add(
          occupied, workload::scale(view.container, job.running_until.size()));
      if (view.kind == JobKind::kDeadline) {
        // Remaining estimate: unfinished tasks at their estimated cost.
        const workload::JobSpec& spec = *table.job(uid).spec;
        view.remaining_estimate = workload::scale(
            workload::scale(spec.task.demand, spec.task.runtime_s),
            spec.num_tasks - job.tasks_done);
        view.overrun = false;  // task model: estimates shift task_slots
      }
    }

    const std::vector<Allocation> allocations = scheduler.allocate(state);

    // Launch new tasks toward each job's granted footprint; running tasks
    // are never preempted and always count against the grant first.
    ResourceVec free = workload::clamp_nonnegative(
        workload::sub(slot_capacity, occupied));
    for (const Allocation& alloc : allocations) {
      if (!table.is_live(alloc.uid) || !table.ready(alloc.uid)) continue;
      TaskJob& job = jobs[static_cast<std::size_t>(alloc.uid)];
      const ResourceVec& container = table.job(alloc.uid).container;
      // Target containers from the granted footprint (round to nearest:
      // the LP's fractional grants should not starve on floor).
      const int running = static_cast<int>(job.running_until.size());
      int target = running;
      for (int r = 0; r < workload::kNumResources; ++r) {
        if (container[r] > kTol) {
          target = std::max(
              target, static_cast<int>(std::llround(
                          alloc.amount[r] / container[r])));
          break;  // container components are proportional by construction
        }
      }
      const int pending =
          table.job(alloc.uid).spec->num_tasks - job.tasks_done - running;
      int to_start = std::min(target - running, pending);
      while (to_start > 0 &&
             workload::fits_within(container, free, kTol)) {
        free = workload::sub(free, container);
        job.running_until.push_back(slot + job.task_slots);
        --to_start;
      }
    }

    // Jobs off the live list run no tasks: the live sum is the occupancy.
    ResourceVec used{};
    for (JobUid uid : table.live()) {
      const std::size_t running =
          jobs[static_cast<std::size_t>(uid)].running_until.size();
      used = workload::add(used,
                           workload::scale(table.job(uid).container, running));
    }
    result.used_per_slot.push_back(used);
    result.allocated_per_slot.push_back(used);
    result.slots_simulated = slot + 1;
  }

  table.finish(result, scheduler);
  return result;
}

}  // namespace flowtime::sim
