// What both simulators do the same way: the uid layout (workflow jobs
// first, in scenario order, then ad-hoc jobs), the release of arrivals into
// the uid-ordered live list of arrived, incomplete jobs, readiness, the
// common view fields and the end of the run. Each simulator keeps its
// execution state in a vector parallel to the uids and walks live() in
// every per-slot pass, so a slot costs in proportion to live jobs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/deadline_monitor.h"
#include "sim/simulator.h"
#include "util/logging.h"

namespace flowtime::sim {

class JobTable {
 public:
  /// A job's per-slot width: each simulator keeps its own arithmetic.
  using WidthRule = ResourceVec (*)(const workload::JobSpec&, double slot_s);

  struct Job {
    const workload::JobSpec* spec = nullptr;  // in the scenario
    std::vector<JobUid> parent_uids;          // empty for ad-hoc jobs
    ResourceVec width{};
    ResourceVec container{};  // one task's per-slot footprint
    bool arrived = false;
    bool complete = false;
    double ready_since_s = -1.0;  // first instant the job was runnable
  };

  /// `scenario` must outlive the table.
  JobTable(const workload::Scenario& scenario, double slot_seconds,
           WidthRule width) {
    // Registering a workflow again keeps its state, which is right within a
    // run (a moved workflow) but not across runs that reuse workflow ids.
    obs::deadline_monitor().reset();
    std::size_t num_jobs = scenario.adhoc_jobs.size();
    for (const workload::Workflow& w : scenario.workflows) {
      num_jobs += static_cast<std::size_t>(w.dag.num_nodes());
    }
    records_.reserve(num_jobs);
    jobs_.reserve(num_jobs);
    const auto add = [&](const workload::JobSpec& spec) -> JobRecord& {
      jobs_.push_back(Job{&spec, {}, width(spec, slot_seconds),
                          workload::scale(spec.task.demand, slot_seconds)});
      JobRecord& record = records_.emplace_back();
      record.uid = static_cast<JobUid>(records_.size() - 1);
      record.actual_demand = spec.actual_total_demand();
      return record;
    };
    // A workflow's jobs take consecutive uids: node v is first + v.
    for (const workload::Workflow& w : scenario.workflows) {
      assert(w.valid());
      PendingWorkflow& pending = workflow_arrivals_.emplace_back();
      pending.workflow = &w;
      const auto first = static_cast<JobUid>(jobs_.size());
      for (dag::NodeId v = 0; v < w.dag.num_nodes(); ++v) {
        const workload::JobSpec& spec = w.jobs[static_cast<std::size_t>(v)];
        JobRecord& record = add(spec);
        record.kind = JobKind::kDeadline;
        record.name = w.name + "/" + spec.name + "#" + std::to_string(v);
        record.workflow_id = w.id;
        record.node = v;
        record.arrival_s = w.start_s;
        pending.node_uids.push_back(record.uid);
        for (dag::NodeId p : w.dag.parents(v)) {
          jobs_.back().parent_uids.push_back(first + p);
        }
      }
    }
    for (const workload::AdhocJob& a : scenario.adhoc_jobs) {
      JobRecord& record = add(a.spec);
      record.kind = JobKind::kAdhoc;
      record.name = a.spec.name;
      record.arrival_s = a.arrival_s;
      adhoc_arrivals_.push_back(record.uid);
    }
    incomplete_ = jobs_.size();

    // Arrival queues sorted by time. std::sort is not stable: the order is
    // deterministic, but ties do not keep their input order.
    std::sort(workflow_arrivals_.begin(), workflow_arrivals_.end(),
              [](const PendingWorkflow& a, const PendingWorkflow& b) {
                return a.workflow->start_s < b.workflow->start_s;
              });
    std::sort(adhoc_arrivals_.begin(), adhoc_arrivals_.end(),
              [&](JobUid a, JobUid b) {
                return records_[at(a)].arrival_s < records_[at(b)].arrival_s;
              });
  }

  std::size_t size() const { return jobs_.size(); }
  std::size_t incomplete() const { return incomplete_; }
  const Job& job(JobUid uid) const { return jobs_[at(uid)]; }
  JobRecord& record(JobUid uid) { return records_[at(uid)]; }
  const std::vector<JobUid>& live() const { return live_; }

  /// A valid uid of an arrived, incomplete job: what a grant may reach.
  bool is_live(JobUid uid) const {
    return uid >= 0 && at(uid) < jobs_.size() && jobs_[at(uid)].arrived &&
           !jobs_[at(uid)].complete;
  }
  bool ready(JobUid uid) const {  // every DAG parent complete
    const std::vector<JobUid>& parents = jobs_[at(uid)].parent_uids;
    return std::all_of(parents.begin(), parents.end(),
                       [&](JobUid p) { return jobs_[at(p)].complete; });
  }

  /// Delivers the arrivals due by `now` (workflows, then ad-hoc jobs, each
  /// in arrival order) and merges them into the live list.
  /// `before_delivery(event)` runs just before the scheduler sees `event`.
  template <class BeforeDelivery>
  void release(double now, Scheduler& scheduler,
               BeforeDelivery&& before_delivery) {
    constexpr double kTol = 1e-6;  // arrived by the start of the slot
    const auto deliver = [&](const SchedulerEvent& event) {
      before_delivery(event);
      scheduler.on_event(event);
    };
    const std::size_t released_from = live_.size();
    while (next_workflow_ < workflow_arrivals_.size() &&
           workflow_arrivals_[next_workflow_].workflow->start_s <= now + kTol) {
      const PendingWorkflow& pending = workflow_arrivals_[next_workflow_++];
      for (JobUid uid : pending.node_uids) {
        jobs_[at(uid)].arrived = true;
        live_.push_back(uid);
      }
      // The event aliases the scenario's workflow: no copy, no ownership.
      deliver(WorkflowArrivalEvent{
          std::shared_ptr<const workload::Workflow>(
              std::shared_ptr<const workload::Workflow>(), pending.workflow),
          pending.node_uids, now});
    }
    while (next_adhoc_ < adhoc_arrivals_.size() &&
           records_[at(adhoc_arrivals_[next_adhoc_])].arrival_s <= now + kTol) {
      const JobUid uid = adhoc_arrivals_[next_adhoc_++];
      jobs_[at(uid)].arrived = true;
      live_.push_back(uid);
      deliver(AdhocArrivalEvent{uid, now, jobs_[at(uid)].width});
    }
    // A later-starting workflow can hold lower uids than live jobs, and
    // ad-hoc uids need not follow arrival order: sort the new ones, merge.
    const auto released =
        live_.begin() + static_cast<std::ptrdiff_t>(released_from);
    std::sort(released, live_.end());
    std::inplace_merge(live_.begin(), released, live_.end());
  }

  /// Appends the job's view to `state`. The first `runnable` instant
  /// latches into ready_since_s; a job not runnable yet reads now.
  JobView& add_view(ClusterState& state, JobUid uid, bool runnable) {
    const JobRecord& rec = records_[at(uid)];
    Job& job = jobs_[at(uid)];
    if (runnable && job.ready_since_s < 0.0) job.ready_since_s = state.now_s;
    JobView& view = state.active.emplace_back();
    view.uid = rec.uid;
    view.kind = rec.kind;
    view.workflow_id = rec.workflow_id;
    view.node = rec.node;
    view.arrival_s = rec.arrival_s;
    view.ready_since_s = runnable ? job.ready_since_s : state.now_s;
    view.width = job.width;
    view.container = job.container;
    view.ready = runnable;
    return view;
  }
  /// Re-arms the latch for a job that becomes runnable later (a retry).
  void unlatch_ready_since(JobUid uid) { jobs_[at(uid)].ready_since_s = -1.0; }

  /// The job leaves the live list at the next retire().
  void complete(JobUid uid, double completion_s) {
    jobs_[at(uid)].complete = true;
    records_[at(uid)].completion_s = completion_s;
    --incomplete_;
    completed_.push_back(uid);
  }
  /// Once per slot: drops this slot's completed jobs from live(); returns them.
  std::vector<JobUid> retire() {
    std::vector<JobUid> done;
    done.swap(completed_);
    if (!done.empty()) {
      std::erase_if(live_, [&](JobUid uid) { return jobs_[at(uid)].complete; });
    }
    return done;
  }

  /// Warns once if the horizon expired and moves the records out.
  void finish(SimResult& result, const Scheduler& scheduler) {
    result.all_completed = incomplete_ == 0;
    if (!result.all_completed) {
      FT_LOG(kWarn) << "simulation horizon expired with " << incomplete_
                    << " incomplete jobs under scheduler " << scheduler.name();
    }
    result.jobs = std::move(records_);
  }

 private:
  struct PendingWorkflow {
    const workload::Workflow* workflow = nullptr;
    std::vector<JobUid> node_uids;
  };

  static std::size_t at(JobUid uid) { return static_cast<std::size_t>(uid); }

  std::vector<JobRecord> records_;
  std::vector<Job> jobs_;
  std::vector<PendingWorkflow> workflow_arrivals_;  // by start time
  std::vector<JobUid> adhoc_arrivals_;              // by arrival time
  std::size_t next_workflow_ = 0;
  std::size_t next_adhoc_ = 0;
  std::size_t incomplete_ = 0;
  std::vector<JobUid> live_;
  std::vector<JobUid> completed_;  // since the last retire()
};

}  // namespace flowtime::sim
