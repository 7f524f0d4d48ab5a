#include "sched/baselines.h"

#include <algorithm>
#include <variant>

#include "sched/allocation_util.h"
#include "util/logging.h"

namespace flowtime::sched {

namespace {

std::vector<const sim::JobView*> views_of(const sim::ClusterState& state) {
  std::vector<const sim::JobView*> views;
  views.reserve(state.active.size());
  for (const sim::JobView& view : state.active) views.push_back(&view);
  return views;
}

}  // namespace

std::vector<sim::Allocation> FifoScheduler::allocate(
    const sim::ClusterState& state) {
  // FIFO queues jobs in *submission* order. A workflow manager submits each
  // job when its parents finish, so workflow jobs enter the queue at their
  // ready time, behind whatever ad-hoc backlog accumulated meanwhile.
  std::vector<const sim::JobView*> views = views_of(state);
  std::sort(views.begin(), views.end(),
            [](const sim::JobView* a, const sim::JobView* b) {
              if (a->ready_since_s != b->ready_since_s) {
                return a->ready_since_s < b->ready_since_s;
              }
              return a->uid < b->uid;
            });
  std::vector<sim::Allocation> out;
  workload::ResourceVec issued{};
  grant_greedy_in_order(views, state.capacity, /*respect_estimate=*/true,
                        issued, out);
  return out;
}

std::vector<sim::Allocation> FairScheduler::allocate(
    const sim::ClusterState& state) {
  std::vector<sim::Allocation> out;
  grant_max_min_fair(views_of(state), state.capacity, out);
  return out;
}

EdfScheduler::EdfScheduler(core::DecompositionConfig decomposition,
                           bool strict_adhoc_blocking)
    : decomposer_(decomposition),
      strict_adhoc_blocking_(strict_adhoc_blocking) {}

void EdfScheduler::on_event(const sim::SchedulerEvent& event) {
  const auto* arrival = std::get_if<sim::WorkflowArrivalEvent>(&event);
  if (arrival == nullptr) return;
  const workload::Workflow& workflow = *arrival->workflow;
  const std::vector<sim::JobUid>& node_uids = arrival->node_uids;
  const auto decomposition = decomposer_.decompose(workflow);
  for (dag::NodeId v = 0; v < workflow.dag.num_nodes(); ++v) {
    deadline_by_uid_[node_uids[static_cast<std::size_t>(v)]] =
        decomposition.ok() ? decomposition.windows[static_cast<std::size_t>(v)]
                            .deadline_s
                      : workflow.deadline_s;
  }
}

std::vector<sim::Allocation> EdfScheduler::allocate(
    const sim::ClusterState& state) {
  std::vector<const sim::JobView*> deadline_views;
  std::vector<const sim::JobView*> adhoc_views;
  for (const sim::JobView& view : state.active) {
    (view.kind == sim::JobKind::kDeadline ? deadline_views : adhoc_views)
        .push_back(&view);
  }
  std::sort(deadline_views.begin(), deadline_views.end(),
            [this](const sim::JobView* a, const sim::JobView* b) {
              const double da = deadline_by_uid_.at(a->uid);
              const double db = deadline_by_uid_.at(b->uid);
              if (da != db) return da < db;
              return a->uid < b->uid;
            });
  std::sort(adhoc_views.begin(), adhoc_views.end(),
            [](const sim::JobView* a, const sim::JobView* b) {
              if (a->arrival_s != b->arrival_s) {
                return a->arrival_s < b->arrival_s;
              }
              return a->uid < b->uid;
            });
  std::vector<sim::Allocation> out;
  workload::ResourceVec issued{};
  grant_greedy_in_order(deadline_views, state.capacity,
                        /*respect_estimate=*/true, issued, out);
  // The paper's EDF starves ad-hoc work whenever deadline-aware jobs are in
  // the cluster; the non-strict variant hands them the leftovers instead.
  if (!strict_adhoc_blocking_ || deadline_views.empty()) {
    grant_greedy_in_order(adhoc_views, state.capacity,
                          /*respect_estimate=*/true, issued, out);
  }
  return out;
}

}  // namespace flowtime::sched
