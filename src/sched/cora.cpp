#include "sched/cora.h"

#include <algorithm>
#include <cmath>
#include <variant>

#include "sched/allocation_util.h"

namespace flowtime::sched {

namespace {
constexpr double kTol = 1e-9;
}

CoraScheduler::CoraScheduler(CoraConfig config) : config_(config) {}

void CoraScheduler::on_event(const sim::SchedulerEvent& event) {
  const auto* arrival = std::get_if<sim::WorkflowArrivalEvent>(&event);
  if (arrival == nullptr) return;
  for (sim::JobUid uid : arrival->node_uids) {
    workflow_deadline_by_uid_[uid] = arrival->workflow->deadline_s;
  }
}

std::vector<sim::Allocation> CoraScheduler::allocate(
    const sim::ClusterState& state) {
  std::vector<sim::Allocation> out;
  workload::ResourceVec issued{};

  // Pass 1: pacing rates for deadline jobs (deadline-critical utilities).
  std::map<sim::JobUid, workload::ResourceVec> paced;
  for (const sim::JobView& view : state.active) {
    if (view.kind != sim::JobKind::kDeadline || !view.ready) continue;
    const double deadline = workflow_deadline_by_uid_.at(view.uid);
    const double slots_left =
        std::max(1.0, (deadline - state.now_s) / state.slot_seconds);
    workload::ResourceVec rate{};
    for (int r = 0; r < workload::kNumResources; ++r) {
      const double remaining =
          view.overrun ? view.width[r] : view.remaining_estimate[r];
      rate[r] = std::min(view.width[r],
                         config_.pacing_boost * remaining / slots_left);
    }
    rate = workload::elementwise_min(
        rate, workload::clamp_nonnegative(
                  workload::sub(state.capacity, issued)));
    if (workload::is_zero(rate, kTol)) continue;
    issued = workload::add(issued, rate);
    paced[view.uid] = rate;
  }

  // Pass 2: leftovers max-min across everyone still wanting more.
  std::vector<sim::JobView> residual_views;
  residual_views.reserve(state.active.size());
  for (const sim::JobView& view : state.active) {
    if (!view.ready) continue;
    sim::JobView residual = view;
    const auto it = paced.find(view.uid);
    if (it != paced.end()) {
      residual.width = workload::clamp_nonnegative(
          workload::sub(view.width, it->second));
      if (view.kind == sim::JobKind::kDeadline && !view.overrun) {
        residual.remaining_estimate = workload::clamp_nonnegative(
            workload::sub(view.remaining_estimate, it->second));
      }
    }
    residual_views.push_back(residual);
  }
  std::vector<const sim::JobView*> pointers;
  pointers.reserve(residual_views.size());
  for (const sim::JobView& view : residual_views) pointers.push_back(&view);
  std::vector<sim::Allocation> extra;
  grant_max_min_fair(pointers,
                     workload::clamp_nonnegative(
                         workload::sub(state.capacity, issued)),
                     extra);

  // Merge paced + extra.
  std::map<sim::JobUid, workload::ResourceVec> merged;
  for (const auto& [uid, amount] : paced) merged[uid] = amount;
  for (const sim::Allocation& a : extra) {
    merged[a.uid] = workload::add(merged[a.uid], a.amount);
  }
  out.reserve(merged.size());
  for (const auto& [uid, amount] : merged) {
    out.push_back(sim::Allocation{uid, amount});
  }
  return out;
}

}  // namespace flowtime::sched
