#include "sched/rayon.h"

#include <algorithm>
#include <cmath>
#include <variant>

#include "sched/allocation_util.h"
#include "util/logging.h"

namespace flowtime::sched {

namespace {
constexpr double kTol = 1e-9;
}

RayonScheduler::RayonScheduler(core::DecompositionConfig decomposition)
    : decomposer_(decomposition),
      slot_seconds_(decomposition.cluster.slot_seconds) {
  capacity_per_slot_ = decomposition.cluster.capacity_per_slot();
}

workload::ResourceVec RayonScheduler::reserved_at(int slot) const {
  const auto it = agenda_.find(slot);
  return it == agenda_.end() ? workload::ResourceVec{} : it->second;
}

void RayonScheduler::book(sim::JobUid uid, int release_slot,
                          int deadline_slot,
                          const workload::ResourceVec& demand,
                          const workload::ResourceVec& width) {
  Reservation reservation;
  reservation.first_slot = release_slot;
  reservation.width = width;
  workload::ResourceVec remaining = demand;
  int slot = release_slot;
  // Earliest-fit: walk forward booking whatever fits each slot; Rayon
  // accepts lateness ("if you're late don't blame us") by booking past the
  // deadline when the window is already full.
  const int hard_stop = release_slot + 100000;  // safety valve
  while (!workload::is_zero(remaining, kTol) && slot < hard_stop) {
    const workload::ResourceVec free = workload::clamp_nonnegative(
        workload::sub(capacity_per_slot_, reserved_at(slot)));
    workload::ResourceVec take =
        workload::elementwise_min(workload::elementwise_min(free, width),
                                  remaining);
    reservation.amounts.push_back(take);
    if (!workload::is_zero(take, kTol)) {
      agenda_[slot] = workload::add(reserved_at(slot), take);
      remaining = workload::clamp_nonnegative(
          workload::sub(remaining, take));
    }
    ++slot;
  }
  (void)deadline_slot;
  reservations_[uid] = std::move(reservation);
}

void RayonScheduler::on_event(const sim::SchedulerEvent& event) {
  if (const auto* complete = std::get_if<sim::JobCompleteEvent>(&event)) {
    // Early completion: hand the unused tail of the booking back.
    release_booking(complete->uid);
    return;
  }
  const auto* arrival = std::get_if<sim::WorkflowArrivalEvent>(&event);
  if (arrival == nullptr) return;
  const workload::Workflow& workflow = *arrival->workflow;
  const std::vector<sim::JobUid>& node_uids = arrival->node_uids;
  const auto decomposition = decomposer_.decompose(workflow);
  const int now_slot =
      static_cast<int>(std::floor(arrival->now_s / slot_seconds_ + kTol));
  for (dag::NodeId v = 0; v < workflow.dag.num_nodes(); ++v) {
    const workload::JobSpec& spec = workflow.jobs[static_cast<std::size_t>(v)];
    double release_s = workflow.start_s;
    double deadline_s = workflow.deadline_s;
    if (decomposition) {
      release_s = decomposition.windows[static_cast<std::size_t>(v)].start_s;
      deadline_s =
          decomposition.windows[static_cast<std::size_t>(v)].deadline_s;
    }
    const int release_slot = std::max(
        now_slot,
        static_cast<int>(std::floor(release_s / slot_seconds_ + kTol)));
    const int deadline_slot = static_cast<int>(
        std::ceil(deadline_s / slot_seconds_ - kTol)) - 1;
    book(node_uids[static_cast<std::size_t>(v)], release_slot, deadline_slot,
         spec.total_demand(),
         workload::scale(spec.max_parallel_demand(), slot_seconds_));
  }
}

void RayonScheduler::release_booking(sim::JobUid uid) {
  const auto it = reservations_.find(uid);
  if (it == reservations_.end()) return;
  const Reservation& reservation = it->second;
  for (std::size_t i = 0; i < reservation.amounts.size(); ++i) {
    const int slot = reservation.first_slot + static_cast<int>(i);
    agenda_[slot] = workload::clamp_nonnegative(
        workload::sub(agenda_[slot], reservation.amounts[i]));
  }
  reservations_.erase(it);
}

std::vector<sim::Allocation> RayonScheduler::allocate(
    const sim::ClusterState& state) {
  std::vector<sim::Allocation> out;
  workload::ResourceVec issued{};
  std::vector<const sim::JobView*> adhoc_views;
  std::vector<sim::JobUid> to_rebook;

  for (const sim::JobView& view : state.active) {
    if (view.kind == sim::JobKind::kAdhoc) {
      adhoc_views.push_back(&view);
      continue;
    }
    const auto it = reservations_.find(view.uid);
    if (it == reservations_.end()) continue;
    const Reservation& reservation = it->second;
    const int index = state.slot - reservation.first_slot;
    workload::ResourceVec amount{};
    if (index >= 0 && index < static_cast<int>(reservation.amounts.size())) {
      amount = reservation.amounts[static_cast<std::size_t>(index)];
    } else if (index >= static_cast<int>(reservation.amounts.size())) {
      // Booking exhausted but the job still runs (under-estimate or missed
      // slots while parents ran late): re-book the residual from now.
      to_rebook.push_back(view.uid);
    }
    if (workload::is_zero(amount, kTol)) continue;
    if (!view.ready) {
      // The reservation burns unused (Rayon has no DAG knowledge); the
      // booking slides forward implicitly via the rebooking path.
      continue;
    }
    amount = workload::elementwise_min(amount, view.width);
    amount = workload::elementwise_min(
        amount, workload::clamp_nonnegative(
                    workload::sub(state.capacity, issued)));
    issued = workload::add(issued, amount);
    out.push_back(sim::Allocation{view.uid, amount});
  }

  // Re-book exhausted jobs for the NEXT slot onwards.
  for (sim::JobUid uid : to_rebook) {
    const sim::JobView* view = nullptr;
    for (const sim::JobView& candidate : state.active) {
      if (candidate.uid == uid) {
        view = &candidate;
        break;
      }
    }
    if (view == nullptr) continue;
    release_booking(uid);
    workload::ResourceVec residual = view->overrun
                                         ? view->width
                                         : view->remaining_estimate;
    book(uid, state.slot + 1, state.slot + 1, residual, view->width);
  }

  // Best-effort jobs take the physically free capacity (not merely the
  // unbooked agenda — unconsumed reservations are lost, per Rayon), FIFO.
  std::sort(adhoc_views.begin(), adhoc_views.end(),
            [](const sim::JobView* a, const sim::JobView* b) {
              if (a->arrival_s != b->arrival_s) {
                return a->arrival_s < b->arrival_s;
              }
              return a->uid < b->uid;
            });
  grant_greedy_in_order(adhoc_views, state.capacity,
                        /*respect_estimate=*/true, issued, out);
  return out;
}

}  // namespace flowtime::sched
