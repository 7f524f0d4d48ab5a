// Rayon-like reservation scheduler (Curino et al., SoCC 2014 [4] —
// "Reservation-based Scheduling: If You're Late Don't Blame Us!").
//
// Rayon admits deadline work by *reservation*: when a job with a known
// deadline arrives, it books concrete capacity in a cluster agenda — as
// early as feasible — and at runtime the job consumes exactly its booked
// share; best-effort work runs in whatever the agenda left free. The
// paper's critique (§I) is that Rayon needs per-job deadlines as input;
// like our EDF baseline it receives the decomposed milestones, making it
// the strongest honest version of itself.
//
// Differences from FlowTime this baseline exposes:
//   * greedy earliest-fit booking instead of a global lexmin LP — the
//     agenda's profile is front-loaded, not flat;
//   * reservations are made per job at arrival, never re-balanced when
//     other workflows arrive later (no re-planning).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/decomposition.h"
#include "sim/scheduler.h"

namespace flowtime::sched {

class RayonScheduler : public sim::Scheduler {
 public:
  /// Slot length comes from `decomposition.cluster` — one ClusterSpec
  /// carries the whole cluster shape.
  explicit RayonScheduler(core::DecompositionConfig decomposition = {});

  std::string name() const override { return "Rayon"; }
  /// Workflow arrivals book reservations; completions release the unused
  /// tail of a booking.
  void on_event(const sim::SchedulerEvent& event) override;
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;

  /// Total slots booked in the agenda (introspection for tests).
  int reserved_slots() const { return static_cast<int>(agenda_.size()); }

 private:
  struct Reservation {
    // Booked amounts from booking_first_slot on.
    int first_slot = 0;
    std::vector<workload::ResourceVec> amounts;
    workload::ResourceVec width{};
    bool complete = false;
  };

  /// Books `demand` for a job as early as possible within
  /// [release_slot, +inf), preferring slots before `deadline_slot`.
  void book(sim::JobUid uid, int release_slot, int deadline_slot,
            const workload::ResourceVec& demand,
            const workload::ResourceVec& width);

  workload::ResourceVec reserved_at(int slot) const;
  void release_booking(sim::JobUid uid);

  core::DeadlineDecomposer decomposer_;
  workload::ResourceVec capacity_per_slot_{};
  double slot_seconds_ = 10.0;

  std::map<int, workload::ResourceVec> agenda_;  // slot -> total reserved
  std::map<sim::JobUid, Reservation> reservations_;
};

}  // namespace flowtime::sched
