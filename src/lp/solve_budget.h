// Deadline-bounded solving (DESIGN.md §10 "Graceful degradation").
//
// A SolveBudget caps how much work the solves of one re-plan may spend
// before the caller's slot deadline: a wall-clock limit (monotonic clock,
// checked between units of work), a shared work cap across every solve
// that carries the same budget, and an optional cooperative cancellation
// token. One "pivot" is one unit of solver work: a max-flow augmenting path
// of lp::FlowNetwork on the flow lexmin's interval network
// (core/flow_placement.h), whose nodes are runs of slots that the same job
// windows cover at the same capacity. One path there can carry a whole
// interval's slots, so `fault_solver pivots=N` cuts a solve later than N
// paths of a per-slot network would. (The tests' simplex reference charges
// one per pivot, its branch-and-bound one per node.) The budget is
// *shared*, not per-solve: FlowTimeScheduler creates one per re-plan and
// passes it to every solve_placement call of that re-plan, so a
// pathological first solve cannot leave later solves with a fresh
// allowance.
//
// Determinism: the pivot cap and the cancel token are deterministic given a
// deterministic pivot sequence; the wall-clock limit is not (it depends on
// machine speed). Tests that assert byte-identical degraded placements must
// therefore drive the ladder with the pivot cap, never the wall clock. The
// scheduler takes its pivot cap from solver sabotage only: the scenario
// directive `fault_solver slot=0 pivots=N` caps every re-plan from slot 0
// on (FlowTimeScheduler::begin_replan merges it into the budget).
//
// Non-owning by design: solve_placement takes a `SolveBudget*`; a null
// pointer (the default everywhere) means unlimited and costs nothing on the
// hot path, so the ladder is transparent when unused.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "lp/solve_status.h"

namespace flowtime::lp {

class SolveBudget {
 public:
  SolveBudget() = default;

  /// Wall-clock allowance from *now*; <= 0 leaves the clock unlimited.
  void set_wall_clock_ms(double ms) {
    if (ms <= 0.0) {
      has_deadline_ = false;
      return;
    }
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  }

  /// Total pivots every solve sharing this budget may spend; <= 0 = unlimited.
  void set_pivot_cap(std::int64_t cap) { pivot_cap_ = cap > 0 ? cap : 0; }

  /// Cooperative cancellation: the solver polls `cancel` between pivots and
  /// stops (status kTimeout) once it reads true. Not owned; may be null.
  void set_cancel_token(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// False when no limit is set: callers may skip installing the budget
  /// entirely, keeping the unlimited path identical to pre-budget builds.
  bool limited() const {
    return has_deadline_ || pivot_cap_ > 0 || cancel_ != nullptr;
  }

  /// Called by lp::FlowNetwork once per augmenting path; feeds the shared
  /// cap.
  void charge_pivot() { ++pivots_used_; }
  std::int64_t pivots_used() const { return pivots_used_; }

  /// Checked between units of work. Cheapest test first: the deterministic
  /// pivot cap, then the cancel token, then the clock (one steady_clock
  /// read per augmenting path — far below the cost of its path search).
  /// Exhaustion latches, so the status query below stays consistent even
  /// if the caller re-tests after the deadline has drifted further.
  bool exhausted() {
    if (exhausted_) return true;
    if (pivot_cap_ > 0 && pivots_used_ >= pivot_cap_) {
      exhausted_ = true;
      timed_out_ = false;
      return true;
    }
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      exhausted_ = true;
      timed_out_ = true;  // cancellation reports as a timeout
      return true;
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      exhausted_ = true;
      timed_out_ = true;
      return true;
    }
    return false;
  }

  /// What a solve cut short by this budget should report: kTimeout for the
  /// watchdog/cancellation, kIterationLimit for the pivot cap. Meaningful
  /// only after exhausted() returned true.
  SolveStatus exhausted_status() const {
    return timed_out_ ? SolveStatus::kTimeout : SolveStatus::kIterationLimit;
  }

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::int64_t pivot_cap_ = 0;
  std::int64_t pivots_used_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
  bool exhausted_ = false;
  bool timed_out_ = false;
};

}  // namespace flowtime::lp
