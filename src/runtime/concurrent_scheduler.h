// Concurrent scheduler runtime: asynchronous re-planning behind the
// sim::Scheduler interface (DESIGN.md §11).
//
// Wraps a core::FlowTimeScheduler and moves the expensive lexmin LP solve
// off the serving path:
//
//   producers ──► EventQueue ──► [serving thread: drain + apply + serve]
//                                      │ begin_replan (snapshot, epoch E)
//                                      ▼
//                               [solver thread: solve_replan]
//                                      │ future ready
//                                      ▼
//                 [serving thread: finish_replan adopts or discards]
//
// Three properties, in decreasing order of importance:
//   * allocate() never blocks on a solve (unless barrier_mode): the current
//     plan keeps serving while the next one is computed;
//   * bursts coalesce: all events drained in one sweep trigger at most one
//     re-plan, not one each;
//   * staleness is detected, not ignored: a solve whose planner inputs
//     changed mid-flight (epoch mismatch) is discarded by finish_replan —
//     and preempted early via the cancel token so the solver thread stops
//     wasting pivots.
//
// Determinism: with `barrier_mode = true` every allocate() waits for the
// in-flight solve to adopt before serving, which serializes the run
// plan-for-plan with the bare FlowTimeScheduler while still exercising the
// full queue/snapshot/solver-thread machinery — the property the
// determinism tests pin. Synchronous runs use the bare scheduler itself.
//
// Causal tracing (obs enabled, DESIGN.md §8): every queued event carries a
// trace id stamped at enqueue; the serving thread links events to their
// drained batch (`event_dequeued` / `batch_formed`), batches to the replan
// attempt that absorbs them (`batch_planned` / `solve_begin`), and every
// attempt to exactly one terminal — `plan_adopted` or `plan_discarded` —
// whose queue-wait + coalesce + solve + adoption-lag stages sum to the
// replan's end-to-end wall latency by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "obs/span.h"
#include "runtime/event_queue.h"
#include "runtime/solver_pool.h"
#include "sim/scheduler.h"

namespace flowtime::runtime {

struct RuntimeConfig {
  core::FlowTimeConfig flowtime;
  /// Every allocate() waits for the in-flight solve and adopts it before
  /// serving. Deterministic (same plans as the synchronous path) at the
  /// cost of blocking per slot.
  bool barrier_mode = false;
  /// Test hook, solver thread: called right before each solve runs. Tests
  /// block in here to hold a solve in flight deterministically (e.g. to
  /// force staleness). Must not touch the scheduler.
  std::function<void(const core::PendingReplan&)> solve_started_hook;
};

class ConcurrentScheduler : public sim::Scheduler {
 public:
  explicit ConcurrentScheduler(RuntimeConfig config);
  ~ConcurrentScheduler() override;

  ConcurrentScheduler(const ConcurrentScheduler&) = delete;
  ConcurrentScheduler& operator=(const ConcurrentScheduler&) = delete;

  /// Reports the inner policy's name so comparisons and reports treat the
  /// wrapped scheduler as the same policy (the runtime is infrastructure,
  /// not a policy).
  std::string name() const override { return inner_.name(); }
  const workload::ClusterSpec* cluster_spec() const override {
    return inner_.cluster_spec();
  }

  /// O(1): the event is enqueued (value semantics; workflow payloads ride
  /// as non-owning shared_ptrs) and applied at the next allocate().
  void on_event(const sim::SchedulerEvent& event) override;

  /// Serving entry point; see the class comment for the async pipeline.
  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override;

  /// Applies everything queued to the inner scheduler, counting coalesced
  /// replan triggers and preempting a solve the batch made stale. No
  /// re-plan is started. allocate() starts with it; call it after a run's
  /// last allocate to apply the events that arrived since. Serving thread
  /// only.
  void drain_events();

  /// Blocks until no solve is in flight and the planner is clean: drains
  /// events, then begin/wait/finish in a loop. Serving thread only.
  void quiesce(const sim::ClusterState& state);

  // --- Runtime statistics (serving thread, or after the run) -------------
  /// Replan-trigger events that shared a re-plan with an earlier trigger
  /// of the same drained batch instead of causing their own.
  std::int64_t coalesced_events() const { return coalesced_events_; }
  /// Solves that completed but were discarded because their inputs went
  /// stale mid-flight (finish_replan declined them).
  std::int64_t stale_solves() const { return stale_solves_; }
  /// Subset of stale_solves() that the cancel token stopped early.
  std::int64_t preempted_solves() const { return preempted_solves_; }
  /// Solves submitted to the solver thread.
  std::int64_t async_solves() const { return async_solves_; }

  /// The wrapped scheduler, for stats (replans, pivots, replan_log) and
  /// deadline evaluation. Do not call mutating members while a run is in
  /// progress.
  const core::FlowTimeScheduler& inner() const { return inner_; }
  core::FlowTimeScheduler& inner() { return inner_; }

 private:
  /// One solve in flight. The serving thread owns the structure; the
  /// solver thread touches only `pending` (read), `result` and
  /// `done_wall_s` (write) and `cancel` (read). `done` is the hand-off:
  /// once it is ready, everything the solver thread wrote is visible to
  /// the serving thread.
  struct InFlight {
    core::PendingReplan pending;
    core::PlanSolveResult result;
    std::future<void> done;
    std::atomic<bool> cancel{false};
    obs::SpanId span = obs::kNoSpan;
    // --- causal-chain stamps (obs enabled only; 0 otherwise) --------------
    /// Trace id of this replan attempt; links batch_planned / solve_begin /
    /// solve_done / plan_adopted|plan_discarded.
    std::int64_t replan_trace = 0;
    /// Enqueue wall time of the oldest trigger event this replan absorbs
    /// (submit time when the trigger was internal, e.g. plan exhaustion).
    double first_enqueue_wall_s = 0.0;
    /// Drain wall time of that trigger's batch.
    double first_dequeue_wall_s = 0.0;
    /// Serving thread, at pool submission.
    double submit_wall_s = 0.0;
    /// Solver thread, right after the solve.
    double done_wall_s = 0.0;
  };

  /// One drained batch containing at least one replan trigger, not yet
  /// absorbed by a replan. Serving thread only; populated only when obs is
  /// enabled (causal bookkeeping, no scheduling effect).
  struct PendingBatch {
    std::int64_t batch_trace = 0;
    double first_trigger_enqueue_wall_s = 0.0;
    double dequeue_wall_s = 0.0;
  };

  /// Hands a finished solve, if any, to finish_replan.
  void harvest(double now_s);
  /// Starts a solve when the planner is dirty and none is in flight.
  void maybe_submit(const sim::ClusterState& state);
  /// Waits for the in-flight solve and harvests it, re-submitting while the
  /// planner stays dirty, until no solve is in flight.
  void settle(const sim::ClusterState& state);
  /// Emits the chain terminal (`plan_adopted` / `plan_discarded`) with the
  /// per-stage latency decomposition, and observes the stage histograms.
  void emit_terminal(const InFlight& fin, bool adopted, bool stale,
                     double harvest_wall_s);

  RuntimeConfig config_;
  core::FlowTimeScheduler inner_;
  EventQueue queue_;
  /// The solver thread. inflight_ is singular, so the planner never has two
  /// solves in flight — the contract core::FlowTimeScheduler::solve_replan
  /// documents for its warm cache.
  SolverPool pool_;
  std::unique_ptr<InFlight> inflight_;
  std::vector<StampedEvent> batch_;  // drain scratch, reused
  std::vector<PendingBatch> pending_batches_;  // trigger batches awaiting a replan
  std::int64_t coalesced_events_ = 0;
  std::int64_t stale_solves_ = 0;
  std::int64_t preempted_solves_ = 0;
  std::int64_t async_solves_ = 0;
};

}  // namespace flowtime::runtime
