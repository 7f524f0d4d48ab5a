// Bounded MPSC queue of scheduler events (DESIGN.md §11).
//
// The ingestion side of the concurrent runtime: producers (the simulator
// loop, fault injectors, external drivers) push SchedulerEvent values;
// the single consumer — the runtime's serving thread — drains everything
// queued in one sweep at the top of each allocate(). Draining in batches
// is what makes burst coalescing possible: five arrivals queued between
// two slots become one re-plan, not five.
//
// Bounded with blocking push: when the queue is full the producer waits,
// which back-pressures event sources instead of growing memory without
// limit. `close()` releases blocked producers and makes further pushes
// fail, for shutdown.
//
// Deadlock guard: in the standard single-threaded setup the simulator
// thread is both the sole producer and the sole consumer — if it blocked
// on a full queue there would be no thread left to drain it. The queue
// therefore tracks the consumer's thread id (the constructing thread
// until the first drain re-binds it) and a push from that thread never
// blocks: it grows past the bound instead and counts the overflow, so the
// cap back-pressures only genuinely concurrent producers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/events.h"

namespace flowtime::runtime {

/// One queued event plus its causal trace stamp. With obs enabled the queue
/// stamps every accepted event with a process-wide trace id and its enqueue
/// wall time (obs::wall_now_s) and emits an `event_enqueued` trace event —
/// the root of the `event_enqueued → batch_formed → solve_* →
/// plan_adopted|plan_discarded` chain the concurrent runtime completes.
/// With obs disabled both stamps stay zero and nothing is emitted.
struct StampedEvent {
  sim::SchedulerEvent event;
  std::int64_t trace_id = 0;
  double enqueue_wall_s = 0.0;
};

class EventQueue {
 public:
  explicit EventQueue(std::size_t capacity)
      : capacity_(capacity), consumer_(std::this_thread::get_id()) {}

  /// Enqueues one event, blocking while the queue is full — except from
  /// the consumer's own thread, where blocking could never be released
  /// (see the class comment): there the bound is exceeded instead and
  /// overflows() counts it. Returns false (dropping the event) only after
  /// close(). Thread-safe.
  bool push(sim::SchedulerEvent event);

  /// Moves every queued event into `out` (appending, FIFO order) and
  /// returns how many were taken. Never blocks. Single consumer; the
  /// calling thread becomes the consumer for the deadlock guard.
  std::size_t drain(std::vector<sim::SchedulerEvent>& out);

  /// Same, but keeps the causal trace stamps — the overload the concurrent
  /// runtime uses to thread trace ids into batch/replan events.
  std::size_t drain(std::vector<StampedEvent>& out);

  /// Events currently queued (snapshot; racy by nature).
  std::size_t depth() const;

  /// Consumer-thread pushes that found the queue full and grew past the
  /// bound instead of deadlocking.
  std::int64_t overflows() const;

  /// Releases blocked producers and rejects further pushes. Queued events
  /// remain drainable.
  void close();

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::deque<StampedEvent> items_;
  const std::size_t capacity_;
  std::thread::id consumer_;  // guarded by mu_
  std::int64_t overflows_ = 0;
  bool closed_ = false;
};

}  // namespace flowtime::runtime
