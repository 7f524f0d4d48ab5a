// MPSC queue of scheduler events (DESIGN.md §11).
//
// The ingestion side of the concurrent runtime: producers (the simulator
// loop, fault injectors, external drivers) push SchedulerEvent values;
// the single consumer — the runtime's serving thread — drains everything
// queued in one sweep at the top of each allocate(). Draining in batches
// is what makes burst coalescing possible: five arrivals queued between
// two slots become one re-plan, not five.
//
// One mutex guards one list. Pushes from any thread are safe and never
// block; the queue has no bound, so it holds whatever arrives between two
// drains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
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
  /// Enqueues one event. Thread-safe.
  void push(sim::SchedulerEvent event);

  /// Moves every queued event into `out` (appending, FIFO order) and
  /// returns how many were taken. Never blocks. Single consumer.
  std::size_t drain(std::vector<StampedEvent>& out);

 private:
  std::mutex mu_;
  std::vector<StampedEvent> items_;
};

}  // namespace flowtime::runtime
