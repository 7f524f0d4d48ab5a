#include "runtime/event_queue.h"

#include <iterator>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace flowtime::runtime {

void EventQueue::push(sim::SchedulerEvent event) {
  StampedEvent item{std::move(event)};
  const bool traced = obs::enabled();
  std::string name;
  double now_s = 0.0;
  bool trigger = false;
  if (traced) {
    item.trace_id = obs::next_trace_id();
    item.enqueue_wall_s = obs::wall_now_s();
    name = std::string(sim::event_name(item.event));
    now_s = sim::event_time(item.event);
    trigger = sim::is_replan_trigger(item.event);
  }
  const std::int64_t trace_id = item.trace_id;
  const double enqueue_wall_s = item.enqueue_wall_s;
  std::size_t depth_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(std::move(item));
    depth_after = items_.size();
    if (obs::enabled()) {
      obs::registry().counter("runtime.events_enqueued").add();
      obs::registry().gauge("runtime.queue_depth").set(
          static_cast<double>(depth_after));
    }
  }
  if (traced) {
    // Chain root. Emitted outside the lock (the sink serializes itself);
    // consumers pair by trace id, never by line order — the consumer may
    // drain and emit `event_dequeued` before this line lands.
    obs::emit(obs::TraceEvent("event_enqueued")
                  .field("trace", trace_id)
                  .field("event", name)
                  .field("now_s", now_s)
                  .field("wall_s", enqueue_wall_s)
                  .field("trigger", trigger)
                  .field("lane", obs::thread_lane())
                  .field("depth", depth_after));
  }
}

std::size_t EventQueue::drain(std::vector<StampedEvent>& out) {
  std::size_t taken = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    taken = items_.size();
    out.insert(out.end(), std::make_move_iterator(items_.begin()),
               std::make_move_iterator(items_.end()));
    items_.clear();
  }
  if (obs::enabled() && taken > 0) {
    obs::registry().gauge("runtime.queue_depth").set(0.0);
  }
  return taken;
}

}  // namespace flowtime::runtime
