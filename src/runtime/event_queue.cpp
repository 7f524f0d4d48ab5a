#include "runtime/event_queue.h"

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace flowtime::runtime {

bool EventQueue::push(sim::SchedulerEvent event) {
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
    std::unique_lock<std::mutex> lock(mu_);
    if (std::this_thread::get_id() == consumer_) {
      // The consumer pushing into its own queue: waiting for a drain that
      // only this thread can perform would deadlock, so exceed the bound
      // instead (the very next drain takes everything anyway).
      if (!closed_ && items_.size() >= capacity_) {
        ++overflows_;
        if (overflows_ == 1) {
          FT_LOG(kWarn) << "EventQueue: consumer-thread push overflowed the "
                           "capacity of " << capacity_
                        << "; growing past the bound instead of blocking";
        }
        if (obs::enabled()) {
          obs::registry().counter("runtime.queue_overflows").add();
        }
      }
    } else {
      not_full_.wait(lock,
                     [this] { return closed_ || items_.size() < capacity_; });
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    depth_after = items_.size();
    if (obs::enabled()) {
      obs::registry().counter("runtime.events_enqueued").add();
      obs::registry().gauge("runtime.queue_depth").set(
          static_cast<double>(items_.size()));
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
  return true;
}

std::size_t EventQueue::drain(std::vector<sim::SchedulerEvent>& out) {
  std::vector<StampedEvent> taken;
  const std::size_t n = drain(taken);
  for (StampedEvent& e : taken) out.push_back(std::move(e.event));
  return n;
}

std::size_t EventQueue::drain(std::vector<StampedEvent>& out) {
  std::deque<StampedEvent> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    consumer_ = std::this_thread::get_id();
    taken.swap(items_);
  }
  not_full_.notify_all();
  if (obs::enabled() && !taken.empty()) {
    obs::registry().gauge("runtime.queue_depth").set(0.0);
  }
  for (StampedEvent& e : taken) out.push_back(std::move(e));
  return taken.size();
}

std::size_t EventQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

std::int64_t EventQueue::overflows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overflows_;
}

void EventQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
}

}  // namespace flowtime::runtime
