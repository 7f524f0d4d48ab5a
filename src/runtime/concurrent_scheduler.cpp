#include "runtime/concurrent_scheduler.h"

#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace flowtime::runtime {

ConcurrentScheduler::ConcurrentScheduler(RuntimeConfig config)
    : config_(std::move(config)), inner_(config_.flowtime) {}

ConcurrentScheduler::~ConcurrentScheduler() {
  if (!inflight_) return;
  // The run ended with a solve still in flight: stop it, let the solver
  // thread finish with it, and account its pivots as a discarded attempt
  // rather than losing them.
  inflight_->cancel.store(true, std::memory_order_relaxed);
  inflight_->done.wait();
  inner_.abandon_replan(inflight_->pending, inflight_->result);
  if (obs::enabled()) {
    // Close the chain even on teardown: every solve_begin must reach a
    // terminal for the trace to balance.
    obs::end_span(inflight_->span, inflight_->pending.state.now_s);
    emit_terminal(*inflight_, /*adopted=*/false, /*stale=*/true,
                  obs::wall_now_s());
  }
}

void ConcurrentScheduler::on_event(const sim::SchedulerEvent& event) {
  queue_.push(event);
}

std::vector<sim::Allocation> ConcurrentScheduler::allocate(
    const sim::ClusterState& state) {
  drain_events();
  // Adopt a finished solve before syncing views, so plan-exhaustion is
  // judged against the freshest plan.
  harvest(state.now_s);
  inner_.sync_views(state);
  maybe_submit(state);
  if (config_.barrier_mode) {
    // Deterministic mode: no plan is served while a newer one is pending.
    // Events cannot interleave here (single serving thread), so the solve
    // is never stale and the loop adopts exactly what the synchronous
    // path would have computed.
    settle(state);
  }
  return inner_.serve(state);
}

void ConcurrentScheduler::quiesce(const sim::ClusterState& state) {
  drain_events();
  harvest(state.now_s);
  inner_.sync_views(state);
  maybe_submit(state);
  settle(state);
}

void ConcurrentScheduler::settle(const sim::ClusterState& state) {
  while (inflight_) {
    inflight_->done.wait();
    harvest(state.now_s);
    maybe_submit(state);
  }
}

void ConcurrentScheduler::drain_events() {
  batch_.clear();
  queue_.drain(batch_);
  if (batch_.empty()) return;
  const bool traced = obs::enabled();
  const double drain_wall_s = traced ? obs::wall_now_s() : 0.0;
  const std::int64_t batch_trace = traced ? obs::next_trace_id() : 0;
  double first_trigger_enqueue_wall_s = 0.0;
  int triggers = 0;
  for (const StampedEvent& item : batch_) {
    const bool trigger = sim::is_replan_trigger(item.event);
    if (trigger && triggers++ == 0) {
      first_trigger_enqueue_wall_s = item.enqueue_wall_s;
    }
    if (traced && item.trace_id != 0) {
      const double wait_ms = (drain_wall_s - item.enqueue_wall_s) * 1e3;
      obs::registry().histogram("runtime.queue_wait_ms").observe(wait_ms);
      obs::emit(obs::TraceEvent("event_dequeued")
                    .field("trace", item.trace_id)
                    .field("batch", batch_trace)
                    .field("queue_wait_ms", wait_ms)
                    .field("wall_s", drain_wall_s));
    }
    inner_.on_event(item.event);
  }
  if (traced) {
    obs::emit(obs::TraceEvent("batch_formed")
                  .field("batch", batch_trace)
                  .field("events", batch_.size())
                  .field("triggers", triggers)
                  .field("lane", obs::thread_lane())
                  .field("wall_s", drain_wall_s));
    if (triggers > 0) {
      // Only trigger-bearing batches feed a replan; trigger-free ones end
      // their chain at batch_formed.
      pending_batches_.push_back(
          PendingBatch{batch_trace, first_trigger_enqueue_wall_s,
                       drain_wall_s});
    }
  }
  if (triggers > 1) {
    // All the triggers of this batch share the single re-plan the batch
    // causes; everything past the first rode along for free.
    coalesced_events_ += triggers - 1;
    if (obs::enabled()) {
      obs::registry().counter("runtime.coalesced_events").add(triggers - 1);
    }
  }
  if (inflight_ && inflight_->pending.epoch != inner_.planner_epoch()) {
    // The batch changed the planner inputs under the running solve: its
    // answer is already unusable, so stop it between pivots instead of
    // letting it finish a plan nobody will adopt.
    inflight_->cancel.store(true, std::memory_order_relaxed);
  }
}

void ConcurrentScheduler::harvest(double now_s) {
  if (!inflight_ || inflight_->done.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
    return;
  }
  std::unique_ptr<InFlight> fin = std::move(inflight_);
  fin->done.get();  // rethrows anything the solve threw
  const bool adopted =
      inner_.finish_replan(fin->pending, std::move(fin->result), now_s);
  // Only an epoch bump fires the cancel token, and epochs never go back,
  // so every solve finish_replan declines is a stale one. (finish_replan
  // moves only the plan rows out of the result; its counters stay.)
  const bool stale = !adopted;
  if (stale) {
    ++stale_solves_;
    if (fin->result.preempted) ++preempted_solves_;
    if (obs::enabled()) {
      obs::registry().counter("runtime.stale_solves").add();
      if (fin->result.preempted) {
        obs::registry().counter("runtime.preempted_solves").add();
      }
    }
  }
  if (obs::enabled()) {
    obs::end_span(fin->span, now_s);
    emit_terminal(*fin, adopted, stale, obs::wall_now_s());
  }
}

void ConcurrentScheduler::emit_terminal(const InFlight& fin, bool adopted,
                                        bool stale, double harvest_wall_s) {
  if (fin.replan_trace == 0) return;  // obs was off when this solve started
  if (fin.done_wall_s == 0.0) return;  // obs turned off mid-flight
  // The four stages tile [first_enqueue, harvest] exactly, so the
  // decomposition always sums to the observed end-to-end latency:
  //   queue_wait : oldest trigger enqueued -> its batch drained
  //   coalesce   : batch drained -> solve submitted (includes time spent
  //                waiting behind an earlier in-flight solve)
  //   solve      : submitted -> solver thread finished
  //   adoption   : finished -> serving thread adopted/discarded
  const double queue_wait_ms =
      (fin.first_dequeue_wall_s - fin.first_enqueue_wall_s) * 1e3;
  const double coalesce_ms =
      (fin.submit_wall_s - fin.first_dequeue_wall_s) * 1e3;
  const double solve_ms = (fin.done_wall_s - fin.submit_wall_s) * 1e3;
  const double adoption_lag_ms = (harvest_wall_s - fin.done_wall_s) * 1e3;
  obs::registry().histogram("runtime.adoption_lag_ms").observe(
      adoption_lag_ms);
  obs::emit(obs::TraceEvent(adopted ? "plan_adopted" : "plan_discarded")
                .field("replan", fin.replan_trace)
                .field("slot", fin.pending.record.slot)
                .field("epoch", static_cast<std::int64_t>(fin.pending.epoch))
                .field("pivots", fin.result.pivots)
                .field("stale", stale)
                .field("preempted", fin.result.preempted)
                .field("queue_wait_ms", queue_wait_ms)
                .field("coalesce_ms", coalesce_ms)
                .field("solve_ms", solve_ms)
                .field("adoption_lag_ms", adoption_lag_ms)
                .field("total_ms",
                       (harvest_wall_s - fin.first_enqueue_wall_s) * 1e3)
                .field("lane", obs::thread_lane())
                .field("wall_s", harvest_wall_s));
}

void ConcurrentScheduler::maybe_submit(const sim::ClusterState& state) {
  if (inflight_ || !inner_.dirty()) return;
  auto fly = std::make_unique<InFlight>();
  fly->pending = inner_.begin_replan(state);
  fly->pending.cancel = &fly->cancel;
  if (obs::enabled()) {
    fly->span = obs::begin_span(
        "async_replan", "async_replan@slot" + std::to_string(state.slot),
        obs::kNoSpan, state.now_s);
    obs::registry().counter("runtime.async_solves").add();
    // Chain link: this attempt absorbs every trigger batch drained since
    // the last submission. The oldest trigger's stamps anchor the latency
    // decomposition; an internally-triggered replan (plan exhaustion, no
    // queued trigger) anchors at the submission itself.
    fly->replan_trace = obs::next_trace_id();
    const double submit_wall_s = obs::wall_now_s();
    fly->submit_wall_s = submit_wall_s;
    fly->first_enqueue_wall_s = submit_wall_s;
    fly->first_dequeue_wall_s = submit_wall_s;
    for (const PendingBatch& batch : pending_batches_) {
      obs::emit(obs::TraceEvent("batch_planned")
                    .field("batch", batch.batch_trace)
                    .field("replan", fly->replan_trace));
      if (batch.first_trigger_enqueue_wall_s < fly->first_enqueue_wall_s) {
        fly->first_enqueue_wall_s = batch.first_trigger_enqueue_wall_s;
      }
      if (batch.dequeue_wall_s < fly->first_dequeue_wall_s) {
        fly->first_dequeue_wall_s = batch.dequeue_wall_s;
      }
    }
    const double coalesce_ms =
        (submit_wall_s - fly->first_dequeue_wall_s) * 1e3;
    obs::registry().histogram("runtime.coalesce_window_ms")
        .observe(coalesce_ms);
    obs::emit(obs::TraceEvent("solve_begin")
                  .field("replan", fly->replan_trace)
                  .field("slot", state.slot)
                  .field("epoch", static_cast<std::int64_t>(fly->pending.epoch))
                  .field("batches", pending_batches_.size())
                  .field("coalesce_ms", coalesce_ms)
                  .field("lane", obs::thread_lane())
                  .field("wall_s", submit_wall_s));
  }
  pending_batches_.clear();
  InFlight* job = fly.get();
  inflight_ = std::move(fly);
  ++async_solves_;
  job->done = pool_.submit([this, job] {
    if (config_.solve_started_hook) config_.solve_started_hook(job->pending);
    job->result = inner_.solve_replan(job->pending);
    if (job->replan_trace != 0 && obs::enabled()) {
      job->done_wall_s = obs::wall_now_s();
      const double solve_ms = (job->done_wall_s - job->submit_wall_s) * 1e3;
      obs::registry().histogram("runtime.solve_ms").observe(solve_ms);
      obs::emit(obs::TraceEvent("solve_done")
                    .field("replan", job->replan_trace)
                    .field("pivots", job->result.pivots)
                    .field("preempted", job->result.preempted)
                    .field("solve_ms", solve_ms)
                    .field("lane", obs::thread_lane())
                    .field("wall_s", job->done_wall_s));
    }
  });
}

}  // namespace flowtime::runtime
