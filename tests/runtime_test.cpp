// Concurrent runtime tests (DESIGN.md §11): event-queue ordering and
// unbounded bursts, solver-pool futures, burst coalescing, stale-solve discard
// with cancel-token preemption, and chaos sabotage under the async runtime.
// The async+barrier identity against the synchronous path lives with the
// other replan-driver identities in identity_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "dag/generators.h"
#include "obs/metrics.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "runtime/concurrent_scheduler.h"
#include "runtime/event_queue.h"
#include "runtime/solver_pool.h"
#include "sched/experiment.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "workload/scenario_io.h"
#include "workload/trace_gen.h"

namespace flowtime {
namespace {

using workload::ResourceVec;

// ---------------------------------------------------------------------------
// EventQueue

sim::SchedulerEvent adhoc(sim::JobUid uid, double now_s) {
  return sim::AdhocArrivalEvent{uid, now_s, ResourceVec{1.0, 1.0}};
}

TEST(EventQueue, DrainPreservesFifoOrderAcrossKinds) {
  runtime::EventQueue queue;
  queue.push(adhoc(7, 0.0));
  queue.push(sim::JobCompleteEvent{3, 10.0});
  queue.push(sim::CapacityChangeEvent{20.0, ResourceVec{100.0, 200.0}});

  std::vector<runtime::StampedEvent> out;
  EXPECT_EQ(queue.drain(out), 3u);
  EXPECT_EQ(queue.drain(out), 0u) << "the first drain took everything";
  ASSERT_EQ(out.size(), 3u);
  EXPECT_STREQ(sim::event_name(out[0].event), "adhoc_arrival");
  EXPECT_STREQ(sim::event_name(out[1].event), "job_complete");
  EXPECT_STREQ(sim::event_name(out[2].event), "capacity_change");
  EXPECT_DOUBLE_EQ(sim::event_time(out[0].event), 0.0);
  EXPECT_DOUBLE_EQ(sim::event_time(out[2].event), 20.0);
}

TEST(SolverPool, ShutdownRunsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    runtime::SolverPool pool;
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains
  EXPECT_EQ(ran.load(), 16);
}

TEST(SolverPool, FutureHandsOverResultsAndExceptions) {
  runtime::SolverPool pool;
  int result = 0;
  pool.submit([&result] { result = 42; }).get();
  EXPECT_EQ(result, 42) << "the task's writes are visible after get()";
  std::future<void> failed =
      pool.submit([] { throw std::runtime_error("solve failed"); });
  EXPECT_THROW(failed.get(), std::runtime_error);
  pool.shutdown();
  std::future<void> dropped = pool.submit([] {});
  EXPECT_THROW(dropped.get(), std::future_error) << "dropped after shutdown";
}

// ---------------------------------------------------------------------------
// Scenario helpers

using test::chain_workflow;
using test::flowtime_config;
using test::simple_job;
using test::small_cluster;

workload::Scenario burst_scenario() {
  // Three workflows released at the same instant: their arrival events
  // land in one drained batch, so the async runtime must coalesce them
  // into a single re-plan.
  workload::Scenario scenario;
  scenario.workflows.push_back(chain_workflow(0, 0.0, 2400.0));
  scenario.workflows.push_back(chain_workflow(1, 0.0, 3000.0));
  scenario.workflows.push_back(chain_workflow(2, 0.0, 3600.0));
  workload::AdhocJob adhoc_job;
  adhoc_job.id = 0;
  adhoc_job.arrival_s = 100.0;
  adhoc_job.spec = simple_job(4, 20.0);
  adhoc_job.spec.name = "adhoc";
  scenario.adhoc_jobs.push_back(std::move(adhoc_job));
  return scenario;
}

// ---------------------------------------------------------------------------
// ConcurrentScheduler: free-running and coalescing

TEST(ConcurrentScheduler, FreeRunningAsyncHonoursTheSimulatorContract) {
  // Without the barrier the simulator fast-forwards slots in microseconds
  // while solves take milliseconds, so plans adopt late (possibly never) —
  // completion is NOT guaranteed here, unlike in barrier mode or real time.
  // What must hold regardless: the scheduler contract (capacity, width,
  // readiness) and a runtime that never deadlocks or crashes.
  const sim::SimConfig sim_config = small_cluster();
  const workload::Scenario scenario = burst_scenario();

  runtime::RuntimeConfig rt;
  rt.flowtime = flowtime_config(sim_config);
  runtime::ConcurrentScheduler wrapped(rt);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(scenario, wrapped);
  EXPECT_EQ(result.capacity_violations, 0);
  EXPECT_EQ(result.width_violations, 0);
  EXPECT_EQ(result.not_ready_allocations, 0);
  EXPECT_GE(wrapped.async_solves(), 1);
}

TEST(ConcurrentScheduler, CoalescesArrivalBursts) {
  obs::testing::ScopedRegistryReset reset;
  obs::set_enabled(true);
  const sim::SimConfig sim_config = small_cluster();
  const workload::Scenario scenario = burst_scenario();

  runtime::RuntimeConfig rt;
  rt.flowtime = flowtime_config(sim_config);
  rt.barrier_mode = true;
  runtime::ConcurrentScheduler wrapped(rt);
  sim::Simulator(sim_config).run(scenario, wrapped);
  wrapped.drain_events();

  // The three simultaneous arrivals drain as one batch: two of the three
  // triggers ride along with the first one's re-plan.
  EXPECT_GE(wrapped.coalesced_events(), 2);
  EXPECT_EQ(
      obs::registry().counter("runtime.coalesced_events").value(),
      wrapped.coalesced_events());
  EXPECT_GT(obs::registry().counter("runtime.events_enqueued").value(), 0);
  EXPECT_EQ(obs::registry().counter("runtime.async_solves").value(),
            wrapped.async_solves());
}

TEST(ConcurrentScheduler, BurstFromTheServingThreadDrainsAsOneBatch) {
  // The queue has no bound: 5,000 events pushed by the serving thread
  // between two slots drain into the next slot's single batch, in push
  // order, with nothing logged.
  obs::testing::ScopedRegistryReset reset;
  auto owned = std::make_unique<obs::MemorySink>();
  obs::MemorySink* sink = owned.get();
  obs::set_trace_sink(std::move(owned));

  const double slot_s = 10.0;
  runtime::RuntimeConfig rt;
  rt.flowtime.cluster.capacity = ResourceVec{100.0, 200.0};
  rt.flowtime.cluster.slot_seconds = slot_s;
  rt.barrier_mode = true;
  sim::ClusterState state;
  state.slot_seconds = slot_s;
  state.capacity = workload::scale(rt.flowtime.cluster.capacity, slot_s);

  constexpr int kEvents = 5000;
  ::testing::internal::CaptureStderr();
  {
    runtime::ConcurrentScheduler sched(rt);
    sched.allocate(state);
    for (int i = 0; i < kEvents; ++i) sched.on_event(adhoc(i, 0.0));
    state.slot = 1;
    state.now_s = slot_s;
    sched.allocate(state);
  }
  const std::string logged = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(logged.find("WARN"), std::string::npos) << logged;

  std::vector<std::int64_t> enqueued;
  std::vector<std::int64_t> dequeued;
  std::vector<std::string> batch_sizes;
  for (const std::string& line : sink->lines()) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(obs::parse_flat_json(line, &fields)) << line;
    const std::string& type = fields["type"];
    if (type == "event_enqueued") {
      enqueued.push_back(std::strtoll(fields["trace"].c_str(), nullptr, 10));
    } else if (type == "event_dequeued") {
      dequeued.push_back(std::strtoll(fields["trace"].c_str(), nullptr, 10));
    } else if (type == "batch_formed") {
      batch_sizes.push_back(fields["events"]);
    }
  }
  obs::clear_trace_sink();
  EXPECT_EQ(batch_sizes, std::vector<std::string>{"5000"});
  ASSERT_EQ(enqueued.size(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(dequeued, enqueued) << "drained in push order";
}

TEST(ExperimentHarness, AsyncBarrierComparisonMatchesSync) {
  // The same wiring end users hit via flowtime_sim --async-replan
  // --async-barrier: run_comparison must produce the sync results.
  sched::ExperimentConfig config;
  config.sim.cluster.capacity = ResourceVec{100.0, 200.0};
  config.sim.max_horizon_s = 6000.0;
  config.flowtime.cluster = config.sim.cluster;
  config.schedulers = {"FlowTime"};
  const workload::Scenario scenario = burst_scenario();

  const auto sync_outcomes = sched::run_comparison(scenario, config);
  config.async_replan = true;
  config.async_barrier = true;
  const auto async_outcomes = sched::run_comparison(scenario, config);

  ASSERT_EQ(sync_outcomes.size(), 1u);
  ASSERT_EQ(async_outcomes.size(), 1u);
  EXPECT_EQ(async_outcomes[0].replans, sync_outcomes[0].replans);
  EXPECT_EQ(async_outcomes[0].pivots, sync_outcomes[0].pivots);
  EXPECT_EQ(async_outcomes[0].deadlines.jobs_missed,
            sync_outcomes[0].deadlines.jobs_missed);
  EXPECT_GE(async_outcomes[0].coalesced_events, 2);
  EXPECT_EQ(sync_outcomes[0].coalesced_events, 0);
}

// ---------------------------------------------------------------------------
// Stale-solve discard and preemption (deterministically gated solver)

/// Counting gate: the solver thread takes one permit per solve, so a test
/// decides exactly when each solve may run.
class SolveGate {
 public:
  void release(int permits) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      permits_ += permits;
    }
    cv_.notify_all();
  }
  void acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return permits_ > 0; });
    --permits_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int permits_ = 0;
};

sim::JobView view_for(const workload::Workflow& w, sim::JobUid uid,
                      double slot_seconds) {
  const workload::JobSpec& spec = w.jobs[0];
  sim::JobView view;
  view.uid = uid;
  view.kind = sim::JobKind::kDeadline;
  view.workflow_id = w.id;
  view.node = 0;
  view.arrival_s = w.start_s;
  view.remaining_estimate = spec.total_demand();
  view.width = workload::scale(spec.max_parallel_demand(), slot_seconds);
  view.container = workload::scale(spec.task.demand, slot_seconds);
  view.ready = true;
  return view;
}

workload::Workflow single_job_workflow(int id, double deadline_s) {
  workload::Workflow w;
  w.id = id;
  w.name = "w" + std::to_string(id);
  w.start_s = 0.0;
  w.deadline_s = deadline_s;
  w.dag = dag::make_chain(1);
  w.jobs = {simple_job(10, 40.0)};
  return w;
}

TEST(ConcurrentScheduler, StaleSolveIsPreemptedDiscardedAndRebased) {
  const double slot_s = 10.0;
  SolveGate gate;

  runtime::RuntimeConfig rt;
  rt.flowtime.cluster.capacity = ResourceVec{100.0, 200.0};
  rt.flowtime.cluster.slot_seconds = slot_s;
  rt.solve_started_hook = [&gate](const core::PendingReplan&) {
    gate.acquire();
  };
  runtime::ConcurrentScheduler sched(rt);

  const workload::Workflow wf_a = single_job_workflow(0, 600.0);
  const workload::Workflow wf_b = single_job_workflow(1, 900.0);
  const auto alias = [](const workload::Workflow& w) {
    return std::shared_ptr<const workload::Workflow>(
        std::shared_ptr<const workload::Workflow>(), &w);
  };

  sim::ClusterState state;
  state.slot = 0;
  state.now_s = 0.0;
  state.slot_seconds = slot_s;
  state.capacity = workload::scale(ResourceVec{100.0, 200.0}, slot_s);

  // Slot 0: workflow A arrives; the solve for it starts and blocks at the
  // gate. No plan exists yet, so nothing is allocated.
  sched.on_event(sim::WorkflowArrivalEvent{alias(wf_a), {0}, 0.0});
  state.active = {view_for(wf_a, 0, slot_s)};
  EXPECT_TRUE(sched.allocate(state).empty());
  ASSERT_EQ(sched.async_solves(), 1);

  // Slot 1: workflow B arrives while the solve is still held — the drain
  // bumps the epoch and fires the cancel token.
  sched.on_event(sim::WorkflowArrivalEvent{alias(wf_b), {1}, slot_s});
  state.slot = 1;
  state.now_s = slot_s;
  state.active = {view_for(wf_a, 0, slot_s), view_for(wf_b, 1, slot_s)};
  sched.allocate(state);

  // Release both the doomed solve and its re-based successor, then wait
  // for the runtime to settle.
  gate.release(2);
  sched.quiesce(state);

  EXPECT_EQ(sched.stale_solves(), 1);
  EXPECT_EQ(sched.preempted_solves(), 1)
      << "the cancel token must stop the stale solve before it solves";
  EXPECT_EQ(sched.async_solves(), 2);
  const auto& log = sched.inner().replan_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].discarded);
  EXPECT_FALSE(log[1].discarded);
  EXPECT_EQ(log[1].planned_jobs, 2) << "the re-based solve sees both jobs";
  EXPECT_FALSE(sched.inner().dirty());

  // With the plan adopted, slot 2 serves actual allocations.
  state.slot = 2;
  state.now_s = 2 * slot_s;
  EXPECT_FALSE(sched.allocate(state).empty());
}

TEST(ConcurrentScheduler, DiscardedSolveReassertsItsTrigger) {
  // The staleness-inducing event here is an ON-TIME completion: it bumps
  // the planner epoch (the planning set shrank) but marks nothing dirty.
  // When the solve for workflow B's arrival is discarded as stale, the
  // discard must put the arrival cause back and re-base a fresh solve —
  // otherwise B has no plan rows, planned_last_slot stays -1, and neither
  // kPlanExhausted nor kStalePlan can ever re-trigger: B starves.
  const double slot_s = 10.0;
  SolveGate gate;

  runtime::RuntimeConfig rt;
  rt.flowtime.cluster.capacity = ResourceVec{100.0, 200.0};
  rt.flowtime.cluster.slot_seconds = slot_s;
  rt.solve_started_hook = [&gate](const core::PendingReplan&) {
    gate.acquire();
  };
  runtime::ConcurrentScheduler sched(rt);

  // A's completion at the end of slot 1 must count as on-time, so it marks
  // no kDeviation: that needs a plan ending within two slots of slot 1. A
  // 90 s deadline less the 60 s slack gives A an LP window of slots 0-2,
  // and 10 tasks of 20 s fit it, so A's plan ends at slot 2.
  workload::Workflow wf_a = single_job_workflow(0, 90.0);
  wf_a.jobs = {simple_job(10, 20.0)};
  const workload::Workflow wf_b = single_job_workflow(1, 900.0);
  const auto alias = [](const workload::Workflow& w) {
    return std::shared_ptr<const workload::Workflow>(
        std::shared_ptr<const workload::Workflow>(), &w);
  };

  sim::ClusterState state;
  state.slot = 0;
  state.now_s = 0.0;
  state.slot_seconds = slot_s;
  state.capacity = workload::scale(ResourceVec{100.0, 200.0}, slot_s);

  // Slot 0: workflow A arrives; its solve runs and is adopted.
  sched.on_event(sim::WorkflowArrivalEvent{alias(wf_a), {0}, 0.0});
  state.active = {view_for(wf_a, 0, slot_s)};
  sched.allocate(state);
  gate.release(1);
  sched.quiesce(state);
  ASSERT_EQ(sched.async_solves(), 1);
  ASSERT_EQ(sched.stale_solves(), 0);

  // Slot 1: workflow B arrives; its solve starts and is held at the gate.
  sched.on_event(sim::WorkflowArrivalEvent{alias(wf_b), {1}, slot_s});
  state.slot = 1;
  state.now_s = slot_s;
  state.active = {view_for(wf_a, 0, slot_s), view_for(wf_b, 1, slot_s)};
  sched.allocate(state);
  ASSERT_EQ(sched.async_solves(), 2);

  // Slot 2: A completes on time while B's solve is in flight. The drain
  // bumps the epoch without marking dirty, staling (and preempting) the
  // held solve.
  sched.on_event(sim::JobCompleteEvent{0, 2 * slot_s});
  state.slot = 2;
  state.now_s = 2 * slot_s;
  state.active = {view_for(wf_b, 1, slot_s)};
  sched.allocate(state);

  // Release the doomed solve and the re-based one the discard must cause.
  gate.release(2);
  sched.quiesce(state);

  EXPECT_EQ(sched.stale_solves(), 1);
  EXPECT_EQ(sched.preempted_solves(), 1);
  EXPECT_EQ(sched.async_solves(), 3)
      << "discarding the stale solve must re-assert the arrival trigger";
  EXPECT_FALSE(sched.inner().dirty());
  EXPECT_EQ(sched.inner().replans(), 2) << "two adopted plans";
  EXPECT_EQ(sched.inner().replans_discarded(), 1);
  const auto& log = sched.inner().replan_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_FALSE(log[0].discarded);
  EXPECT_TRUE(log[1].discarded);
  EXPECT_FALSE(log[2].discarded);
  EXPECT_TRUE(core::has_cause(log[2].causes,
                              core::ReplanCause::kWorkflowArrival))
      << "the re-based solve carries the discarded solve's causes";
  EXPECT_FALSE(core::has_cause(log[2].causes, core::ReplanCause::kDeviation))
      << "A completed on time: only the discard can re-assert the trigger";
  EXPECT_EQ(log[2].planned_jobs, 1) << "only B is left to plan";

  // With the re-based plan adopted, B is actually served.
  state.slot = 3;
  state.now_s = 3 * slot_s;
  EXPECT_FALSE(sched.allocate(state).empty());
}

// ---------------------------------------------------------------------------
// Chaos: solver sabotage through the async runtime

TEST(ConcurrentRuntimeChaos, SabotageCancellationAndLadderUnderAsync) {
  // fault_solver forces the rung-0 solve into a numerical failure while the
  // async runtime drives the ladder from a background thread; the run must
  // complete, degrade exactly as the sync path would, and recover. The
  // late arrivals give the hysteresis its three clean re-plans.
  workload::ParseError error;
  auto parsed = workload::parse_scenario(
      "cluster cores=100 mem_gb=256 slot_seconds=10\n"
      "workflow id=0 name=wf start=0 deadline=600\n"
      "job node=0 name=crunch tasks=40 runtime=100 cores=1 mem=2\n"
      "end\n"
      "workflow id=1 name=late start=200 deadline=900\n"
      "job node=0 name=tail tasks=10 runtime=60 cores=1 mem=2\n"
      "end\n"
      "workflow id=2 name=later start=300 deadline=1000\n"
      "job node=0 name=tail tasks=10 runtime=60 cores=1 mem=2\n"
      "end\n"
      "workflow id=3 name=last start=400 deadline=1100\n"
      "job node=0 name=tail tasks=10 runtime=60 cores=1 mem=2\n"
      "end\n"
      "fault seed=1\n"
      "fault_solver slot=0 until=1 fail=1\n",
      &error);
  ASSERT_TRUE(parsed) << error.message;

  sim::SimConfig sim_config;
  sim_config.cluster.capacity = parsed->cluster->capacity;
  sim_config.cluster.slot_seconds = parsed->cluster->slot_seconds;
  sim_config.fault_plan = parsed->fault_plan;

  runtime::RuntimeConfig rt;
  rt.flowtime = flowtime_config(sim_config);
  rt.barrier_mode = true;
  runtime::ConcurrentScheduler sched(rt);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(parsed->scenario, sched);
  sched.drain_events();

  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.faults.solver_sabotages, 1);
  EXPECT_GE(sched.inner().degraded_replans(), 1);
  EXPECT_FALSE(sched.inner().degraded_mode());
  ASSERT_FALSE(sched.inner().replan_log().empty());
  // Rung 1 is the greedy fallback: the sabotaged flow solve is not retried.
  EXPECT_EQ(sched.inner().replan_log().front().degrade_rung, 1);
}

}  // namespace
}  // namespace flowtime
