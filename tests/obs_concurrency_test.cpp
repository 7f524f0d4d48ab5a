// Concurrency smoke test for the observability layer (DESIGN.md §11): the
// concurrent runtime records metrics and spans from both the serving thread
// and solver threads, so Registry, Counter/Gauge/Histogram, the JSONL trace
// sink and the span table must tolerate concurrent use. Four threads hammer
// every surface; the final counts must be exact (atomics and locks, not
// best-effort). Run under TSan via the sanitize-tsan preset to catch races
// the counting cannot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dag/generators.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "runtime/concurrent_scheduler.h"
#include "sim/events.h"
#include "workload/trace_gen.h"

namespace flowtime {
namespace {

using workload::ResourceVec;

constexpr int kThreads = 4;
constexpr int kIterations = 2000;

TEST(ObsConcurrency, CountersGaugesHistogramsStayExact) {
  obs::testing::ScopedRegistryReset reset;
  obs::set_enabled(true);

  // Shared instruments resolved once plus per-thread instruments resolved
  // inside the loop, so both the hot path (cached reference) and the
  // registry lookup path run concurrently.
  obs::Counter& shared_counter = obs::registry().counter("test.shared");
  obs::Histogram& shared_histogram = obs::registry().histogram("test.hist");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared_counter, &shared_histogram] {
      const std::string own = "test.thread_" + std::to_string(t);
      for (int i = 0; i < kIterations; ++i) {
        shared_counter.add();
        obs::registry().counter(own).add(2);
        obs::registry().gauge("test.gauge").set(static_cast<double>(i));
        shared_histogram.observe(static_cast<double>(i % 100));
        obs::registry().histogram(own + ".hist").observe(1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(shared_counter.value(), kThreads * kIterations);
  EXPECT_EQ(shared_histogram.count(), kThreads * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    const std::string own = "test.thread_" + std::to_string(t);
    EXPECT_EQ(obs::registry().counter(own).value(), 2 * kIterations);
    EXPECT_EQ(obs::registry().histogram(own + ".hist").count(), kIterations);
  }
  const double gauge = obs::registry().gauge("test.gauge").value();
  EXPECT_GE(gauge, 0.0);
  EXPECT_LT(gauge, static_cast<double>(kIterations));
}

TEST(ObsConcurrency, TraceSinkAndSpansFromManyThreads) {
  obs::testing::ScopedRegistryReset reset;
  obs::set_enabled(true);
  auto sink = std::make_unique<obs::MemorySink>();
  obs::MemorySink* memory = sink.get();
  obs::set_trace_sink(std::move(sink));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIterations; ++i) {
        const double now = static_cast<double>(i);
        const obs::SpanId span = obs::begin_span(
            "async_replan", "thread_" + std::to_string(t), obs::kNoSpan, now);
        obs::emit(obs::TraceEvent("test_event")
                      .field("sim_s", now)
                      .field("thread", t)
                      .field("i", i));
        obs::end_span(span, now + 1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Each iteration emits span_begin, the explicit event, and span_end.
  const std::size_t expected =
      static_cast<std::size_t>(3 * kThreads * kIterations);
  EXPECT_EQ(memory->lines().size(), expected);
  for (const std::string& line : memory->lines()) {
    // Every line is a complete JSON object — no interleaved writes.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  obs::clear_trace_sink();
}

TEST(ObsConcurrency, SnapshotWhileWriting) {
  obs::testing::ScopedRegistryReset reset;
  obs::set_enabled(true);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads - 1; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kIterations; ++i) {
        obs::registry().counter("snap.counter").add();
      }
    });
  }
  // Concurrent reader: snapshots must be internally consistent (no torn
  // reads, never over the final total).
  const std::int64_t total =
      static_cast<std::int64_t>(kThreads - 1) * kIterations;
  std::thread reader([total] {
    for (int i = 0; i < 50; ++i) {
      const auto snapshot = obs::registry().snapshot();
      for (const auto& [name, value] : snapshot.counters) {
        if (name == "snap.counter") {
          EXPECT_GE(value, 0);
          EXPECT_LE(value, total);
        }
      }
    }
  });
  for (std::thread& writer : writers) writer.join();
  reader.join();
  EXPECT_EQ(obs::registry().counter("snap.counter").value(), total);
}

// Causal-chain pairing across real threads: N producer threads enqueue
// replan-trigger events (workflow arrivals) and non-trigger events (ad-hoc
// arrivals) into a ConcurrentScheduler whose solves run on its solver
// thread, while the serving thread drains and plans concurrently.
// After quiesce, the JSONL stream — parsed BY ID, since line order races
// between threads by design — must balance: every trigger event_enqueued
// resolves through its batch to exactly one plan_adopted/plan_discarded
// terminal, and every solve_begin reaches exactly one terminal.
TEST(ObsConcurrency, CausalChainsPairAcrossThreads) {
  obs::testing::ScopedRegistryReset reset;
  auto sink = std::make_unique<obs::MemorySink>();
  obs::MemorySink* memory = sink.get();
  obs::set_trace_sink(std::move(sink));

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 6;
  const double slot_s = 10.0;

  // Pre-built single-job workflows (one per trigger event), kept alive for
  // the whole run — the queue carries non-owning references.
  std::vector<std::shared_ptr<workload::Workflow>> workflows;
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    auto w = std::make_shared<workload::Workflow>();
    w->id = i;
    w->name = "chain_w" + std::to_string(i);
    w->start_s = 0.0;
    w->deadline_s = 3000.0;
    w->dag = dag::make_chain(1);
    workload::JobSpec spec;
    spec.name = "j";
    spec.num_tasks = 4;
    spec.task.runtime_s = 30.0;
    spec.task.demand = ResourceVec{1.0, 2.0};
    w->jobs = {spec};
    workflows.push_back(std::move(w));
  }

  runtime::RuntimeConfig rt;
  rt.flowtime.cluster.capacity = ResourceVec{100.0, 200.0};
  rt.flowtime.cluster.slot_seconds = slot_s;
  {
    runtime::ConcurrentScheduler sched(rt);
    std::atomic<int> live_producers{kProducers};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int t = 0; t < kProducers; ++t) {
      producers.emplace_back([&sched, &workflows, &live_producers, t] {
        for (int i = 0; i < kPerProducer; ++i) {
          const sim::JobUid uid = t * kPerProducer + i;
          sched.on_event(sim::WorkflowArrivalEvent{
              workflows[static_cast<std::size_t>(uid)], {uid}, 0.0});
          // Non-trigger event: its chain legitimately ends at batch_formed.
          sched.on_event(sim::AdhocArrivalEvent{1000 + uid, 0.0,
                                                ResourceVec{1.0, 1.0}});
        }
        live_producers.fetch_sub(1, std::memory_order_release);
      });
    }
    // Serve continuously while producers run so drains interleave with
    // enqueues and with in-flight solves.
    sim::ClusterState state;
    state.slot_seconds = slot_s;
    state.capacity = workload::scale(ResourceVec{100.0, 200.0}, slot_s);
    int slot = 0;
    while (live_producers.load(std::memory_order_acquire) > 0) {
      state.slot = slot;
      state.now_s = slot * slot_s;
      sched.allocate(state);
      ++slot;
    }
    for (std::thread& producer : producers) producer.join();
    state.slot = slot;
    state.now_s = slot * slot_s;
    sched.allocate(state);
    sched.quiesce(state);
  }
  // Copy the stream out BEFORE clearing the sink — clear_trace_sink()
  // destroys the registered MemorySink, invalidating `memory`.
  const std::vector<std::string> lines = memory->lines();
  obs::clear_trace_sink();

  // Re-join the chain from the flat stream.
  std::set<std::int64_t> trigger_enqueues;
  std::map<std::int64_t, std::int64_t> event_batch;   // trace -> batch
  std::map<std::int64_t, std::int64_t> batch_replan;  // batch -> replan
  std::set<std::int64_t> begun;
  std::map<std::int64_t, int> terminals;              // replan -> count
  for (const std::string& line : lines) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(obs::parse_flat_json(line, &fields)) << line;
    const auto id = [&fields](const char* key) {
      return static_cast<std::int64_t>(
          std::strtod(fields.at(key).c_str(), nullptr));
    };
    const std::string& type = fields["type"];
    if (type == "event_enqueued") {
      if (fields["trigger"] == "true") trigger_enqueues.insert(id("trace"));
    } else if (type == "event_dequeued") {
      event_batch[id("trace")] = id("batch");
    } else if (type == "batch_planned") {
      batch_replan[id("batch")] = id("replan");
    } else if (type == "solve_begin") {
      EXPECT_TRUE(begun.insert(id("replan")).second)
          << "replan id reused by a second solve_begin";
    } else if (type == "plan_adopted" || type == "plan_discarded") {
      ++terminals[id("replan")];
    }
  }

  EXPECT_EQ(trigger_enqueues.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  for (const std::int64_t trace : trigger_enqueues) {
    const auto batch_it = event_batch.find(trace);
    ASSERT_NE(batch_it, event_batch.end())
        << "trigger event " << trace << " never drained";
    const auto replan_it = batch_replan.find(batch_it->second);
    ASSERT_NE(replan_it, batch_replan.end())
        << "trigger event " << trace << "'s batch never planned";
    EXPECT_EQ(terminals[replan_it->second], 1)
        << "trigger event " << trace
        << " did not resolve to exactly one terminal";
  }
  // Every replan attempt — including internally-triggered ones — reaches
  // exactly one terminal, and no terminal appears without a begin.
  EXPECT_FALSE(begun.empty());
  for (const std::int64_t replan : begun) {
    EXPECT_EQ(terminals[replan], 1) << "replan " << replan;
  }
  for (const auto& [replan, count] : terminals) {
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(begun.count(replan))
        << "terminal without solve_begin for replan " << replan;
  }
}

}  // namespace
}  // namespace flowtime
