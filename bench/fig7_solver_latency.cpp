// Fig. 7 — latency of the LP-based scheduler.
//
// The paper measures the LP solve time as the number of deadline-aware jobs
// grows, on a 500-core / 1 TB cluster with 100 time slots (10 s each,
// i.e. a 1000 s planning horizon), solved with CPLEX on a MacBook. This
// harness sweeps the job count over the same horizon with the scheduler's
// own solver: the exact flow lexmin (core/flow_placement.h). Absolute
// times differ from CPLEX; the reproduction target is latency growing
// polynomially with the job count — fast enough to re-plan on job
// completion events.
#include <benchmark/benchmark.h>

#include "bench_trace.h"
#include "core/flow_placement.h"
#include "core/lp_formulation.h"
#include "util/rng.h"

namespace {

using namespace flowtime;
using workload::ResourceVec;

constexpr int kSlots = 100;           // paper: 100 slots of 10 s
constexpr double kCpuCap = 5000.0;    // 500 cores x 10 s per slot
constexpr double kMemCap = 10240.0;   // 1 TB x 10 s per slot

std::vector<core::LpJob> make_jobs(int n) {
  util::Rng rng(static_cast<std::uint64_t>(n));
  std::vector<core::LpJob> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::LpJob job;
    job.uid = i;
    job.release_slot = static_cast<int>(rng.uniform_int(0, kSlots / 2));
    job.deadline_slot = job.release_slot +
                        static_cast<int>(rng.uniform_int(10, kSlots / 2));
    job.deadline_slot = std::min(job.deadline_slot, kSlots - 1);
    const int tasks = static_cast<int>(rng.uniform_int(20, 120));
    const double runtime = rng.uniform_real(30.0, 90.0);
    job.demand = ResourceVec{tasks * runtime, tasks * runtime * 2.5};
    job.width = ResourceVec{tasks * 10.0, tasks * 25.0};
    jobs.push_back(job);
  }
  return jobs;
}

void BM_LpSchedulerLatency(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<core::LpJob> jobs = make_jobs(n);
  const std::vector<ResourceVec> caps(kSlots, ResourceVec{kCpuCap, kMemCap});
  std::int64_t pivots = 0;
  for (auto _ : state) {
    const core::LpSchedule schedule = core::solve_placement(jobs, caps, 0);
    benchmark::DoNotOptimize(schedule);
    pivots = schedule.pivots;
  }
  state.counters["jobs"] = n;
  state.counters["pivots"] = static_cast<double>(pivots);
}

BENCHMARK(BM_LpSchedulerLatency)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Arg(60)
    ->Arg(80)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Companion series: the flow lexmin's FIRST level only (feasibility + peak
// load), the admission-control primitive: one Newton search per resource,
// no refinement of the rest of the profile.
void BM_FlowPlacementLatency(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<core::LpJob> jobs = make_jobs(n);
  const std::vector<ResourceVec> caps(kSlots, ResourceVec{kCpuCap, kMemCap});
  for (auto _ : state) {
    const core::FlowPlacementResult result =
        core::solve_flow_placement(jobs, caps, 0);
    benchmark::DoNotOptimize(result);
  }
  state.counters["jobs"] = n;
}

BENCHMARK(BM_FlowPlacementLatency)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Arg(60)
    ->Arg(80)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Companion series: scaling with the horizon length T at a fixed job
// count (the paper fixes T=100; re-planning horizons vary in practice and
// the slot count sizes the flow network).
void BM_LpSchedulerLatencyBySlots(benchmark::State& state) {
  const int slots = static_cast<int>(state.range(0));
  std::vector<core::LpJob> jobs = make_jobs(40);
  for (core::LpJob& job : jobs) {
    // Stretch windows proportionally so the instances stay comparable.
    job.release_slot = job.release_slot * slots / kSlots;
    job.deadline_slot =
        std::min(slots - 1, std::max(job.release_slot + 5,
                                     job.deadline_slot * slots / kSlots));
  }
  const std::vector<ResourceVec> caps(static_cast<std::size_t>(slots),
                                      ResourceVec{kCpuCap, kMemCap});
  for (auto _ : state) {
    const core::LpSchedule schedule = core::solve_placement(jobs, caps, 0);
    benchmark::DoNotOptimize(schedule);
  }
  state.counters["slots"] = slots;
}

BENCHMARK(BM_LpSchedulerLatencyBySlots)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN() equivalent that also accepts --trace-out: the flag is
// extracted before benchmark::Initialize, which rejects unknown arguments.
int main(int argc, char** argv) {
  if (!flowtime::bench::init_trace_out(&argc, argv)) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  flowtime::bench::finish_trace_out();
  return 0;
}
