// Fig. 7 — latency of the LP-based scheduler.
//
// The paper measures the LP solve time as the number of deadline-aware jobs
// grows, on a 500-core / 1 TB cluster with 100 time slots (10 s each,
// i.e. a 1000 s planning horizon), solved with CPLEX on a MacBook. This
// harness sweeps the job count over the same horizon with the scheduler's
// own solver: the exact flow lexmin (core/flow_placement.h); the
// BM_LpReplanSequence* series run the coupled formulation, the one
// placement the simplex lexmin solves, to measure its warm starts.
// Absolute times differ from CPLEX; the
// reproduction target is latency growing polynomially with the job count —
// fast enough to re-plan on job completion events.
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
  core::LpScheduleOptions options;
  options.lexmin.max_rounds = 6;  // the scheduler's runtime configuration
                                  // (the flow lexmin ignores the cap)
  std::int64_t pivots = 0;
  for (auto _ : state) {
    const core::LpSchedule schedule =
        core::solve_placement(jobs, caps, 0, options);
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

// Warm-vs-cold re-plan sequence under the coupled formulation (the
// scheduler path that warm-starts simplex): the scheduler's steady state
// is a run of re-plans over the same job set whose remaining demands
// shrink as work completes — identical LP shape, different data. The warm
// series threads the previous solve's basis through a PlacementWarmCache
// (and bases round-to-round inside each lexmin); the cold series disables
// warm starting entirely, paying a full two-phase solve per round. Each
// iteration runs the whole kReplanSteps-step sequence; the pivot counters
// expose the warm/cold ratio directly.
constexpr int kReplanSteps = 6;

std::vector<core::LpJob> jobs_at_step(const std::vector<core::LpJob>& jobs,
                                      int step) {
  std::vector<core::LpJob> out = jobs;
  const double scale = 1.0 - 0.07 * step;
  for (core::LpJob& job : out) job.demand = workload::scale(job.demand, scale);
  return out;
}

void run_replan_sequence(benchmark::State& state, bool warm) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<core::LpJob> jobs = make_jobs(n);
  const std::vector<ResourceVec> caps(kSlots, ResourceVec{kCpuCap, kMemCap});
  core::LpScheduleOptions options;
  options.coupled_resources = true;  // the simplex lexmin's formulation
  options.lexmin.max_rounds = 6;
  options.lexmin.warm_start = warm;
  std::int64_t pivots = 0;
  for (auto _ : state) {
    core::PlacementWarmCache cache;
    options.warm_cache = warm ? &cache : nullptr;
    pivots = 0;
    for (int step = 0; step < kReplanSteps; ++step) {
      const core::LpSchedule schedule =
          core::solve_placement(jobs_at_step(jobs, step), caps, 0, options);
      benchmark::DoNotOptimize(schedule);
      pivots += schedule.pivots;
    }
  }
  state.counters["jobs"] = n;
  state.counters["pivots"] = static_cast<double>(pivots);
}

void BM_LpReplanSequenceWarm(benchmark::State& state) {
  run_replan_sequence(state, /*warm=*/true);
}

void BM_LpReplanSequenceCold(benchmark::State& state) {
  run_replan_sequence(state, /*warm=*/false);
}

BENCHMARK(BM_LpReplanSequenceWarm)
    ->Arg(10)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_LpReplanSequenceCold)
    ->Arg(10)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond);

// Companion series: max_rounds = 1024. The flow lexmin refines every level
// regardless, so this now matches BM_LpSchedulerLatency; it stays as the
// anchor for the simplex full-refinement numbers in EXPERIMENTS.md.
void BM_LpSchedulerLatencyFullLex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<core::LpJob> jobs = make_jobs(n);
  const std::vector<ResourceVec> caps(kSlots, ResourceVec{kCpuCap, kMemCap});
  core::LpScheduleOptions options;
  options.lexmin.max_rounds = 1024;
  for (auto _ : state) {
    const core::LpSchedule schedule =
        core::solve_placement(jobs, caps, 0, options);
    benchmark::DoNotOptimize(schedule);
  }
  state.counters["jobs"] = n;
}

BENCHMARK(BM_LpSchedulerLatencyFullLex)
    ->Arg(10)
    ->Arg(40)
    ->Arg(80)
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
// load-row count drives the basis size).
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
  core::LpScheduleOptions options;
  options.lexmin.max_rounds = 6;
  for (auto _ : state) {
    const core::LpSchedule schedule =
        core::solve_placement(jobs, caps, 0, options);
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
