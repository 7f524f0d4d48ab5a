// Observability overhead benchmark (DESIGN.md §8).
//
// Runs the same replan-heavy Fig.4-style workload behind the concurrent
// runtime (barrier mode, so every mode executes the identical plan
// sequence) in three observability modes:
//   * "obs_off"    — obs disabled: the instrumentation guards (one relaxed
//                    atomic load per site) are the only residue,
//   * "obs_on"     — obs enabled, no sink: timers, counters and
//                    histograms run; rendered events are dropped,
//   * "obs_jsonl"  — obs enabled with a JSONL file sink: full causal
//                    tracing written to disk.
// The off mode runs twice ("obs_off" + "obs_off_repeat"): the spread
// between the two is the measurement noise floor that overhead numbers
// must be read against.
//
// Per mode: `repetitions` full simulations, median end-to-end wall clock,
// and overhead relative to the first off run. Output is one JSON document
// (default BENCH_obs_overhead.json, committed to the repo so the numbers
// travel with the code). Regenerate with:
//   ./build/bench/bench_obs_overhead --out BENCH_obs_overhead.json
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "runtime/concurrent_scheduler.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/stats.h"
#include "workload/trace_gen.h"

namespace {

using namespace flowtime;
using workload::ResourceVec;

struct ModeRow {
  std::string mode;
  double median_wall_ms = 0.0;
  double overhead_pct = 0.0;  // vs the first obs_off run
  int replans = 0;
  std::int64_t pivots = 0;
  bool all_completed = false;
};

struct RunOutcome {
  double wall_ms = 0.0;
  int replans = 0;
  std::int64_t pivots = 0;
  bool all_completed = false;
};

enum class ObsMode { kOff, kOn, kJsonl };

RunOutcome run_once(const workload::Scenario& scenario,
                    const sim::SimConfig& sim_config,
                    const core::FlowTimeConfig& flowtime, ObsMode mode,
                    const std::string& trace_path) {
  obs::testing::ScopedRegistryReset::reset();  // leaves obs disabled
  if (mode == ObsMode::kOn) {
    obs::set_enabled(true);
  } else if (mode == ObsMode::kJsonl) {
    obs::open_trace_file(trace_path);
  }

  runtime::RuntimeConfig rt;
  rt.flowtime = flowtime;
  rt.barrier_mode = true;  // identical plan sequence in every mode

  const auto start = std::chrono::steady_clock::now();
  runtime::ConcurrentScheduler scheduler(rt);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(scenario, scheduler);
  scheduler.drain_events();
  const auto stop = std::chrono::steady_clock::now();

  RunOutcome outcome;
  outcome.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  outcome.pivots = scheduler.inner().total_pivots();
  outcome.all_completed = result.all_completed;
  for (const core::ReplanRecord& record : scheduler.inner().replan_log()) {
    if (!record.discarded) ++outcome.replans;
  }
  obs::testing::ScopedRegistryReset::reset();  // flush + disable
  return outcome;
}

std::string render_json(const std::vector<ModeRow>& rows, int repetitions,
                        double noise_floor_pct) {
  std::string out = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"benchmark\": \"obs_overhead\",\n"
                "  \"repetitions\": %d,\n"
                "  \"baseline\": \"obs_off\",\n"
                "  \"noise_floor_pct\": %.2f,\n"
                "  \"modes\": [\n",
                repetitions, noise_floor_pct);
  out += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ModeRow& r = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\n"
                  "      \"mode\": \"%s\",\n"
                  "      \"median_wall_ms\": %.3f,\n"
                  "      \"overhead_pct\": %.2f,\n"
                  "      \"replans\": %d,\n"
                  "      \"pivots\": %lld,\n"
                  "      \"all_completed\": %s\n"
                  "    }%s\n",
                  r.mode.c_str(), r.median_wall_ms, r.overhead_pct,
                  r.replans, static_cast<long long>(r.pivots),
                  r.all_completed ? "true" : "false",
                  i + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string out_path =
      flags.get_string("out", "BENCH_obs_overhead.json");
  const std::string trace_path =
      flags.get_string("trace-out", "bench_obs_overhead.jsonl");
  const int repetitions =
      static_cast<int>(flags.get_double("repetitions", 5.0));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_double("seed", 7.0));

  sim::SimConfig sim_config;
  sim_config.cluster.capacity = ResourceVec{400.0, 1024.0};
  sim_config.max_horizon_s = 6.0 * 3600.0;

  workload::Fig4Config fig4;
  fig4.num_workflows = 4;
  fig4.jobs_per_workflow = 14;
  fig4.workflow_start_spread_s = 350.0;
  fig4.workflow.cluster.capacity = sim_config.cluster.capacity;
  fig4.workflow.looseness_min = 4.0;
  fig4.workflow.looseness_max = 6.0;
  fig4.adhoc.rate_per_s = 0.12;
  fig4.adhoc.horizon_s = 1200.0;
  const workload::Scenario scenario = workload::make_fig4_scenario(seed, fig4);

  core::FlowTimeConfig flowtime;
  flowtime.cluster.capacity = sim_config.cluster.capacity;
  flowtime.cluster.slot_seconds = sim_config.cluster.slot_seconds;

  struct ModeSpec {
    const char* name;
    ObsMode mode;
  };
  const ModeSpec specs[] = {{"obs_off", ObsMode::kOff},
                            {"obs_off_repeat", ObsMode::kOff},
                            {"obs_on", ObsMode::kOn},
                            {"obs_jsonl", ObsMode::kJsonl}};

  std::vector<ModeRow> rows;
  double baseline_ms = 0.0;
  for (const ModeSpec& spec : specs) {
    std::vector<double> walls;
    RunOutcome last;
    for (int rep = 0; rep < repetitions; ++rep) {
      last = run_once(scenario, sim_config, flowtime, spec.mode, trace_path);
      walls.push_back(last.wall_ms);
    }
    ModeRow row;
    row.mode = spec.name;
    row.median_wall_ms = util::quantile(walls, 0.50);
    row.replans = last.replans;
    row.pivots = last.pivots;
    row.all_completed = last.all_completed;
    if (baseline_ms == 0.0) {
      baseline_ms = row.median_wall_ms;  // first row (obs_off) is baseline
    }
    row.overhead_pct = baseline_ms > 0.0
                           ? 100.0 * (row.median_wall_ms - baseline_ms) /
                                 baseline_ms
                           : 0.0;
    rows.push_back(row);
    std::printf("%-16s median %8.3f ms  overhead %+6.2f%%  (%d replans, "
                "%lld pivots)\n",
                row.mode.c_str(), row.median_wall_ms, row.overhead_pct,
                row.replans, static_cast<long long>(row.pivots));
  }
  const double noise_floor_pct = rows.size() > 1 ? rows[1].overhead_pct : 0.0;

  // Sanity: every mode must execute the identical plan sequence (barrier
  // mode + fixed seed), otherwise the wall-clock comparison is meaningless.
  for (const ModeRow& row : rows) {
    if (row.pivots != rows[0].pivots || row.replans != rows[0].replans ||
        !row.all_completed) {
      std::fprintf(stderr,
                   "bench_obs_overhead: FAIL: mode %s diverged from "
                   "baseline (replans %d vs %d, pivots %lld vs %lld)\n",
                   row.mode.c_str(), row.replans, rows[0].replans,
                   static_cast<long long>(row.pivots),
                   static_cast<long long>(rows[0].pivots));
      return 1;
    }
  }

  const std::string json = render_json(rows, repetitions, noise_floor_pct);
  if (!sim::write_file(out_path, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s", json.c_str());
  std::printf("Written to %s\n", out_path.c_str());
  return 0;
}
