// Re-planning latency benchmark for the concurrent runtime (DESIGN.md §11).
//
// Runs the same Fig.4-style workload end-to-end twice — once with the
// synchronous FlowTime scheduler (every re-plan blocks the serving slot)
// and once behind the concurrent runtime in barrier mode (every solve runs
// on the solver thread; the barrier keeps the run plan-for-plan identical,
// so the two rows are directly comparable) — and reports, per mode, the
// re-plan count, solver work (pivots + augmenting paths), and the
// wall-clock distribution of the solve (p50/p99), plus the runtime's
// coalescing and staleness counters.
//
// Output is one JSON document (default BENCH_replan.json, committed to the
// repo so the numbers travel with the code). Regenerate with:
//   ./build/bench/bench_replan --out BENCH_replan.json
#include <cstdio>
#include <string>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "obs/metrics.h"
#include "runtime/concurrent_scheduler.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/stats.h"
#include "workload/trace_gen.h"

namespace {

using namespace flowtime;
using workload::ResourceVec;

struct ModeStats {
  std::string mode;
  int replans = 0;
  int discarded = 0;
  std::int64_t pivots = 0;
  double wall_p50_ms = 0.0;
  double wall_p99_ms = 0.0;
  double wall_max_ms = 0.0;
  std::int64_t coalesced_events = 0;
  std::int64_t stale_solves = 0;
  std::int64_t async_solves = 0;
  bool all_completed = false;
};

ModeStats collect(const std::string& mode,
                  const core::FlowTimeScheduler& scheduler,
                  const sim::SimResult& result) {
  ModeStats stats;
  stats.mode = mode;
  stats.pivots = scheduler.total_pivots();
  stats.all_completed = result.all_completed;
  std::vector<double> wall_ms;
  for (const core::ReplanRecord& record : scheduler.replan_log()) {
    if (record.discarded) {
      ++stats.discarded;
      continue;
    }
    ++stats.replans;
    wall_ms.push_back(record.wall_s * 1e3);
  }
  if (!wall_ms.empty()) {
    stats.wall_p50_ms = util::quantile(wall_ms, 0.50);
    stats.wall_p99_ms = util::quantile(wall_ms, 0.99);
    stats.wall_max_ms = util::max_of(wall_ms);
  }
  return stats;
}

std::string render_json(const std::vector<ModeStats>& rows,
                        const workload::Scenario& scenario) {
  std::string out = "{\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"benchmark\": \"replan\",\n"
                "  \"workflows\": %zu,\n"
                "  \"adhoc_jobs\": %zu,\n"
                "  \"modes\": [\n",
                scenario.workflows.size(), scenario.adhoc_jobs.size());
  out += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ModeStats& r = rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\n"
        "      \"mode\": \"%s\",\n"
        "      \"replans\": %d,\n"
        "      \"discarded_solves\": %d,\n"
        "      \"pivots\": %lld,\n"
        "      \"wall_p50_ms\": %.3f,\n"
        "      \"wall_p99_ms\": %.3f,\n"
        "      \"wall_max_ms\": %.3f,\n"
        "      \"coalesced_events\": %lld,\n"
        "      \"stale_solves\": %lld,\n"
        "      \"async_solves\": %lld,\n"
        "      \"all_completed\": %s\n"
        "    }%s\n",
        r.mode.c_str(), r.replans, r.discarded,
        static_cast<long long>(r.pivots), r.wall_p50_ms, r.wall_p99_ms,
        r.wall_max_ms, static_cast<long long>(r.coalesced_events),
        static_cast<long long>(r.stale_solves),
        static_cast<long long>(r.async_solves),
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
  const std::string out_path = flags.get_string("out", "BENCH_replan.json");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_double("seed", 7.0));
  obs::set_enabled(true);  // wall-clock timers live behind the obs switch

  sim::SimConfig sim_config;
  sim_config.cluster.capacity = ResourceVec{500.0, 1024.0};
  sim_config.max_horizon_s = 8.0 * 3600.0;

  workload::Fig4Config fig4;
  fig4.num_workflows = 5;
  fig4.jobs_per_workflow = 18;
  fig4.workflow_start_spread_s = 400.0;
  fig4.workflow.cluster.capacity = sim_config.cluster.capacity;
  fig4.workflow.looseness_min = 4.0;
  fig4.workflow.looseness_max = 6.0;
  fig4.adhoc.rate_per_s = 0.15;
  fig4.adhoc.horizon_s = 1500.0;
  const workload::Scenario scenario = workload::make_fig4_scenario(seed, fig4);

  core::FlowTimeConfig flowtime;
  flowtime.cluster.capacity = sim_config.cluster.capacity;
  flowtime.cluster.slot_seconds = sim_config.cluster.slot_seconds;

  std::vector<ModeStats> rows;

  {
    core::FlowTimeScheduler scheduler(flowtime);
    const sim::SimResult result =
        sim::Simulator(sim_config).run(scenario, scheduler);
    rows.push_back(collect("sync", scheduler, result));
  }

  {
    runtime::RuntimeConfig rt;
    rt.flowtime = flowtime;
    rt.barrier_mode = true;
    runtime::ConcurrentScheduler scheduler(rt);
    const sim::SimResult result =
        sim::Simulator(sim_config).run(scenario, scheduler);
    scheduler.drain_events();
    ModeStats stats = collect("async_barrier", scheduler.inner(), result);
    stats.coalesced_events = scheduler.coalesced_events();
    stats.stale_solves = scheduler.stale_solves();
    stats.async_solves = scheduler.async_solves();
    rows.push_back(stats);
  }

  const std::string json = render_json(rows, scenario);
  if (!sim::write_file(out_path, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s", json.c_str());
  std::printf("Written to %s\n", out_path.c_str());
  return 0;
}
