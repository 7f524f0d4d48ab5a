// Federated shard-scaling benchmark (DESIGN.md §13, ROADMAP item 3).
//
// Runs one production-shaped scenario (diurnal workflow releases, flash
// crowds, heavy-tailed ad-hoc runtimes — workload/trace_gen.h) against the
// FederatedScheduler at increasing cell counts and reports how the re-plan
// cost scales: per-round solve wall p50/p99 (a round is one allocate() that
// solved at least one dirty cell; its wall is the sum of those cells'
// solves, which run one after another), total solve wall, migrations, and
// the deadline-miss rate so the quality cost of sharding is visible next to
// the latency win. The cells=1 row is the unsharded baseline — the
// coordinator is a byte-identical pass-through there — and every other row
// reports its speedup against it.
//
// Output is one JSON document (default BENCH_shard_scaling.json, committed
// to the repo so the numbers travel with the code). Regenerate with:
//   ./build/bench/bench_shard_scaling --out BENCH_shard_scaling.json
// The committed file is schema-checked by the bench_shard_scaling_schema
// ctest target (--check mode); bench_shard_scaling_smoke runs a small
// instance end-to-end.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/federated_scheduler.h"
#include "obs/metrics.h"
#include "sched/experiment.h"
#include "sim/metrics.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/strings.h"
#include "workload/trace_gen.h"

namespace {

using namespace flowtime;
using workload::ResourceVec;

struct ShardRow {
  int cells = 1;
  int replan_rounds = 0;
  double solve_wall_p50_ms = 0.0;
  double solve_wall_p99_ms = 0.0;
  double solve_wall_total_s = 0.0;
  int replans = 0;
  std::int64_t pivots = 0;
  int migrations = 0;
  int cell_overload_events = 0;
  int deadline_jobs_missed = 0;
  double deadline_miss_rate = 0.0;
  double adhoc_mean_turnaround_s = 0.0;
  double speedup_vs_1cell = 1.0;
  bool all_completed = false;
};

ShardRow run_cells(int cells, const workload::Scenario& scenario,
                   const sched::ExperimentConfig& experiment,
                   const sim::JobDeadlines& deadlines, int deadline_jobs) {
  cluster::FederatedConfig federated;
  federated.flowtime = experiment.flowtime;
  federated.partition.cells = cells;
  cluster::FederatedScheduler fed(federated);
  sim::Simulator simulator(experiment.sim);
  const sim::SimResult result = simulator.run(scenario, fed);

  ShardRow row;
  row.cells = cells;
  const std::vector<double>& rounds = fed.replan_round_wall_s();
  row.replan_rounds = static_cast<int>(rounds.size());
  if (!rounds.empty()) {
    row.solve_wall_p50_ms = util::quantile(rounds, 0.5) * 1e3;
    row.solve_wall_p99_ms = util::quantile(rounds, 0.99) * 1e3;
    for (double wall : rounds) row.solve_wall_total_s += wall;
  }
  row.replans = fed.replans();
  row.pivots = fed.total_pivots();
  row.migrations = fed.migrations();
  row.cell_overload_events = fed.overload_events();
  const sim::DeadlineReport stats =
      sim::evaluate_deadlines(result, scenario.workflows, deadlines);
  row.deadline_jobs_missed = stats.jobs_missed;
  row.deadline_miss_rate =
      deadline_jobs > 0 ? static_cast<double>(stats.jobs_missed) /
                              static_cast<double>(deadline_jobs)
                        : 0.0;
  row.adhoc_mean_turnaround_s = sim::evaluate_adhoc(result).mean_turnaround_s;
  row.all_completed = result.all_completed;
  return row;
}

std::string render_json(const std::vector<ShardRow>& rows,
                        const workload::ClusterSpec& cluster, int workflows,
                        int deadline_jobs, int adhoc_jobs,
                        std::int64_t tasks, double horizon_s,
                        std::uint64_t seed) {
  std::string out = "{\n";
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  \"benchmark\": \"shard_scaling\",\n"
                "  \"cores\": %.0f,\n"
                "  \"mem_gb\": %.0f,\n"
                "  \"slot_seconds\": %.0f,\n"
                "  \"workflows\": %d,\n"
                "  \"deadline_jobs\": %d,\n"
                "  \"adhoc_jobs\": %d,\n"
                "  \"tasks\": %lld,\n"
                "  \"horizon_s\": %.0f,\n"
                "  \"seed\": %llu,\n"
                "  \"rows\": [\n",
                cluster.capacity[workload::kCpu],
                cluster.capacity[workload::kMemory], cluster.slot_seconds,
                workflows, deadline_jobs, adhoc_jobs,
                static_cast<long long>(tasks), horizon_s,
                static_cast<unsigned long long>(seed));
  out += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& r = rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\n"
        "      \"cells\": %d,\n"
        "      \"replan_rounds\": %d,\n"
        "      \"solve_wall_p50_ms\": %.3f,\n"
        "      \"solve_wall_p99_ms\": %.3f,\n"
        "      \"solve_wall_total_s\": %.6f,\n"
        "      \"replans\": %d,\n"
        "      \"pivots\": %lld,\n"
        "      \"migrations\": %d,\n"
        "      \"cell_overload_events\": %d,\n"
        "      \"deadline_jobs_missed\": %d,\n"
        "      \"deadline_miss_rate\": %.6f,\n"
        "      \"adhoc_mean_turnaround_s\": %.3f,\n"
        "      \"speedup_vs_1cell\": %.3f,\n"
        "      \"all_completed\": %s\n"
        "    }%s\n",
        r.cells, r.replan_rounds, r.solve_wall_p50_ms, r.solve_wall_p99_ms,
        r.solve_wall_total_s, r.replans, static_cast<long long>(r.pivots),
        r.migrations, r.cell_overload_events, r.deadline_jobs_missed,
        r.deadline_miss_rate, r.adhoc_mean_turnaround_s, r.speedup_vs_1cell,
        r.all_completed ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

// Schema check over the committed JSON: every required key must appear
// (value syntax is snprintf-controlled, so key presence is the contract),
// and the committed file must cover the 1/4/16-cell series.
int check_schema(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  const char* required[] = {
      "\"benchmark\": \"shard_scaling\"",
      "\"cores\":",
      "\"mem_gb\":",
      "\"slot_seconds\":",
      "\"workflows\":",
      "\"deadline_jobs\":",
      "\"adhoc_jobs\":",
      "\"tasks\":",
      "\"horizon_s\":",
      "\"seed\":",
      "\"rows\":",
      "\"cells\": 1",
      "\"cells\": 4",
      "\"cells\": 16",
      "\"replan_rounds\":",
      "\"solve_wall_p50_ms\":",
      "\"solve_wall_p99_ms\":",
      "\"solve_wall_total_s\":",
      "\"replans\":",
      "\"pivots\":",
      "\"migrations\":",
      "\"cell_overload_events\":",
      "\"deadline_jobs_missed\":",
      "\"deadline_miss_rate\":",
      "\"adhoc_mean_turnaround_s\":",
      "\"speedup_vs_1cell\":",
      "\"all_completed\":"};
  int missing = 0;
  for (const char* key : required) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "schema: missing %s\n", key);
      ++missing;
    }
  }
  if (missing > 0) return 1;
  std::printf("%s: schema ok (%zu bytes)\n", path.c_str(), text.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string check_path = flags.get_string("check", "");
  const std::string out_path =
      flags.get_string("out", "BENCH_shard_scaling.json");
  const std::string cells_list = flags.get_string("cells", "1,4,16");
  const int workflows = static_cast<int>(flags.get_double("workflows", 96.0));
  const double horizon_s = flags.get_double("horizon", 2.0 * 3600.0);
  const double cores = flags.get_double("cores", 10000.0);
  const double mem_gb = flags.get_double("mem-gb", 20480.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_double("seed", 42.0));
  if (!check_path.empty()) return check_schema(check_path);
  obs::set_enabled(true);  // round wall timers live behind the obs switch

  workload::ProductionScenarioConfig production;
  production.num_workflows = workflows;
  production.horizon_s = horizon_s;
  production.diurnal_period_s = horizon_s;  // one full load wave per run
  production.workflow.cluster.capacity = ResourceVec{cores, mem_gb};
  // Workflows must individually fit a 1/16 cell, or sharding pays in
  // deadline extensions instead of routing; many small workflows is also
  // the production shape the partition exploits.
  production.workflow.task_multiplier =
      static_cast<int>(flags.get_double("task-multiplier", 1.0));
  production.adhoc.base.rate_per_s = 0.05;
  production.adhoc.base.horizon_s = horizon_s;
  const workload::Scenario scenario =
      workload::make_production_scenario(seed, production);

  int deadline_jobs = 0;
  std::int64_t tasks = 0;
  for (const auto& w : scenario.workflows) {
    deadline_jobs += static_cast<int>(w.jobs.size());
    for (const auto& job : w.jobs) tasks += job.num_tasks;
  }
  for (const auto& adhoc : scenario.adhoc_jobs) tasks += adhoc.spec.num_tasks;

  sched::ExperimentConfig experiment;
  experiment.sim.cluster.capacity = ResourceVec{cores, mem_gb};
  experiment.sim.max_horizon_s = 4.0 * horizon_s;
  experiment.flowtime.cluster = experiment.sim.cluster;
  const sim::JobDeadlines deadlines =
      sched::milestone_deadlines(scenario, experiment);

  std::printf("shard scaling: %d workflows (%d deadline jobs), %zu ad-hoc, "
              "%lld tasks, %.0f cores\n",
              workflows, deadline_jobs, scenario.adhoc_jobs.size(),
              static_cast<long long>(tasks), cores);

  std::vector<ShardRow> rows;
  for (const std::string& token : util::split(cells_list, ',')) {
    if (token.empty()) continue;
    const int cells = std::max(1, std::atoi(token.c_str()));
    std::printf("  cells=%d ...\n", cells);
    std::fflush(stdout);
    ShardRow row =
        run_cells(cells, scenario, experiment, deadlines, deadline_jobs);
    if (!rows.empty() && rows.front().cells == 1 &&
        row.solve_wall_total_s > 0.0) {
      row.speedup_vs_1cell =
          rows.front().solve_wall_total_s / row.solve_wall_total_s;
    }
    std::printf(
        "  cells=%d: %d rounds, p50 %.2f ms, p99 %.2f ms, total %.2f s, "
        "miss rate %.4f, migrations %d (%.2fx vs 1 cell)\n",
        row.cells, row.replan_rounds, row.solve_wall_p50_ms,
        row.solve_wall_p99_ms, row.solve_wall_total_s, row.deadline_miss_rate,
        row.migrations, row.speedup_vs_1cell);
    rows.push_back(row);
  }

  const std::string json = render_json(
      rows, experiment.sim.cluster, workflows, deadline_jobs,
      static_cast<int>(scenario.adhoc_jobs.size()), tasks, horizon_s, seed);
  if (!sim::write_file(out_path, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s", json.c_str());
  std::printf("Written to %s\n", out_path.c_str());
  return 0;
}
