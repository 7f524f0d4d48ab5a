// Federation availability benchmark (DESIGN.md §14).
//
// Runs one production-shaped scenario (workload/trace_gen.h) against the
// FederatedScheduler at several cell counts, killing 0..K cells mid-run
// with seeded fault_cell crashes, and reports what cell-level fault
// tolerance costs: the deadline-miss rate next to the same series with no
// faults (the miss-rate delta is the availability price of losing a
// shard), failover/quarantine/recovery counts, mean recovery latency and
// per-run availability (fraction of cell-slots outside quarantine) derived
// from the coordinator's outage log.
//
// Output is one JSON document (default BENCH_failover.json, committed to
// the repo so the numbers travel with the code). Regenerate with:
//   ./build/bench/bench_failover --out BENCH_failover.json
// The committed file is schema-checked by the bench_failover_schema ctest
// target (--check mode) and regenerated and compared byte for byte by
// bench_failover_golden; bench_failover_smoke runs a small instance
// end-to-end. All three carry the "failover" label.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/federated_scheduler.h"
#include "fault/plan.h"
#include "sched/experiment.h"
#include "sim/metrics.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/strings.h"
#include "workload/trace_gen.h"

namespace {

using namespace flowtime;
using workload::ResourceVec;

struct FailoverRow {
  int cells = 1;
  int cells_killed = 0;
  int cell_failures = 0;
  int failovers = 0;
  int quarantines = 0;
  int cell_recoveries = 0;
  double mean_recovery_slots = 0.0;
  int downtime_cell_slots = 0;
  double availability = 1.0;
  int deadline_jobs_missed = 0;
  double deadline_miss_rate = 0.0;
  double miss_rate_delta_vs_no_fault = 0.0;
  double adhoc_mean_turnaround_s = 0.0;
  bool all_completed = false;
};

/// Staggered mid-run crashes: cell k (k = 1..killed) goes down at slot
/// 60 + 60*(k-1) and recovers 120 slots later. All deterministic — the
/// flap jitter stream is unused by plain crash windows.
fault::FaultPlan kill_plan(int killed, std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  for (int k = 1; k <= killed; ++k) {
    fault::CellFault fault;
    fault.cell = k;
    fault.mode = fault::CellFaultMode::kCrash;
    fault.slot = 60 + 60 * (k - 1);
    fault.until_slot = fault.slot + 120;
    plan.cell_faults.push_back(fault);
  }
  return plan;
}

FailoverRow run_config(int cells, int killed,
                       const workload::Scenario& scenario,
                       const sched::ExperimentConfig& experiment,
                       const sim::JobDeadlines& deadlines, int deadline_jobs,
                       std::uint64_t seed) {
  sim::SimConfig sim_config = experiment.sim;
  sim_config.fault_plan = kill_plan(std::min(killed, cells - 1), seed);

  cluster::FederatedConfig federated;
  federated.flowtime = experiment.flowtime;
  federated.partition.cells = cells;
  cluster::FederatedScheduler fed(federated);
  const sim::SimResult result =
      sim::Simulator(sim_config).run(scenario, fed);

  FailoverRow row;
  row.cells = cells;
  row.cells_killed = std::min(killed, cells - 1);
  row.cell_failures = fed.cell_failures();
  row.failovers = fed.failovers();
  row.quarantines = fed.quarantines();
  row.cell_recoveries = fed.cell_recoveries();
  const int total_slots = static_cast<int>(result.allocated_per_slot.size());
  int closed = 0;
  double recovery_sum = 0.0;
  for (const auto& outage : fed.outage_log()) {
    const int end =
        outage.recovered_slot >= 0 ? outage.recovered_slot : total_slots;
    row.downtime_cell_slots += std::max(0, end - outage.failed_slot);
    if (outage.recovered_slot >= 0) {
      recovery_sum += outage.recovered_slot - outage.failed_slot;
      ++closed;
    }
  }
  if (closed > 0) row.mean_recovery_slots = recovery_sum / closed;
  if (total_slots > 0 && cells > 0) {
    row.availability = 1.0 - static_cast<double>(row.downtime_cell_slots) /
                                 (static_cast<double>(cells) * total_slots);
  }
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

std::string render_json(const std::vector<FailoverRow>& rows,
                        const workload::ClusterSpec& cluster, int workflows,
                        int deadline_jobs, int adhoc_jobs, double horizon_s,
                        std::uint64_t seed) {
  std::string out = "{\n";
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  \"benchmark\": \"failover\",\n"
                "  \"cores\": %.0f,\n"
                "  \"mem_gb\": %.0f,\n"
                "  \"slot_seconds\": %.0f,\n"
                "  \"workflows\": %d,\n"
                "  \"deadline_jobs\": %d,\n"
                "  \"adhoc_jobs\": %d,\n"
                "  \"horizon_s\": %.0f,\n"
                "  \"seed\": %llu,\n"
                "  \"rows\": [\n",
                cluster.capacity[workload::kCpu],
                cluster.capacity[workload::kMemory], cluster.slot_seconds,
                workflows, deadline_jobs, adhoc_jobs, horizon_s,
                static_cast<unsigned long long>(seed));
  out += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FailoverRow& r = rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\n"
        "      \"cells\": %d,\n"
        "      \"cells_killed\": %d,\n"
        "      \"cell_failures\": %d,\n"
        "      \"failovers\": %d,\n"
        "      \"quarantines\": %d,\n"
        "      \"cell_recoveries\": %d,\n"
        "      \"mean_recovery_slots\": %.2f,\n"
        "      \"downtime_cell_slots\": %d,\n"
        "      \"availability\": %.6f,\n"
        "      \"deadline_jobs_missed\": %d,\n"
        "      \"deadline_miss_rate\": %.6f,\n"
        "      \"miss_rate_delta_vs_no_fault\": %.6f,\n"
        "      \"adhoc_mean_turnaround_s\": %.3f,\n"
        "      \"all_completed\": %s\n"
        "    }%s\n",
        r.cells, r.cells_killed, r.cell_failures, r.failovers, r.quarantines,
        r.cell_recoveries, r.mean_recovery_slots, r.downtime_cell_slots,
        r.availability, r.deadline_jobs_missed, r.deadline_miss_rate,
        r.miss_rate_delta_vs_no_fault, r.adhoc_mean_turnaround_s,
        r.all_completed ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

// Schema check over the committed JSON: every required key must appear
// (value syntax is snprintf-controlled, so key presence is the contract),
// and the committed file must cover the 4/8/16-cell series with and
// without a kill.
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
      "\"benchmark\": \"failover\"",
      "\"cores\":",
      "\"mem_gb\":",
      "\"slot_seconds\":",
      "\"workflows\":",
      "\"deadline_jobs\":",
      "\"adhoc_jobs\":",
      "\"horizon_s\":",
      "\"seed\":",
      "\"rows\":",
      "\"cells\": 4",
      "\"cells\": 8",
      "\"cells\": 16",
      "\"cells_killed\": 0",
      "\"cells_killed\": 1",
      "\"cell_failures\":",
      "\"failovers\":",
      "\"quarantines\":",
      "\"cell_recoveries\":",
      "\"mean_recovery_slots\":",
      "\"downtime_cell_slots\":",
      "\"availability\":",
      "\"deadline_jobs_missed\":",
      "\"deadline_miss_rate\":",
      "\"miss_rate_delta_vs_no_fault\":",
      "\"adhoc_mean_turnaround_s\":",
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
  const std::string out_path = flags.get_string("out", "BENCH_failover.json");
  const std::string cells_list = flags.get_string("cells", "4,8,16");
  const std::string killed_list = flags.get_string("killed", "0,1");
  const int workflows = static_cast<int>(flags.get_double("workflows", 48.0));
  const double horizon_s = flags.get_double("horizon", 2.0 * 3600.0);
  const double cores = flags.get_double("cores", 10000.0);
  const double mem_gb = flags.get_double("mem-gb", 20480.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_double("seed", 42.0));
  if (!check_path.empty()) return check_schema(check_path);

  workload::ProductionScenarioConfig production;
  production.num_workflows = workflows;
  production.horizon_s = horizon_s;
  production.diurnal_period_s = horizon_s;  // one full load wave per run
  production.workflow.cluster.capacity = ResourceVec{cores, mem_gb};
  production.adhoc.base.rate_per_s = 0.05;
  production.adhoc.base.horizon_s = horizon_s;
  const workload::Scenario scenario =
      workload::make_production_scenario(seed, production);

  int deadline_jobs = 0;
  for (const auto& w : scenario.workflows) {
    deadline_jobs += static_cast<int>(w.jobs.size());
  }

  sched::ExperimentConfig experiment;
  experiment.sim.cluster.capacity = ResourceVec{cores, mem_gb};
  experiment.sim.max_horizon_s = 4.0 * horizon_s;
  experiment.flowtime.cluster = experiment.sim.cluster;
  const sim::JobDeadlines deadlines =
      sched::milestone_deadlines(scenario, experiment);

  std::printf("failover: %d workflows (%d deadline jobs), %zu ad-hoc, "
              "%.0f cores\n",
              workflows, deadline_jobs, scenario.adhoc_jobs.size(), cores);

  std::vector<FailoverRow> rows;
  for (const std::string& cells_token : util::split(cells_list, ',')) {
    if (cells_token.empty()) continue;
    const int cells = std::max(1, std::atoi(cells_token.c_str()));
    double baseline_miss_rate = 0.0;
    bool have_baseline = false;
    for (const std::string& killed_token : util::split(killed_list, ',')) {
      if (killed_token.empty()) continue;
      const int killed = std::max(0, std::atoi(killed_token.c_str()));
      std::printf("  cells=%d killed=%d ...\n", cells, killed);
      std::fflush(stdout);
      FailoverRow row = run_config(cells, killed, scenario, experiment,
                                   deadlines, deadline_jobs, seed);
      if (row.cells_killed == 0) {
        baseline_miss_rate = row.deadline_miss_rate;
        have_baseline = true;
      } else if (have_baseline) {
        row.miss_rate_delta_vs_no_fault =
            row.deadline_miss_rate - baseline_miss_rate;
      }
      std::printf(
          "  cells=%d killed=%d: failovers %d, quarantines %d, recoveries "
          "%d, mean recovery %.1f slots, availability %.4f, miss rate %.4f "
          "(delta %+.4f)\n",
          row.cells, row.cells_killed, row.failovers, row.quarantines,
          row.cell_recoveries, row.mean_recovery_slots, row.availability,
          row.deadline_miss_rate, row.miss_rate_delta_vs_no_fault);
      rows.push_back(row);
    }
  }

  const std::string json = render_json(
      rows, experiment.sim.cluster, workflows, deadline_jobs,
      static_cast<int>(scenario.adhoc_jobs.size()), horizon_s, seed);
  if (!sim::write_file(out_path, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s", json.c_str());
  std::printf("Written to %s\n", out_path.c_str());
  return 0;
}
