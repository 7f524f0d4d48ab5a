// Offline trace analyzer for --trace-out JSONL files.
//
//   ./build/examples/trace_report trace.jsonl [--chrome-out trace.chrome.json]
//
// Reads the flat JSONL event stream any instrumented binary writes
// (flowtime_sim, the fig* benches) and prints:
//   * per-workflow timelines rebuilt from the workflow/job lifecycle spans,
//   * the re-plan cause breakdown and solver-latency percentiles,
//   * the event latency decomposition (queue-wait / coalesce / solve /
//     adoption-lag stages of every causal chain from the concurrent
//     runtime, with a stages-sum-to-total consistency check),
//   * a deadline-risk summary (warn/breach transitions per workflow).
// With --chrome-out it additionally converts the span stream to the Chrome
// trace-event JSON that chrome://tracing and https://ui.perfetto.dev load.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cli_common.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/stats.h"

using namespace flowtime;
using obs::TraceRecord;

namespace {

double as_double(const TraceRecord& record, const char* key,
                 double fallback = 0.0) {
  const auto it = record.find(key);
  if (it == record.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

std::string as_string(const TraceRecord& record, const char* key,
                      const std::string& fallback = "") {
  const auto it = record.find(key);
  return it == record.end() ? fallback : it->second;
}

struct SpanRow {
  std::string kind;
  std::string name;
  std::int64_t parent = 0;  // 0: root
  int workflow = -1;
  int node = -1;
  double begin_s = 0.0;
  double end_s = -1.0;  // <0: never closed
};

}  // namespace

int main(int argc, char** argv) {
  // First positional argument is the trace path; everything after it is
  // ordinary --flag parsing.
  std::string input;
  int flag_start = 1;
  if (argc > 1 && std::strncmp(argv[1], "--", 2) != 0) {
    input = argv[1];
    flag_start = 2;
  }
  util::Flags flags(argc - flag_start + 1, argv + flag_start - 1);
  const std::string chrome_out = flags.get_string("chrome-out", "");
  for (const std::string& typo : flags.unqueried()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", typo.c_str());
  }
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: trace_report TRACE.jsonl [--chrome-out OUT.json]\n");
    return 2;
  }

  std::ifstream file(input);
  if (!file) return cli::fail(input, "cannot open file");
  std::vector<TraceRecord> events;
  int malformed = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    TraceRecord record;
    if (obs::parse_flat_json(line, &record)) {
      events.push_back(std::move(record));
    } else {
      ++malformed;
    }
  }
  std::printf("%s: %zu events", input.c_str(), events.size());
  if (malformed > 0) std::printf(" (%d malformed lines skipped)", malformed);
  std::printf("\n");

  // --- event inventory -------------------------------------------------
  std::map<std::string, int> by_type;
  for (const TraceRecord& record : events) ++by_type[as_string(record, "type")];
  std::printf("\nEvent counts:\n");
  for (const auto& [type, count] : by_type) {
    std::printf("  %-18s %d\n", type.c_str(), count);
  }

  // --- span reconstruction ---------------------------------------------
  std::map<std::int64_t, SpanRow> spans;
  int unmatched_ends = 0;
  for (const TraceRecord& record : events) {
    const std::string type = as_string(record, "type");
    if (type == "span_begin") {
      SpanRow row;
      row.kind = as_string(record, "kind");
      row.name = as_string(record, "name");
      row.parent = static_cast<std::int64_t>(as_double(record, "parent"));
      row.workflow = static_cast<int>(as_double(record, "workflow", -1.0));
      row.node = static_cast<int>(as_double(record, "node", -1.0));
      row.begin_s = as_double(record, "sim_s");
      spans[static_cast<std::int64_t>(as_double(record, "span"))] = row;
    } else if (type == "span_end") {
      const auto it =
          spans.find(static_cast<std::int64_t>(as_double(record, "span")));
      if (it == spans.end()) {
        ++unmatched_ends;
      } else {
        it->second.end_s = as_double(record, "sim_s");
      }
    }
  }
  if (unmatched_ends > 0) {
    std::printf("\nwarning: %d span_end events without a matching begin\n",
                unmatched_ends);
  }

  // Owning cell per workflow, from the (possibly repeated) workflow_arrival
  // events of a federated run. Last arrival wins: a migration re-delivers
  // the arrival on the target cell, so the final stamp is the final owner.
  std::map<int, int> cell_of_workflow;
  std::map<int, int> migrations_of_workflow;
  for (const TraceRecord& record : events) {
    const std::string type = as_string(record, "type");
    if (type == "workflow_arrival" && record.count("cell")) {
      cell_of_workflow[static_cast<int>(as_double(record, "workflow"))] =
          static_cast<int>(as_double(record, "cell"));
    } else if (type == "migration") {
      ++migrations_of_workflow[static_cast<int>(
          as_double(record, "workflow"))];
    }
  }

  // Per-workflow timelines: each workflow span plus the job spans whose
  // parent ref points at it. Workflow ids may repeat (one span per
  // scheduler in a comparison run); parent refs keep the runs separate.
  bool printed_header = false;
  for (const auto& [id, span] : spans) {
    if (span.kind != "workflow") continue;
    if (!printed_header) {
      std::printf("\nWorkflow timelines (sim seconds):\n");
      printed_header = true;
    }
    std::string cell_note;
    if (cell_of_workflow.count(span.workflow)) {
      cell_note = " [cell " +
                  std::to_string(cell_of_workflow[span.workflow]);
      if (migrations_of_workflow.count(span.workflow)) {
        cell_note += ", " +
                     std::to_string(migrations_of_workflow[span.workflow]) +
                     " migration(s)";
      }
      cell_note += "]";
    }
    std::printf("  workflow %d %s: [%.0f, %s]%s\n", span.workflow,
                span.name.c_str(), span.begin_s,
                span.end_s < 0 ? "unfinished"
                               : std::to_string(span.end_s).c_str(),
                cell_note.c_str());
    std::vector<const SpanRow*> job_rows;
    for (const auto& [jid, job] : spans) {
      (void)jid;
      if (job.kind == "job" && job.parent == id) job_rows.push_back(&job);
    }
    std::sort(job_rows.begin(), job_rows.end(),
              [](const SpanRow* a, const SpanRow* b) {
                return a->node != b->node ? a->node < b->node
                                          : a->begin_s < b->begin_s;
              });
    for (const SpanRow* job : job_rows) {
      if (job->end_s < 0) {
        std::printf("    job %-28s node %-3d %8.0f ->      (unfinished)\n",
                    job->name.c_str(), job->node, job->begin_s);
      } else {
        std::printf("    job %-28s node %-3d %8.0f -> %8.0f (%.0fs)\n",
                    job->name.c_str(), job->node, job->begin_s, job->end_s,
                    job->end_s - job->begin_s);
      }
    }
  }

  // --- re-plan causes and solver latency -------------------------------
  // Grouped by federation cell (cell -1 = a plain unsharded scheduler);
  // the overall numbers aggregate every cell, like before.
  std::map<std::string, int> causes;
  std::vector<double> replan_wall_s;
  std::int64_t total_pivots = 0;
  std::map<int, std::map<std::string, int>> causes_by_cell;
  std::map<int, std::vector<double>> wall_by_cell;
  std::map<int, std::int64_t> pivots_by_cell;
  for (const TraceRecord& record : events) {
    if (as_string(record, "type") != "replan") continue;
    const std::string cause = as_string(record, "cause", "none");
    const double wall = as_double(record, "wall_s");
    const auto pivots = static_cast<std::int64_t>(as_double(record, "pivots"));
    ++causes[cause];
    replan_wall_s.push_back(wall);
    total_pivots += pivots;
    if (record.count("cell")) {
      const int cell = static_cast<int>(as_double(record, "cell"));
      ++causes_by_cell[cell][cause];
      wall_by_cell[cell].push_back(wall);
      pivots_by_cell[cell] += pivots;
    }
  }
  if (!replan_wall_s.empty()) {
    std::printf("\nRe-plans: %zu (%lld solver work (pivots + augmenting "
                "paths) total)\n",
                replan_wall_s.size(),
                static_cast<long long>(total_pivots));
    for (const auto& [cause, count] : causes) {
      std::printf("  cause %-28s %d\n", cause.c_str(), count);
    }
    std::printf(
        "  solver latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, "
        "max %.3f ms\n",
        util::quantile(replan_wall_s, 0.5) * 1e3,
        util::quantile(replan_wall_s, 0.95) * 1e3,
        util::quantile(replan_wall_s, 0.99) * 1e3,
        util::quantile(replan_wall_s, 1.0) * 1e3);
  }
  if (!wall_by_cell.empty()) {
    std::printf("\nPer-cell re-plans:\n");
    for (const auto& [cell, walls] : wall_by_cell) {
      std::printf(
          "  cell %-3d %4zu re-plan(s), %8lld pivots, wall p50 %.3f ms, "
          "p99 %.3f ms\n",
          cell, walls.size(), static_cast<long long>(pivots_by_cell[cell]),
          util::quantile(walls, 0.5) * 1e3,
          util::quantile(walls, 0.99) * 1e3);
      for (const auto& [cause, count] : causes_by_cell[cell]) {
        std::printf("    cause %-26s %d\n", cause.c_str(), count);
      }
    }
  }

  // --- federation activity ----------------------------------------------
  {
    std::map<std::string, int> moves;  // "from->to" -> count
    int migrations = 0;
    int overloads = 0;
    int infeasible_routes = 0;
    for (const TraceRecord& record : events) {
      const std::string type = as_string(record, "type");
      if (type == "migration") {
        ++migrations;
        ++moves[as_string(record, "from_cell", "?") + "->" +
                as_string(record, "to_cell", "?")];
      } else if (type == "cell_overload") {
        ++overloads;
      } else if (type == "route_infeasible") {
        ++infeasible_routes;
      }
    }
    if (migrations + overloads + infeasible_routes > 0) {
      std::printf("\nFederation:\n");
      std::printf("  cell overload events  %d\n", overloads);
      std::printf("  migrations            %d\n", migrations);
      for (const auto& [move, count] : moves) {
        std::printf("    %-18s %d\n", move.c_str(), count);
      }
      std::printf("  infeasible routings   %d\n", infeasible_routes);
    }
  }

  // --- availability (cell faults, quarantine, failover) ------------------
  {
    int cell_failures = 0;
    int recoveries = 0;
    std::map<std::string, int> failovers_by_cause;
    std::map<std::string, int> failures_by_mode;
    // Downtime per cell, rebuilt from cell_failed/cell_recovered pairs; an
    // unrecovered failure counts as down to the end of the trace.
    std::map<int, double> down_since;   // cell -> first unrecovered failure
    std::map<int, int> downtime_slots;  // cell -> recovered downtime (slots)
    for (const TraceRecord& record : events) {
      const std::string type = as_string(record, "type");
      if (type == "cell_failed") {
        ++cell_failures;
        ++failures_by_mode[as_string(record, "mode", "?")];
        const int cell = static_cast<int>(as_double(record, "cell"));
        if (!down_since.count(cell)) {
          down_since[cell] = as_double(record, "sim_s");
        }
      } else if (type == "cell_recovered") {
        ++recoveries;
        const int cell = static_cast<int>(as_double(record, "cell"));
        downtime_slots[cell] +=
            static_cast<int>(as_double(record, "downtime_slots"));
        down_since.erase(cell);
      } else if (type == "failover") {
        ++failovers_by_cause[as_string(record, "cause", "?")];
      }
    }
    if (cell_failures > 0) {
      std::printf("\nAvailability:\n");
      std::printf("  cell failures         %d\n", cell_failures);
      for (const auto& [mode, count] : failures_by_mode) {
        std::printf("    mode %-16s %d\n", mode.c_str(), count);
      }
      std::printf("  cell recoveries       %d\n", recoveries);
      int failovers = 0;
      for (const auto& [cause, count] : failovers_by_cause) {
        failovers += count;
      }
      std::printf("  workflow failovers    %d\n", failovers);
      for (const auto& [cause, count] : failovers_by_cause) {
        std::printf("    cause %-15s %d\n", cause.c_str(), count);
      }
      for (const auto& [cell, slots] : downtime_slots) {
        std::printf("  cell %-3d downtime     %d slot(s)%s\n", cell, slots,
                    down_since.count(cell) ? " (+ unrecovered outage)" : "");
      }
      for (const auto& [cell, since] : down_since) {
        if (!downtime_slots.count(cell)) {
          std::printf("  cell %-3d down at %.0fs, never recovered\n", cell,
                      since);
        }
      }
      // Quarantine windows from the lifecycle spans (kind "quarantine",
      // one per outage, possibly still open at end of trace).
      std::vector<double> quarantine_s;
      for (const auto& [id, span] : spans) {
        (void)id;
        if (span.kind != "quarantine" || span.end_s < 0.0) continue;
        quarantine_s.push_back(span.end_s - span.begin_s);
      }
      if (!quarantine_s.empty()) {
        std::printf(
            "  quarantine windows    %zu closed, p50 %.0f s, max %.0f s\n",
            quarantine_s.size(), util::quantile(quarantine_s, 0.5),
            util::quantile(quarantine_s, 1.0));
      }
    }
  }

  // --- event latency decomposition (concurrent runtime) ------------------
  // Every plan_adopted / plan_discarded terminal carries the four causal
  // stages; by construction they tile the replan's end-to-end wall latency,
  // which the ±1 ms consistency check below re-verifies from the trace.
  {
    std::map<std::string, std::vector<double>> stages;  // key -> samples (ms)
    static const char* kStages[] = {"queue_wait_ms", "coalesce_ms",
                                    "solve_ms", "adoption_lag_ms",
                                    "total_ms"};
    int terminals = 0;
    int adopted = 0;
    int sum_mismatches = 0;
    int trigger_enqueues = 0;
    int chain_solve_begins = 0;
    for (const TraceRecord& record : events) {
      const std::string type = as_string(record, "type");
      if (type == "event_enqueued") {
        if (as_string(record, "trigger") == "true") ++trigger_enqueues;
        continue;
      }
      if (type == "solve_begin") {
        ++chain_solve_begins;
        continue;
      }
      if (type != "plan_adopted" && type != "plan_discarded") continue;
      ++terminals;
      if (type == "plan_adopted") ++adopted;
      double sum_ms = 0.0;
      for (const char* key : kStages) {
        const double value = as_double(record, key);
        stages[key].push_back(value);
        if (std::strcmp(key, "total_ms") == 0) {
          if (std::fabs(sum_ms - value) > 1.0) ++sum_mismatches;
        } else {
          sum_ms += value;
        }
      }
    }
    if (terminals > 0) {
      std::printf(
          "\nEvent latency decomposition (%d replan chains: %d adopted, "
          "%d discarded):\n",
          terminals, adopted, terminals - adopted);
      std::printf("  %-16s %10s %10s %10s %10s\n", "stage", "p50 ms",
                  "p95 ms", "p99 ms", "max ms");
      for (const char* key : kStages) {
        const std::vector<double>& samples = stages[key];
        std::printf("  %-16s %10.3f %10.3f %10.3f %10.3f\n", key,
                    util::quantile(samples, 0.5), util::quantile(samples, 0.95),
                    util::quantile(samples, 0.99), util::quantile(samples, 1.0));
      }
      if (sum_mismatches == 0) {
        std::printf("  stages sum to total within 1 ms on every chain\n");
      } else {
        std::printf("  warning: %d chain(s) where stages do not sum to "
                    "total within 1 ms\n",
                    sum_mismatches);
      }
      std::printf("  chain balance: %d trigger enqueues, %d solve_begin, "
                  "%d terminals%s\n",
                  trigger_enqueues, chain_solve_begins, terminals,
                  chain_solve_begins == terminals ? " (balanced)"
                                                  : " (UNBALANCED)");
    }
  }

  // --- fault injection ---------------------------------------------------
  std::map<std::string, int> fault_kinds;     // fault_injected by kind
  std::map<int, int> faults_per_workflow;     // task failures + stragglers
  std::map<int, int> retries_per_workflow;
  int task_retries = 0;
  int capacity_changes = 0;
  for (const TraceRecord& record : events) {
    const std::string type = as_string(record, "type");
    if (type == "fault_injected") {
      const std::string kind = as_string(record, "kind", "?");
      ++fault_kinds[kind];
      if (kind == "task_failure" || kind == "straggler") {
        ++faults_per_workflow[static_cast<int>(
            as_double(record, "workflow", -1.0))];
      }
    } else if (type == "task_retry") {
      ++task_retries;
      ++retries_per_workflow[static_cast<int>(
          as_double(record, "workflow", -1.0))];
    } else if (type == "capacity_change") {
      ++capacity_changes;
    }
  }
  if (!fault_kinds.empty() || task_retries > 0 || capacity_changes > 0) {
    std::printf("\nFault injection:\n");
    for (const auto& [kind, count] : fault_kinds) {
      std::printf("  injected %-18s %d\n", kind.c_str(), count);
    }
    std::printf("  capacity changes      %d\n", capacity_changes);
    std::printf("  task retries          %d\n", task_retries);
    for (const auto& [workflow, count] : faults_per_workflow) {
      std::printf("  workflow %-3d faults %d, retries %d\n", workflow, count,
                  retries_per_workflow.count(workflow)
                      ? retries_per_workflow[workflow]
                      : 0);
    }
  }

  // --- solver degradation ------------------------------------------------
  std::map<std::string, int> escalation_reasons;
  int degraded_replans = 0;
  int degrade_enters = 0;
  int degrade_exits = 0;
  for (const TraceRecord& record : events) {
    const std::string type = as_string(record, "type");
    if (type == "solver_escalation") {
      ++escalation_reasons[as_string(record, "reason", "?")];
    } else if (type == "replan") {
      if (as_double(record, "degrade_rung") > 0) ++degraded_replans;
    } else if (type == "degrade_enter") {
      ++degrade_enters;
    } else if (type == "degrade_exit") {
      ++degrade_exits;
    }
  }
  if (!escalation_reasons.empty() || degrade_enters > 0) {
    std::printf("\nSolver degradation:\n");
    std::printf("  degraded re-plans     %d\n", degraded_replans);
    std::printf("  degraded-mode windows %d entered, %d recovered\n",
                degrade_enters, degrade_exits);
    for (const auto& [reason, count] : escalation_reasons) {
      std::printf("  escalation %-18s %d\n", reason.c_str(), count);
    }
  }

  // --- deadline risk -----------------------------------------------------
  std::map<std::string, int> risk_counts;  // "entity/level" -> transitions
  // workflow id -> worst level seen (0 ok, 1 warn, 2 breach)
  std::map<int, int> workflow_worst;
  auto level_rank = [](const std::string& level) {
    return level == "breach" ? 2 : level == "warn" ? 1 : 0;
  };
  const char* kLevelNames[] = {"ok", "warn", "breach"};
  for (const TraceRecord& record : events) {
    if (as_string(record, "type") != "deadline_risk") continue;
    const std::string entity = as_string(record, "entity");
    const std::string level = as_string(record, "level");
    ++risk_counts[entity + "/" + level];
    const int workflow = static_cast<int>(as_double(record, "workflow", -1.0));
    int& worst = workflow_worst[workflow];
    worst = std::max(worst, level_rank(level));
  }
  std::printf("\nDeadline risk:\n");
  if (risk_counts.empty()) {
    std::printf("  no deadline_risk events (every projection stayed ok)\n");
  } else {
    for (const auto& [key, count] : risk_counts) {
      std::printf("  %-18s %d transition(s)\n", key.c_str(), count);
    }
    for (const auto& [workflow, worst] : workflow_worst) {
      std::printf("  workflow %-3d worst level: %s\n", workflow,
                  kLevelNames[worst]);
    }
  }

  // --- Chrome trace conversion ------------------------------------------
  if (!chrome_out.empty()) {
    const std::string json = obs::render_chrome_trace(events);
    std::ofstream out(chrome_out);
    if (!out) return cli::fail(chrome_out, "cannot write file");
    out << json;
    std::printf(
        "\nChrome trace written to %s (load in chrome://tracing or "
        "https://ui.perfetto.dev)\n",
        chrome_out.c_str());
  }
  return 0;
}
