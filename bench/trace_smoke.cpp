// Smoke test for the observability pipeline (DESIGN.md "Observability").
//
// Two phases, both wired into ctest so a broken event schema fails the
// build's test stage, not a downstream consumer:
//
//   1. Synchronous run: a small FlowTime scenario with JSONL tracing
//      enabled. The trace is re-read and EVERY line is validated against
//      the documented per-type field schema below — an unknown event type
//      or a missing required field fails the test. On top of the schema,
//      the structural invariants: at least one LP solve and one replan,
//      a per-slot load record for every simulated slot, and well-formed
//      lifecycle spans (paired begin/end, matching kinds, monotone
//      timestamps, workflow/job/placement/plan hierarchy present).
//
//   2. Asynchronous run behind the concurrent runtime (barrier mode, so
//      the seeded scenario completes deterministically while every solve
//      still flows queue -> batch -> solver pool -> adoption): the causal
//      chain must balance when paired BY ID (line order races between
//      threads by design): every solve_begin resolves to exactly one
//      plan_adopted/plan_discarded terminal, every batch_planned points
//      at a known replan, every event_dequeued at a known enqueue, and
//      the four stage latencies of each terminal sum to its total_ms.
//      (Free-running non-barrier pairing is covered by
//      ObsConcurrency.CausalChainsPairAcrossThreads.)
//
// Flags: --trace-out PATH (default trace_smoke.jsonl in the CWD; the
// async phase writes PATH.async).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/flowtime_scheduler.h"
#include "dag/generators.h"
#include "obs/metrics.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "runtime/concurrent_scheduler.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "workload/trace_gen.h"

using namespace flowtime;
using workload::ResourceVec;

namespace {

workload::JobSpec job(int tasks, double runtime_s) {
  workload::JobSpec spec;
  spec.name = "j";
  spec.num_tasks = tasks;
  spec.task.runtime_s = runtime_s;
  spec.task.demand = ResourceVec{1.0, 2.0};
  return spec;
}

int fail(const char* what) {
  std::fprintf(stderr, "trace_smoke: FAIL: %s\n", what);
  return 1;
}

// The documented event schema (DESIGN.md §8): required fields per type.
// Emitters may add optional fields (span metadata, per-resource columns,
// fault-kind specifics); removing or renaming a field listed here is a
// compatibility break for trace consumers and fails this test.
const std::map<std::string, std::vector<std::string>>& event_schema() {
  static const std::map<std::string, std::vector<std::string>> schema = {
      // -- lifecycle spans --------------------------------------------------
      {"span_begin", {"span", "parent", "kind", "name", "sim_s", "wall_s"}},
      {"span_end", {"span", "kind", "name", "sim_s", "wall_s"}},
      // -- simulator --------------------------------------------------------
      {"slot",
       {"scheduler", "slot", "now_s", "load_cpu", "load_mem_gb",
        "active_jobs", "ready_jobs", "completions"}},
      {"sim_run",
       {"scheduler", "slots", "jobs", "all_completed",
        "capacity_violations", "width_violations",
        "not_ready_allocations"}},
      // -- scheduler core ---------------------------------------------------
      {"workflow_arrival",
       {"workflow", "now_s", "jobs", "deadline_s", "decompose_status",
        "used_fallback", "min_makespan_s"}},
      {"replan",
       {"slot", "cause", "planned_jobs", "pivots", "wall_s",
        "late_extensions", "capacity_exceeded", "lp_failed",
        "lexmin_truncated", "unplanned_jobs", "max_normalized_load",
        "degrade_rung", "degrade_reason", "budget_exhausted",
        "degraded_mode"}},
      {"replan_discarded", {"slot", "cause", "epoch", "pivots", "preempted"}},
      {"solver_escalation",
       {"slot", "from_rung", "to_rung", "reason", "budget_pivots"}},
      {"degrade_enter", {"slot", "rung", "reason"}},
      {"degrade_exit", {"slot", "clean_replans"}},
      {"greedy_placement",
       {"jobs", "slots", "max_normalized_load", "capacity_exceeded"}},
      {"admission",
       {"op", "workflow", "now_s", "admitted", "peak_load", "reason"}},
      {"config_skew", {"component", "configured", "authoritative"}},
      {"deadline_risk",
       {"entity", "workflow", "level", "now_s", "deadline_s", "projected_s",
        "laxity_s"}},
      // -- LP layer ---------------------------------------------------------
      {"lexmin_solve",
       {"engine", "rows", "cols", "intervals", "loads", "status", "rounds",
        "pivots", "levels", "max_level", "truncated", "budget_exhausted",
        "wall_s"}},
      // -- fault injection --------------------------------------------------
      {"fault_injected", {"kind"}},  // per-kind fields differ by variant
      {"fault_lifted", {"kind", "slot", "now_s"}},
      {"fault_redecompose",
       {"workflow", "node", "now_s", "retry_at_s", "relaxed_windows"}},
      {"task_retry",
       {"slot", "now_s", "uid", "workflow", "node", "name", "retry"}},
      {"capacity_change", {"now_s"}},  // fault + admission variants
      // -- concurrent runtime causal chain ----------------------------------
      {"event_enqueued",
       {"trace", "event", "now_s", "wall_s", "trigger", "lane", "depth"}},
      {"event_dequeued", {"trace", "batch", "queue_wait_ms", "wall_s"}},
      {"batch_formed", {"batch", "events", "triggers", "lane", "wall_s"}},
      {"batch_planned", {"batch", "replan"}},
      {"solve_begin",
       {"replan", "slot", "epoch", "batches", "coalesce_ms", "lane",
        "wall_s"}},
      {"solve_done",
       {"replan", "pivots", "preempted", "solve_ms", "lane", "wall_s"}},
      {"plan_adopted",
       {"replan", "slot", "epoch", "pivots", "stale", "preempted",
        "queue_wait_ms", "coalesce_ms", "solve_ms", "adoption_lag_ms",
        "total_ms", "lane", "wall_s"}},
      {"plan_discarded",
       {"replan", "slot", "epoch", "pivots", "stale", "preempted",
        "queue_wait_ms", "coalesce_ms", "solve_ms", "adoption_lag_ms",
        "total_ms", "lane", "wall_s"}},
  };
  return schema;
}

// Validates one parsed line against the schema. Returns nullptr on
// success, a static description on failure (the caller prints the type).
const char* check_schema(const std::map<std::string, std::string>& fields) {
  const auto type_it = fields.find("type");
  if (type_it == fields.end()) return "event without type field";
  const auto schema_it = event_schema().find(type_it->second);
  if (schema_it == event_schema().end()) return "unknown event type";
  for (const std::string& key : schema_it->second) {
    if (!fields.count(key)) return "missing required field";
  }
  return nullptr;
}

bool load_trace(const std::string& path,
                std::vector<std::map<std::string, std::string>>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::map<std::string, std::string> fields;
    if (!obs::parse_flat_json(line, &fields)) return false;
    out->push_back(std::move(fields));
  }
  return true;
}

double num(const std::map<std::string, std::string>& fields,
           const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

workload::Scenario make_scenario() {
  // A 3-job chain with a runtime overrun so the run exercises arrival-,
  // deviation- and overrun-driven replans.
  workload::Scenario scenario;
  workload::Workflow w;
  w.id = 0;
  w.name = "smoke";
  w.start_s = 0.0;
  w.deadline_s = 2000.0;
  w.dag = dag::make_chain(3);
  w.jobs = {job(10, 40.0), job(20, 30.0), job(5, 60.0)};
  w.jobs[1].actual_runtime_factor = 1.2;
  scenario.workflows.push_back(std::move(w));
  return scenario;
}

// Phase 2: async (barrier-mode) run; the causal chain must balance by id.
int check_async_chain(const std::string& path,
                      const workload::ClusterSpec& cluster) {
  obs::testing::ScopedRegistryReset::reset();
  if (!obs::open_trace_file(path)) return fail("cannot open async trace");

  sim::SimConfig sim_config;
  sim_config.cluster = cluster;
  sim_config.max_horizon_s = 6000.0;
  runtime::RuntimeConfig rt;
  rt.flowtime.cluster = cluster;
  rt.barrier_mode = true;
  {
    runtime::ConcurrentScheduler scheduler(rt);
    sim::Simulator sim(sim_config);
    const sim::SimResult result = sim.run(make_scenario(), scheduler);
    if (!result.all_completed) return fail("async scenario did not complete");
  }  // destructor closes any leftover in-flight chain
  obs::clear_trace_sink();

  std::vector<std::map<std::string, std::string>> events;
  if (!load_trace(path, &events)) return fail("async trace unreadable");

  std::set<std::int64_t> enqueued, dequeued;
  std::set<std::int64_t> batches, planned_batches;
  std::set<std::int64_t> begun, done, terminal;
  int bad_stage_sums = 0;
  for (const auto& fields : events) {
    if (const char* err = check_schema(fields)) {
      std::fprintf(stderr, "trace_smoke: async: %s (%s)\n", err,
                   fields.count("type") ? fields.at("type").c_str() : "?");
      return fail("async schema violation");
    }
    const std::string& type = fields.at("type");
    const auto id = [&](const char* key) {
      return static_cast<std::int64_t>(num(fields, key));
    };
    if (type == "event_enqueued") {
      if (!enqueued.insert(id("trace")).second) {
        return fail("duplicate event trace id");
      }
    } else if (type == "event_dequeued") {
      dequeued.insert(id("trace"));
    } else if (type == "batch_formed") {
      if (!batches.insert(id("batch")).second) {
        return fail("duplicate batch id");
      }
    } else if (type == "batch_planned") {
      planned_batches.insert(id("batch"));
    } else if (type == "solve_begin") {
      if (!begun.insert(id("replan")).second) {
        return fail("duplicate solve_begin replan id");
      }
    } else if (type == "solve_done") {
      done.insert(id("replan"));
    } else if (type == "plan_adopted" || type == "plan_discarded") {
      if (!terminal.insert(id("replan")).second) {
        return fail("replan reached two terminals");
      }
      const double sum = num(fields, "queue_wait_ms") +
                         num(fields, "coalesce_ms") +
                         num(fields, "solve_ms") +
                         num(fields, "adoption_lag_ms");
      if (std::fabs(sum - num(fields, "total_ms")) > 1.0) ++bad_stage_sums;
    }
  }
  // Pairing is by id, never by line order: enqueue/dequeue lines race
  // between producer and serving threads in the sink.
  for (const std::int64_t id : dequeued) {
    if (!enqueued.count(id)) return fail("event_dequeued without enqueue");
  }
  for (const std::int64_t id : planned_batches) {
    if (!batches.count(id)) return fail("batch_planned without batch_formed");
  }
  if (begun != terminal) {
    return fail("solve_begin/terminal chains unbalanced");
  }
  for (const std::int64_t id : done) {
    if (!begun.count(id)) return fail("solve_done without solve_begin");
  }
  if (begun.empty()) return fail("async run produced no replan chains");
  if (bad_stage_sums > 0) {
    return fail("terminal stages do not sum to total_ms within 1 ms");
  }
  std::printf(
      "trace_smoke: async OK (%zu events: %zu queued, %zu batches, %zu "
      "replan chains all terminated; stages tile total_ms)\n",
      events.size(), enqueued.size(), batches.size(), begun.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string path = flags.get_string("trace-out", "trace_smoke.jsonl");

  if (!obs::open_trace_file(path)) return fail("cannot open trace file");

  workload::ClusterSpec cluster{ResourceVec{50.0, 100.0}, 10.0};
  workload::Scenario scenario = make_scenario();

  sim::SimConfig sim_config;
  sim_config.cluster = cluster;
  sim_config.max_horizon_s = 6000.0;
  core::FlowTimeConfig ft_config;
  ft_config.cluster = cluster;
  sim::Simulator sim(sim_config);
  core::FlowTimeScheduler scheduler(ft_config);
  const sim::SimResult result = sim.run(scenario, scheduler);
  obs::clear_trace_sink();  // flush before re-reading

  if (!result.all_completed) return fail("scenario did not complete");

  std::ifstream in(path);
  if (!in) return fail("trace file unreadable after run");
  int lines = 0, solves = 0, replans = 0, slots = 0;
  // Open spans by id -> (kind, begin sim_s); kinds seen over the whole run.
  std::map<std::string, std::pair<std::string, double>> open_spans;
  std::map<std::string, int> span_kinds;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    std::map<std::string, std::string> fields;
    if (!obs::parse_flat_json(line, &fields)) return fail("invalid JSONL line");
    if (const char* err = check_schema(fields)) {
      std::fprintf(stderr, "trace_smoke: %s (%s)\n", err,
                   fields.count("type") ? fields["type"].c_str() : "?");
      return fail("schema violation");
    }
    const std::string& type = fields["type"];
    if (type == "span_begin") {
      if (open_spans.count(fields["span"])) return fail("span id reused");
      open_spans[fields["span"]] = {fields["kind"],
                                    std::strtod(fields["sim_s"].c_str(),
                                                nullptr)};
      ++span_kinds[fields["kind"]];
    }
    if (type == "span_end") {
      const auto it = open_spans.find(fields["span"]);
      if (it == open_spans.end()) return fail("span_end without span_begin");
      if (it->second.first != fields["kind"]) {
        return fail("span_end kind mismatch");
      }
      const double end_s = std::strtod(fields["sim_s"].c_str(), nullptr);
      if (end_s + 1e-9 < it->second.second) {
        return fail("span timestamps not monotone");
      }
      open_spans.erase(it);
    }
    if (type == "lexmin_solve") ++solves;
    if (type == "replan") ++replans;
    if (type == "slot") ++slots;
  }
  if (solves < 1) return fail("no LP solve events");
  if (replans < 1) return fail("no replan events");
  if (slots < result.slots_simulated) {
    return fail("missing per-slot load records");
  }
  if (!open_spans.empty()) return fail("spans left open at end of run");
  if (span_kinds["workflow"] < 1) return fail("no workflow spans");
  if (span_kinds["job"] < 3) return fail("expected a span per chain job");
  if (span_kinds["placement"] < 1) return fail("no placement spans");
  if (span_kinds["plan"] < 1) return fail("no plan spans");
  int total_spans = 0;
  for (const auto& [kind, count] : span_kinds) {
    (void)kind;
    total_spans += count;
  }

  std::printf(
      "trace_smoke: OK (%d lines, all schema-valid: %d solves, %d replans, "
      "%d slot records, %d paired spans in %s)\n",
      lines, solves, replans, slots, total_spans, path.c_str());

  return check_async_chain(path + ".async", cluster);
}
