// Simplex-vs-flow lexmin benchmark (DESIGN.md §5 item 9).
//
// Runs the scheduler's steady-state workload — a re-plan sequence over one
// Fig.7-style job set whose demands shrink step to step — once through the
// test-only sparse revised simplex and once through the exact flow lexmin
// (core/flow_placement.h), the solver solve_placement runs on every
// resource. The simplex row ("sparse_lu", lexmin capped at --rounds) solves
// the same per-resource transportation LPs through
// lp::solve_placement_simplex (tests/support/lp), with each resource's
// final basis carried across steps. The flow row ("flow_fast_path")
// refines every level. Per row it reports the solver work (simplex
// pivots, or augmenting paths for the flow row), the deepest lexmin it
// refined (levels_refined), and the phase-level wall
// clock from lp/solve_profile (pricing, ratio test, basis update,
// refactorization), whose sum is the simplex pivot-loop wall time.
//
// Output is one JSON document (default BENCH_lp_sparse.json, committed to
// the repo so the numbers travel with the code). Regenerate with:
//   ./build/bench/bench_lp_sparse --out BENCH_lp_sparse.json
// The committed file is schema-checked by the bench_lp_sparse_schema ctest
// target (--check mode); bench_lp_sparse_smoke regenerates a small instance.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/lp_formulation.h"
#include "lp/placement_simplex.h"
#include "lp/solve_profile.h"
#include "obs/metrics.h"
#include "sim/report.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace flowtime;
using workload::ResourceVec;

struct EngineRow {
  std::string engine;
  std::int64_t pivots = 0;
  std::int64_t refactorizations = 0;
  double pricing_s = 0.0;
  double ratio_test_s = 0.0;
  double basis_update_s = 0.0;
  double refactor_s = 0.0;
  double pivot_wall_s = 0.0;  // sum of the four phases
  double total_wall_s = 0.0;  // whole sequence, build + extract included
  double max_normalized_load = 0.0;
  int levels_refined = 0;  // most lexmin rounds (flow: levels) of any step
  bool flow_fast_path = false;
};

std::vector<core::LpJob> make_jobs(int n, int slots) {
  util::Rng rng(static_cast<std::uint64_t>(n));
  std::vector<core::LpJob> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::LpJob job;
    job.uid = i;
    job.release_slot = static_cast<int>(rng.uniform_int(0, slots / 2));
    job.deadline_slot =
        job.release_slot + static_cast<int>(rng.uniform_int(10, slots / 2));
    job.deadline_slot = std::min(job.deadline_slot, slots - 1);
    const int tasks = static_cast<int>(rng.uniform_int(20, 120));
    const double runtime = rng.uniform_real(30.0, 90.0);
    job.demand = ResourceVec{tasks * runtime, tasks * runtime * 2.5};
    job.width = ResourceVec{tasks * 10.0, tasks * 25.0};
    jobs.push_back(job);
  }
  return jobs;
}

std::vector<core::LpJob> jobs_at_step(const std::vector<core::LpJob>& jobs,
                                      int step) {
  std::vector<core::LpJob> out = jobs;
  const double scale = 1.0 - 0.07 * step;
  for (core::LpJob& job : out) job.demand = workload::scale(job.demand, scale);
  return out;
}

using Solver =
    std::function<core::LpSchedule(const std::vector<core::LpJob>&)>;

EngineRow run_sequence(const std::string& label,
                       const std::vector<core::LpJob>& jobs, int steps,
                       const Solver& solve) {
  EngineRow row;
  row.engine = label;
  lp::ScopedSolveProfile profile("bench_lp_sparse");
  double total_wall = 0.0;
  {
    obs::ScopedTimer timer(&total_wall);
    for (int step = 0; step < steps; ++step) {
      const core::LpSchedule schedule = solve(jobs_at_step(jobs, step));
      if (!schedule.ok()) {
        std::fprintf(stderr, "error: %s solve failed at step %d\n",
                     label.c_str(), step);
        std::exit(1);
      }
      row.pivots += schedule.pivots;
      row.max_normalized_load =
          std::max(row.max_normalized_load, schedule.max_normalized_load);
      row.levels_refined =
          std::max(row.levels_refined, schedule.lexmin_rounds);
      row.flow_fast_path = row.flow_fast_path || schedule.flow_fast_path;
    }
  }
  const lp::SolveProfile& p = profile.profile();
  row.refactorizations = p.refactorizations;
  row.pricing_s = p.pricing_s;
  row.ratio_test_s = p.ratio_test_s;
  row.basis_update_s = p.basis_update_s;
  row.refactor_s = p.refactor_s;
  row.pivot_wall_s = p.phase_total_s();
  row.total_wall_s = total_wall;
  return row;
}

std::string render_json(const std::vector<EngineRow>& rows, int jobs,
                        int slots, int steps, int rounds) {
  std::string out = "{\n";
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "  \"benchmark\": \"lp_sparse\",\n"
                "  \"jobs\": %d,\n"
                "  \"slots\": %d,\n"
                "  \"replan_steps\": %d,\n"
                "  \"lexmin_rounds\": %d,\n"
                "  \"engines\": [\n",
                jobs, slots, steps, rounds);
  out += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& r = rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\n"
        "      \"engine\": \"%s\",\n"
        "      \"pivots\": %lld,\n"
        "      \"refactorizations\": %lld,\n"
        "      \"pricing_s\": %.6f,\n"
        "      \"ratio_test_s\": %.6f,\n"
        "      \"basis_update_s\": %.6f,\n"
        "      \"refactor_s\": %.6f,\n"
        "      \"pivot_wall_s\": %.6f,\n"
        "      \"total_wall_s\": %.6f,\n"
        "      \"max_normalized_load\": %.6f,\n"
        "      \"levels_refined\": %d,\n"
        "      \"flow_fast_path\": %s\n"
        "    }%s\n",
        r.engine.c_str(), static_cast<long long>(r.pivots),
        static_cast<long long>(r.refactorizations), r.pricing_s,
        r.ratio_test_s, r.basis_update_s, r.refactor_s, r.pivot_wall_s,
        r.total_wall_s, r.max_normalized_load, r.levels_refined,
        r.flow_fast_path ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

// Schema check over a committed JSON file: every required key must appear
// (value syntax is snprintf-controlled, so key presence is the contract),
// and both the simplex row and the flow row must be present.
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
      "\"benchmark\": \"lp_sparse\"", "\"jobs\":",           "\"slots\":",
      "\"replan_steps\":",            "\"lexmin_rounds\":",  "\"engines\":",
      "\"engine\": \"sparse_lu\"",    "\"engine\": \"flow_fast_path\"",
      "\"pivots\":",                  "\"refactorizations\":",
      "\"pricing_s\":",               "\"ratio_test_s\":",
      "\"basis_update_s\":",          "\"refactor_s\":",     "\"pivot_wall_s\":",
      "\"total_wall_s\":",            "\"max_normalized_load\":",
      "\"levels_refined\":",          "\"flow_fast_path\": true"};
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
  const std::string out_path = flags.get_string("out", "BENCH_lp_sparse.json");
  const int jobs_n = static_cast<int>(flags.get_double("jobs", 1000.0));
  const int slots = static_cast<int>(flags.get_double("slots", 100.0));
  const int steps = static_cast<int>(flags.get_double("steps", 3.0));
  const int rounds = static_cast<int>(flags.get_double("rounds", 3.0));
  if (!check_path.empty()) return check_schema(check_path);
  obs::set_enabled(true);  // phase timers live behind the obs switch

  // Paper-scale capacities (500 cores / 1 TB, 10 s slots) stretched so the
  // bigger job counts stay feasible at a sub-1.0 peak level.
  const double cap_scale = std::max(1.0, jobs_n / 100.0);
  const std::vector<ResourceVec> caps(
      static_cast<std::size_t>(slots),
      ResourceVec{5000.0 * cap_scale, 10240.0 * cap_scale});
  const std::vector<core::LpJob> jobs = make_jobs(jobs_n, slots);

  std::vector<EngineRow> rows;
  lp::LexMinMaxOptions options;
  options.max_rounds = rounds;
  lp::ResourceBases bases;
  rows.push_back(run_sequence(
      "sparse_lu", jobs, steps,
      [&](const std::vector<core::LpJob>& step_jobs) {
        return lp::solve_placement_simplex(step_jobs, caps, 0, options,
                                           &bases);
      }));
  // The flow row is the exact lexmin: every level, whatever --rounds says;
  // its pivots are augmenting paths.
  rows.push_back(run_sequence(
      "flow_fast_path", jobs, steps,
      [&](const std::vector<core::LpJob>& step_jobs) {
        return core::solve_placement(step_jobs, caps, 0);
      }));

  const std::string json = render_json(rows, jobs_n, slots, steps, rounds);
  if (!sim::write_file(out_path, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s", json.c_str());
  std::printf("Written to %s\n", out_path.c_str());
  return 0;
}
