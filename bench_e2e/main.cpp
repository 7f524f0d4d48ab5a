// bench_e2e: the end-to-end FlowTime benchmark binary.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//
// --trace 0 replays the workload's scenario set at least twice, and again
// while the next replay ends within S seconds, and reports the end-to-end
// metrics from each scenario's fastest replay. --trace 1 replays the set
// once untraced and once traced (in-memory spans plus the obs registry)
// and reports the per-layer metrics. Both check the correctness gate and
// print one JSON result as the last line of stdout; any gate failure exits
// non-zero. run.py builds this binary and is the usual entry point.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "obs/deadline_monitor.h"
#include "obs/metrics.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/stats.h"

namespace {

using bench::Clock;
namespace obs = flowtime::obs;
namespace util = flowtime::util;

// Set-up is short, so it is repeated to this many samples and the median
// reported.
constexpr std::size_t kSetupSamples = 9;
// Replays of the set in an end-to-end run, at least; more while time lasts.
constexpr int kMinPasses = 2;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // human table only
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string samples_note(std::size_t n) {
  return std::to_string(n) + " samples";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return std::strcmp(BENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

// Totals of one set's outcomes.
struct Totals {
  int deadline_jobs = 0;
  int adhoc_jobs = 0;
  int deadline_misses = 0;
  int workflow_misses = 0;
  int jobs_incomplete = 0;
  int adhoc_incomplete = 0;
  int violations = 0;
  int replans = 0;
  std::int64_t pivots = 0;
  int truncated = 0;
  int degraded = 0;
  int flow_fast_path = 0;
  std::int64_t lp_jobs = 0;
  int migrations = 0;
  int failovers = 0;
  int quarantines = 0;
  bool accounting_ok = true;
  std::vector<double> turnarounds_s;
};

Totals totals_of(const std::vector<bench::Outcome>& outcomes) {
  Totals t;
  for (const bench::Outcome& o : outcomes) {
    t.deadline_jobs += o.deadline_jobs;
    t.adhoc_jobs += o.adhoc_jobs;
    t.deadline_misses += o.deadline_misses;
    t.workflow_misses += o.workflow_misses;
    t.jobs_incomplete += o.jobs_incomplete;
    t.adhoc_incomplete +=
        o.adhoc_jobs - static_cast<int>(o.adhoc_turnarounds_s.size());
    t.violations +=
        o.capacity_violations + o.width_violations + o.not_ready_allocations;
    t.replans += o.replans;
    t.pivots += o.pivots;
    t.truncated += o.truncated_replans;
    t.degraded += o.degraded_replans;
    t.flow_fast_path += o.flow_fast_path_replans;
    t.lp_jobs += o.lp_jobs;
    t.migrations += o.migrations;
    t.failovers += o.failovers;
    t.quarantines += o.quarantines;
    t.accounting_ok = t.accounting_ok && o.accounting_ok;
    t.turnarounds_s.insert(t.turnarounds_s.end(), o.adhoc_turnarounds_s.begin(),
                           o.adhoc_turnarounds_s.end());
  }
  return t;
}

// Host timings pooled over one replay of each scenario.
struct Timings {
  double run_s = 0.0;
  double scheduler_s = 0.0;
  std::vector<double> slot_ms;
  std::vector<double> replan_ms;
  std::int64_t slots = 0;
  std::int64_t job_slots = 0;
  std::int64_t events = 0;
};

Timings timings_of(const std::vector<bench::Outcome>& outcomes) {
  Timings t;
  for (const bench::Outcome& o : outcomes) {
    t.run_s += o.run_s;
    t.scheduler_s += o.scheduler_s;
    t.slot_ms.insert(t.slot_ms.end(), o.slot_ms.begin(), o.slot_ms.end());
    t.replan_ms.insert(t.replan_ms.end(), o.replan_ms.begin(),
                       o.replan_ms.end());
    t.slots += o.slots;
    t.job_slots += o.job_slots;
    t.events += o.events;
  }
  return t;
}

bool reproduces(const std::vector<bench::Outcome>& a,
                const std::vector<bench::Outcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].reproduces(b[i])) return false;
  }
  return true;
}

// One line identifying the generated inputs: a digest over every
// scenario's fingerprint, so identical inputs show across commits.
void print_inputs(const bench::WorkloadSpec& spec, std::uint64_t seed,
                  const std::vector<bench::Outcome>& outcomes,
                  const Totals& t) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const bench::Outcome& o : outcomes) {
    digest = (digest ^ o.fingerprint) * 0x100000001b3ULL;
  }
  std::printf(
      "# inputs %s seed=%llu scenarios=%zu fingerprint=%016llx "
      "deadline_jobs=%d adhoc_jobs=%d replans=%d pivots=%lld\n",
      spec.name.c_str(), static_cast<unsigned long long>(seed),
      outcomes.size(), static_cast<unsigned long long>(digest),
      t.deadline_jobs, t.adhoc_jobs, t.replans,
      static_cast<long long>(t.pivots));
}

void print_result(bool correct, const Totals& t,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& table_only) {
  std::printf("# %-34s %18s  %-6s %s\n", "metric", "value", "unit", "");
  for (const auto* list : {&metrics, &table_only}) {
    for (const Metric& m : *list) {
      std::printf("# %-34s %18.6f  %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  // A job fails when it never completes; a late deadline job is a quality
  // outcome, counted in deadline_misses and the failure share.
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", t.deadline_jobs + t.adhoc_jobs,
              t.jobs_incomplete);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Latencies too sensitive to the seed or to co-tenant load to gate on, plus
// the quality counts, which may legitimately be zero. Printed in
// the table only; run.py --trace 1 reports the latencies per layer.
std::vector<Metric> table_only(const Totals& t,
                               const std::vector<double>& replan_ms,
                               const std::vector<double>& slot_ms) {
  const int attempted = t.deadline_jobs + t.adhoc_jobs;
  return {
      {"slot_ms_p50", util::quantile(slot_ms, 0.50), "ms",
       samples_note(slot_ms.size())},
      {"replan_ms_p50", util::quantile(replan_ms, 0.50), "ms",
       samples_note(replan_ms.size())},
      {"replan_ms_p90", util::quantile(replan_ms, 0.90), "ms",
       samples_note(replan_ms.size())},
      {"slot_ms_p99", util::quantile(slot_ms, 0.99), "ms",
       samples_note(slot_ms.size())},
      {"deadline_misses", static_cast<double>(t.deadline_misses), "jobs",
       "of " + std::to_string(t.deadline_jobs) + " deadline jobs"},
      {"workflow_misses", static_cast<double>(t.workflow_misses), "wfs", ""},
      {"jobs_incomplete", static_cast<double>(t.jobs_incomplete), "jobs",
       "at the horizon"},
      {"failure_share",
       attempted > 0 ? static_cast<double>(t.deadline_misses +
                                           t.adhoc_incomplete) /
                           attempted
                     : 0.0,
       "ratio", "(late deadline jobs + unfinished jobs) / jobs submitted"},
  };
}

bool gate_ok(const Totals& t) {
  bool ok = true;
  if (t.violations != 0) {
    std::fprintf(stderr, "gate: %d capacity/width/not-ready violations\n",
                 t.violations);
    ok = false;
  }
  if (!t.accounting_ok) {
    std::fprintf(stderr, "gate: job accounting does not add up\n");
    ok = false;
  }
  return ok;
}

int run_end_to_end(const bench::WorkloadSpec& spec, std::uint64_t seed,
                   double seconds) {
  const Clock::time_point start = Clock::now();
  const auto elapsed_s = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // Per scenario, its fastest replay. Shared hosts slow down by up to half
  // for seconds at a time (co-tenant load, clock changes); a scenario
  // replayed twice is rarely caught by such a burst both times.
  std::vector<bench::Outcome> fastest;
  std::vector<double> setups;
  bool reproducible = true;
  int passes = 0;
  double pass_s = 0.0;
  do {
    const double pass_start_s = elapsed_s();
    bench::SetResult set = bench::run_set(spec, seed, nullptr);
    setups.push_back(set.setup_s);
    if (++passes == 1) {
      fastest = std::move(set.outcomes);
    } else {
      if (!reproduces(fastest, set.outcomes)) {
        std::fprintf(stderr, "gate: replay %d differs from the first\n",
                     passes);
        reproducible = false;
      }
      for (std::size_t k = 0; k < fastest.size(); ++k) {
        if (set.outcomes[k].run_s < fastest[k].run_s) {
          fastest[k] = std::move(set.outcomes[k]);
        }
      }
    }
    pass_s = elapsed_s() - pass_start_s;
  } while (passes < kMinPasses || elapsed_s() + pass_s <= seconds);
  while (setups.size() < kSetupSamples) {
    setups.push_back(bench::time_setup(spec, seed));
  }

  const Totals t = totals_of(fastest);
  print_inputs(spec, seed, fastest, t);
  const Timings time = timings_of(fastest);
  const bool correct = gate_ok(t) && reproducible;
  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s", samples_note(setups.size())},
      {"run_s", time.run_s, "s", std::to_string(passes) + " replays"},
      {"peak_rss_mb", peak_rss_mb(), "MB", ""},
      {"adhoc_turnaround_s_mean", util::mean(t.turnarounds_s), "sim_s",
       samples_note(t.turnarounds_s.size())},
      {"adhoc_turnaround_s_p95", util::quantile(t.turnarounds_s, 0.95),
       "sim_s", samples_note(t.turnarounds_s.size())},
  };
  print_result(correct, t, metrics,
               table_only(t, time.replan_ms, time.slot_ms));
  return correct ? 0 : 1;
}

double registry_sum(const char* histogram) {
  return obs::registry().histogram(histogram).sum();
}

double registry_count(const char* counter) {
  return static_cast<double>(obs::registry().counter(counter).value());
}

int run_traced(const bench::WorkloadSpec& spec, std::uint64_t seed,
               const std::string& spans_out) {
  const bench::SetResult plain = bench::run_set(spec, seed, nullptr);

  obs::registry().reset();
  obs::deadline_monitor().reset();
  obs::set_enabled(true);
  bench::SpanRecorder spans;
  const bench::SetResult traced = bench::run_set(spec, seed, &spans);
  obs::set_enabled(false);

  const Totals t = totals_of(plain.outcomes);
  print_inputs(spec, seed, plain.outcomes, t);
  const Totals tt = totals_of(traced.outcomes);
  const Timings pt = timings_of(plain.outcomes);
  const Timings tr = timings_of(traced.outcomes);
  bool correct = gate_ok(t) && gate_ok(tt);
  if (!reproduces(plain.outcomes, traced.outcomes)) {
    std::fprintf(stderr,
                 "gate: the traced run did not reproduce the untraced plans "
                 "(replans %d vs %d, pivots %lld vs %lld)\n",
                 t.replans, tt.replans, static_cast<long long>(t.pivots),
                 static_cast<long long>(tt.pivots));
    correct = false;
  }
  if (!spans_out.empty() && !spans.write_jsonl(spans_out)) {
    std::fprintf(stderr, "error: cannot write spans to %s\n",
                 spans_out.c_str());
    correct = false;
  }

  std::map<std::string, double> self = spans.self_seconds();
  std::map<std::string, std::int64_t> calls = spans.calls();
  const auto self_ms = [&](const char* name) { return self[name] * 1e3; };
  const auto count = [&](const char* name) {
    return static_cast<double>(calls[name]);
  };
  const double round_ms = traced.round_wall_s * 1e3;
  const double solve_ms = spec.federated ? round_ms : self_ms("lp.solve");
  const double solve_calls =
      spec.federated ? static_cast<double>(tt.replans) : count("lp.solve");
  const double warm = registry_count("lp.simplex.warm_starts");
  const double fallbacks = registry_count("lp.simplex.warm_start_fallbacks");
  const auto per = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };

  const std::vector<Metric> metrics = {
      {"replan_ms_p50", util::quantile(pt.replan_ms, 0.50), "ms", ""},
      {"replan_ms_p90", util::quantile(pt.replan_ms, 0.90), "ms", ""},
      {"replan_ms.samples", static_cast<double>(pt.replan_ms.size()),
       "count", ""},
      {"slot_ms_p50", util::quantile(pt.slot_ms, 0.50), "ms", ""},
      {"slot_ms_p99", util::quantile(pt.slot_ms, 0.99), "ms", ""},
      {"sim.self_s", pt.run_s - pt.scheduler_s, "s", ""},
      {"sim.slots", static_cast<double>(tr.slots), "count", ""},
      {"sim.job_slots", static_cast<double>(tr.job_slots), "count", ""},
      {"sim.events", static_cast<double>(tr.events), "count", ""},
      {"core.arrival.self_ms", self_ms("core.arrival"), "ms", ""},
      {"core.arrival.calls", count("core.arrival"), "count", ""},
      {"core.event.self_ms", self_ms("core.event"), "ms", ""},
      {"core.sync_views.self_ms", self_ms("core.sync_views"), "ms", ""},
      {"core.begin_replan.self_ms", self_ms("core.begin_replan"), "ms", ""},
      {"core.finish_replan.self_ms", self_ms("core.finish_replan"), "ms", ""},
      {"core.serve.self_ms", self_ms("core.serve"), "ms", ""},
      {"core.lp_jobs_mean", per(static_cast<double>(tt.lp_jobs), tt.replans),
       "jobs", ""},
      {"lp.solve.self_ms", solve_ms, "ms", ""},
      {"lp.solve.calls", solve_calls, "count", ""},
      {"lp.pivots", static_cast<double>(tt.pivots), "count", ""},
      {"lp.truncated_replans", static_cast<double>(tt.truncated), "count", ""},
      {"lp.flow_fast_path_replans", static_cast<double>(tt.flow_fast_path),
       "count", ""},
      {"lp.degraded_replans", static_cast<double>(tt.degraded), "count", ""},
      {"lp.lexmin.rounds", registry_count("lp.lexmin.rounds"), "count", ""},
      {"lp.simplex.warm_starts", warm, "count", ""},
      {"lp.simplex.warm_start_fallbacks", fallbacks, "count", ""},
      {"lp.warm_hit_ratio", per(warm, warm + fallbacks), "ratio", ""},
      {"lp.profile.pricing_s", registry_sum("lp.profile.pricing_seconds"),
       "s", ""},
      {"lp.profile.ratio_test_s",
       registry_sum("lp.profile.ratio_test_seconds"), "s", ""},
      {"lp.profile.basis_update_s",
       registry_sum("lp.profile.basis_update_seconds"), "s", ""},
      {"lp.profile.refactor_s", registry_sum("lp.profile.refactor_seconds"),
       "s", ""},
      {"cluster.arrival.self_ms", self_ms("cluster.arrival"), "ms", ""},
      {"cluster.arrival.calls", count("cluster.arrival"), "count", ""},
      {"cluster.event.self_ms", self_ms("cluster.event"), "ms", ""},
      {"cluster.allocate.self_ms",
       spec.federated ? self_ms("cluster.allocate") - round_ms : 0.0, "ms",
       ""},
      {"cluster.replan_rounds",
       spec.federated ? static_cast<double>(tr.replan_ms.size()) : 0.0,
       "count", ""},
      {"cluster.migrations", static_cast<double>(tt.migrations), "count", ""},
      {"cluster.failovers", static_cast<double>(tt.failovers), "count", ""},
      {"cluster.quarantines", static_cast<double>(tt.quarantines), "count",
       ""},
      {"core.admission.evaluations",
       registry_count("core.admission.evaluations"), "count", ""},
      {"obs.overhead_pct", (per(tr.run_s, pt.run_s) - 1.0) * 100.0,
       "%", ""},
  };
  std::printf(
      "# untraced run_s %.4f s: sim.self %.1f%%; traced run_s %.4f s: "
      "lp.solve %.1f%%\n",
      pt.run_s, per(pt.run_s - pt.scheduler_s, pt.run_s) * 100.0, tr.run_s,
      per(solve_ms * 1e-3, tr.run_s) * 100.0);
  print_result(correct, t, metrics, {});
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    const std::string name = flags.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", -1));
    const double seconds = flags.get_double("seconds", 10.0);
    const std::int64_t trace = flags.get_int("trace", 0);
    const std::string spans_out = flags.get_string("spans-out", "");
    for (const std::string& unknown : flags.unqueried()) {
      std::fprintf(stderr, "error: unknown flag --%s\n", unknown.c_str());
      return 2;
    }
    const bench::WorkloadSpec* spec = bench::find_workload(name);
    if (spec == nullptr || !flags.has("seed") || (trace != 0 && trace != 1)) {
      std::fprintf(stderr,
                   "usage: bench_e2e --workload fig4_noisy|adhoc_flood|"
                   "fed_failover --seed N --seconds S --trace 0|1 "
                   "[--spans-out PATH]\n");
      return 2;
    }
    std::printf("# bench_e2e workload=%s seed=%llu build=%s flags=\"%s\" "
                "compiler=\"%s\" nproc=%u\n",
                spec->name.c_str(), static_cast<unsigned long long>(seed),
                BENCH_BUILD_TYPE, BENCH_CXX_FLAGS, BENCH_COMPILER,
                std::thread::hardware_concurrency());
    if (!optimized_build()) {
      std::fprintf(stderr,
                   "error: refusing to report numbers from a non-Release "
                   "(unoptimized) build\n");
      return 3;
    }
    // Expected plan-quality conditions (lexmin truncation) log one WARN per
    // replan; the counts are reported as metrics instead.
    util::set_log_level(util::LogLevel::kError);
    return trace == 1 ? run_traced(*spec, seed, spans_out)
                      : run_end_to_end(*spec, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
