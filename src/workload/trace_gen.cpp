#include "workload/trace_gen.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <functional>
#include <utility>

#include "dag/generators.h"
#include "workload/profiles.h"

namespace flowtime::workload {

namespace {

// "adhoc-<id>", built in place (fits the small-string buffer).
std::string adhoc_name(int id) {
  char digits[16];
  const auto end = std::to_chars(digits, digits + sizeof(digits), id).ptr;
  std::string name = "adhoc-";
  name.append(digits, end);
  return name;
}

// Room for a Poisson stream's arrivals at the base rate, with margin.
std::size_t expected_arrivals(const AdhocGenConfig& config) {
  return static_cast<std::size_t>(
      std::max(0.0, 1.1 * config.rate_per_s * config.horizon_s) + 16.0);
}

// Picks a DAG shape with exactly `n` nodes from the scientific families the
// generators provide; falls back to a random layered DAG when a family
// cannot hit `n` exactly. Only the drawn shape is built: the deterministic
// families consume no randomness, so the candidate list holds builders.
dag::Dag sample_shape(util::Rng& rng, int n) {
  assert(n >= 3);
  std::vector<std::function<dag::Dag()>> options;
  options.reserve(5);
  options.emplace_back([n] { return dag::make_fork_join(n - 2); });
  // epigenomics: lanes x depth + 2 == n
  for (int lanes = 2; lanes <= 6; ++lanes) {
    if ((n - 2) % lanes == 0) {
      options.emplace_back([n, lanes] {
        return dag::make_epigenomics_like(lanes, (n - 2) / lanes);
      });
      break;
    }
  }
  if (n >= 5) {
    const int left = std::max(1, (n - 2) / 2);
    options.emplace_back(
        [n, left] { return dag::make_diamond(left, n - 2 - left); });
  }
  if (n % 2 == 1 && (n - 3) / 2 >= 2) {
    options.emplace_back([n] { return dag::make_montage_like((n - 3) / 2); });
  }
  if (n % 2 == 1 && (n - 5) / 2 >= 1) {
    options.emplace_back(
        [n] { return dag::make_cybershake_like((n - 5) / 2); });
  }
  // Note: the LIGO- and SIPHT-like generators exist (dag/generators.h) but
  // are deliberately NOT in this default pool — the benches' calibrated
  // seeds depend on the pool's draw sequence. Use them via custom
  // scenarios or your own sampler.
  // The random layered DAG is the pool's last entry (pick == size).
  const int layers = static_cast<int>(rng.uniform_int(3, 6));
  dag::Dag layered = dag::make_random_layered(rng, n, layers, 2 * n);
  const auto pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(options.size())));
  return pick < options.size() ? options[pick]() : std::move(layered);
}

}  // namespace

Workflow make_workflow(util::Rng& rng, int id, double start_s,
                       const WorkflowGenConfig& config) {
  Workflow w;
  w.id = id;
  w.name = "workflow-" + std::to_string(id);
  w.start_s = start_s;
  w.dag = sample_shape(rng, config.num_jobs);
  w.jobs.reserve(static_cast<std::size_t>(w.dag.num_nodes()));
  for (int v = 0; v < w.dag.num_nodes(); ++v) {
    JobSpec job = sample_any_job(rng);
    job.num_tasks *= std::max(1, config.task_multiplier);
    w.jobs.push_back(std::move(job));
  }
  const double makespan = w.min_makespan_s(config.cluster.capacity);
  const double looseness =
      rng.uniform_real(config.looseness_min, config.looseness_max);
  w.deadline_s = start_s + looseness * makespan;
  assert(w.valid());
  return w;
}

std::vector<AdhocJob> make_adhoc_stream(util::Rng& rng,
                                        const AdhocGenConfig& config) {
  std::vector<AdhocJob> jobs;
  jobs.reserve(expected_arrivals(config));
  double now = 0.0;
  int id = 0;
  while (true) {
    now += rng.exponential(config.rate_per_s);
    if (now >= config.horizon_s) break;
    AdhocJob job;
    job.id = id++;
    job.arrival_s = now;
    job.spec.name = adhoc_name(job.id);
    job.spec.num_tasks =
        static_cast<int>(rng.uniform_int(config.min_tasks, config.max_tasks));
    job.spec.task.runtime_s = rng.uniform_real(config.min_task_runtime_s,
                                               config.max_task_runtime_s);
    job.spec.task.demand = config.task_demand;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

Scenario make_fig4_scenario(std::uint64_t seed, const Fig4Config& config) {
  util::Rng rng(seed);
  Scenario scenario;
  scenario.workflows.reserve(static_cast<std::size_t>(config.num_workflows));
  WorkflowGenConfig wf = config.workflow;
  wf.num_jobs = config.jobs_per_workflow;
  for (int i = 0; i < config.num_workflows; ++i) {
    const double start =
        config.num_workflows <= 1
            ? 0.0
            : config.workflow_start_spread_s * i /
                  (config.num_workflows - 1);
    scenario.workflows.push_back(make_workflow(rng, i, start, wf));
  }
  scenario.adhoc_jobs = make_adhoc_stream(rng, config.adhoc);
  return scenario;
}

Scenario make_recurring_trace(std::uint64_t seed,
                              const RecurringTraceConfig& config) {
  util::Rng rng(seed);
  Scenario scenario;
  int id = 0;
  for (int t = 0; t < config.num_templates; ++t) {
    // The template fixes DAG and job sizes; each recurrence re-releases it.
    const Workflow prototype = make_workflow(rng, 0, 0.0, config.workflow);
    const double relative_deadline = prototype.deadline_s;
    for (int k = 0; k < config.recurrences; ++k) {
      Workflow instance = prototype;
      instance.id = id++;
      instance.name =
          "template-" + std::to_string(t) + "-run-" + std::to_string(k);
      instance.start_s = k * config.period_s +
                         rng.uniform_real(0.0, 0.1 * config.period_s);
      instance.deadline_s = instance.start_s + relative_deadline;
      scenario.workflows.push_back(std::move(instance));
    }
  }
  AdhocGenConfig adhoc = config.adhoc;
  adhoc.horizon_s = config.recurrences * config.period_s;
  scenario.adhoc_jobs = make_adhoc_stream(rng, adhoc);
  return scenario;
}

namespace {

constexpr double kTwoPi = 6.283185307179586;

/// Diurnal intensity multiplier at time t, in [1 - amp, 1 + amp].
double diurnal_factor(double t, double amplitude, double period_s,
                      double phase_s) {
  if (amplitude <= 0.0 || period_s <= 0.0) return 1.0;
  return 1.0 + amplitude * std::sin(kTwoPi * (t - phase_s) / period_s);
}

/// One heavy-tailed task runtime draw, clamped to the config's bounds.
double sample_task_runtime(util::Rng& rng,
                           const ProductionAdhocConfig& config) {
  const AdhocGenConfig& base = config.base;
  double runtime = 0.0;
  switch (config.runtime_tail) {
    case RuntimeTail::kUniform:
      return rng.uniform_real(base.min_task_runtime_s,
                              base.max_task_runtime_s);
    case RuntimeTail::kLognormal: {
      // Median pinned at the uniform range's midpoint so the tail family is
      // swappable without re-tuning the base rate.
      const double median =
          0.5 * (base.min_task_runtime_s + base.max_task_runtime_s);
      runtime = rng.lognormal(std::log(std::max(median, 1e-9)),
                              config.lognormal_sigma);
      break;
    }
    case RuntimeTail::kPareto: {
      // Inverse-CDF Pareto: xm * (1 - u)^(-1/alpha).
      const double u = rng.uniform_real(0.0, 1.0);
      runtime = config.pareto_xm_s *
                std::pow(1.0 - std::min(u, 1.0 - 1e-12),
                         -1.0 / std::max(config.pareto_alpha, 1e-6));
      break;
    }
  }
  return std::clamp(runtime, base.min_task_runtime_s,
                    config.max_task_runtime_cap_s);
}

}  // namespace

std::vector<AdhocJob> make_production_adhoc_stream(
    util::Rng& rng, const ProductionAdhocConfig& config) {
  const AdhocGenConfig& base = config.base;
  // Flash-crowd windows, placed before the arrival loop so the whole stream
  // is a deterministic function of the seed.
  std::vector<std::pair<double, double>> flashes;
  for (int i = 0; i < config.flash_crowds; ++i) {
    const double start = rng.uniform_real(
        0.0, std::max(base.horizon_s - config.flash_duration_s, 0.0));
    flashes.emplace_back(start, start + config.flash_duration_s);
  }
  const auto rate_at = [&](double t) {
    double rate = base.rate_per_s *
                  diurnal_factor(t, config.diurnal_amplitude,
                                 config.diurnal_period_s,
                                 config.diurnal_phase_s);
    for (const auto& [start, end] : flashes) {
      if (t >= start && t < end) {
        rate *= config.flash_multiplier;
        break;
      }
    }
    return std::max(rate, 0.0);
  };
  double peak = base.rate_per_s * (1.0 + std::max(config.diurnal_amplitude,
                                                  0.0));
  if (!flashes.empty()) peak *= std::max(config.flash_multiplier, 1.0);
  if (peak <= 0.0) return {};

  // Lewis–Shedler thinning against the constant peak rate. Outside flash
  // windows the rate never exceeds base * (1 + amplitude), so a draw above
  // that is rejected without evaluating the sinusoid.
  const double calm_peak =
      base.rate_per_s * (1.0 + std::max(config.diurnal_amplitude, 0.0));
  const auto in_flash = [&](double t) {
    return std::any_of(flashes.begin(), flashes.end(), [t](const auto& f) {
      return t >= f.first && t < f.second;
    });
  };
  std::vector<AdhocJob> jobs;
  double now = 0.0;
  int id = 0;
  while (true) {
    now += rng.exponential(peak);
    if (now >= base.horizon_s) break;
    const double draw = rng.uniform_real(0.0, 1.0) * peak;
    if (draw > calm_peak && !in_flash(now)) continue;
    if (draw > rate_at(now)) continue;
    AdhocJob job;
    job.id = id++;
    job.arrival_s = now;
    job.spec.name = adhoc_name(job.id);
    job.spec.num_tasks =
        static_cast<int>(rng.uniform_int(base.min_tasks, base.max_tasks));
    job.spec.task.runtime_s = sample_task_runtime(rng, config);
    job.spec.task.demand = base.task_demand;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

Scenario make_production_scenario(std::uint64_t seed,
                                  const ProductionScenarioConfig& config) {
  util::Rng rng(seed);
  Scenario scenario;
  scenario.workflows.reserve(static_cast<std::size_t>(config.num_workflows));
  // Workflow releases rejection-sampled against the diurnal sinusoid: draw
  // a uniform time, accept with probability rate(t)/peak, retry otherwise.
  const double peak = 1.0 + std::max(config.diurnal_amplitude, 0.0);
  std::vector<double> starts;
  starts.reserve(static_cast<std::size_t>(config.num_workflows));
  for (int i = 0; i < config.num_workflows; ++i) {
    double t = 0.0;
    do {
      t = rng.uniform_real(0.0, config.horizon_s);
    } while (rng.uniform_real(0.0, peak) >
             diurnal_factor(t, config.diurnal_amplitude,
                            config.diurnal_period_s,
                            config.diurnal_phase_s));
    starts.push_back(t);
  }
  std::sort(starts.begin(), starts.end());
  for (int i = 0; i < config.num_workflows; ++i) {
    Workflow w = make_workflow(rng, i, starts[static_cast<std::size_t>(i)],
                               config.workflow);
    if (config.num_tenants > 1) {
      w.tenant = static_cast<int>(rng.uniform_int(0, config.num_tenants - 1));
    }
    scenario.workflows.push_back(std::move(w));
  }
  ProductionAdhocConfig adhoc = config.adhoc;
  adhoc.base.horizon_s = config.horizon_s;
  scenario.adhoc_jobs = make_production_adhoc_stream(rng, adhoc);
  return scenario;
}

}  // namespace flowtime::workload
