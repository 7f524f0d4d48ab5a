#include "harness.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

namespace bench {

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Wraps the scheduler under test. Every simulator call passes through
/// here: the call is timed (and, when traced, recorded as a span) and
/// forwarded unchanged, so the run is the program's own.
class MeasuredScheduler final : public sim::Scheduler {
 public:
  MeasuredScheduler(sim::Scheduler& inner, std::function<int()> replans,
                    bool federated, double slot_seconds, SpanRecorder* spans,
                    core::FlowTimeScheduler* split, Outcome& out)
      : inner_(inner),
        replans_(std::move(replans)),
        arrival_span_(federated ? "cluster.arrival" : "core.arrival"),
        event_span_(federated ? "cluster.event" : "core.event"),
        allocate_span_(federated ? "cluster.allocate" : "core.allocate"),
        slot_seconds_(slot_seconds),
        spans_(spans),
        split_(split),
        out_(out) {}

  std::string name() const override { return inner_.name(); }
  const workload::ClusterSpec* cluster_spec() const override {
    return inner_.cluster_spec();
  }

  void on_event(const sim::SchedulerEvent& event) override {
    ++out_.events;
    const Clock::time_point start = Clock::now();
    int span = -1;
    if (spans_ != nullptr) {
      const bool arrival =
          std::holds_alternative<sim::WorkflowArrivalEvent>(event);
      span = spans_->begin(arrival ? arrival_span_ : event_span_,
                           slot_of(sim::event_time(event)));
    }
    inner_.on_event(event);
    if (spans_ != nullptr) spans_->end(span);
    const double event_s = seconds_between(start, Clock::now());
    event_s_ += event_s;
    out_.scheduler_s += event_s;
  }

  std::vector<sim::Allocation> allocate(
      const sim::ClusterState& state) override {
    ++out_.slots;
    out_.job_slots += static_cast<std::int64_t>(state.active.size());
    const int replans_before = replans_();
    const Clock::time_point start = Clock::now();
    const int span =
        spans_ != nullptr ? spans_->begin(allocate_span_, state.slot) : -1;
    std::vector<sim::Allocation> allocations =
        split_ != nullptr ? drive_split(state) : inner_.allocate(state);
    if (spans_ != nullptr) spans_->end(span);
    const double allocate_s = seconds_between(start, Clock::now());
    out_.scheduler_s += allocate_s;
    out_.slot_ms.push_back((event_s_ + allocate_s) * 1e3);
    event_s_ = 0.0;
    if (replans_() > replans_before) {
      out_.replan_ms.push_back(allocate_s * 1e3);
    }
    return allocations;
  }

 private:
  int slot_of(double now_s) const {
    return static_cast<int>(std::floor(now_s / slot_seconds_ + 1e-9));
  }

  // FlowTimeScheduler::allocate, one step at a time.
  std::vector<sim::Allocation> drive_split(const sim::ClusterState& state) {
    core::FlowTimeScheduler& scheduler = *split_;
    int span = spans_->begin("core.sync_views", state.slot);
    scheduler.sync_views(state);
    spans_->end(span);
    if (scheduler.dirty()) {
      span = spans_->begin("core.begin_replan", state.slot);
      core::PendingReplan pending = scheduler.begin_replan(state);
      spans_->end(span);

      span = spans_->begin("lp.solve", state.slot);
      const Clock::time_point start = Clock::now();
      core::PlanSolveResult solved = core::FlowTimeScheduler::solve_replan(
          scheduler.config(), &warm_cache_, pending);
      pending.record.wall_s = seconds_between(start, Clock::now());
      spans_->end(span);

      span = spans_->begin("core.finish_replan", state.slot);
      scheduler.finish_replan(pending, std::move(solved), state.now_s);
      spans_->end(span);
    }
    span = spans_->begin("core.serve", state.slot);
    std::vector<sim::Allocation> allocations = scheduler.serve(state);
    spans_->end(span);
    return allocations;
  }

  sim::Scheduler& inner_;
  std::function<int()> replans_;
  const char* arrival_span_;
  const char* event_span_;
  const char* allocate_span_;
  double slot_seconds_;
  SpanRecorder* spans_;
  core::FlowTimeScheduler* split_;
  core::PlacementWarmCache warm_cache_;  // the split driver's own
  Outcome& out_;
  double event_s_ = 0.0;  // scheduler time in events since the last slot
};

void add_plan_stats(const core::FlowTimeScheduler& scheduler, Outcome& o) {
  for (const core::ReplanRecord& record : scheduler.replan_log()) {
    if (record.discarded) continue;
    if (record.flow_fast_path) ++o.flow_fast_path_replans;
    o.lp_jobs += record.planned_jobs;
  }
}

void evaluate(const Instance& instance, const sim::SimResult& result,
              const sim::JobDeadlines& deadlines, Outcome& o) {
  o.fingerprint = fingerprint(instance.scenario);
  for (const workload::Workflow& w : instance.scenario.workflows) {
    o.deadline_jobs += static_cast<int>(w.jobs.size());
  }
  o.adhoc_jobs = static_cast<int>(instance.scenario.adhoc_jobs.size());

  const sim::DeadlineReport report =
      sim::evaluate_deadlines(result, instance.scenario.workflows, deadlines);
  o.deadline_misses = report.jobs_missed;
  o.workflow_misses = report.workflows_missed;
  o.adhoc_turnarounds_s = sim::evaluate_adhoc(result).turnarounds_s;
  o.capacity_violations = result.capacity_violations;
  o.width_violations = result.width_violations;
  o.not_ready_allocations = result.not_ready_allocations;

  bool accounting_ok = result.jobs.size() ==
                       static_cast<std::size_t>(o.deadline_jobs + o.adhoc_jobs);
  for (const sim::JobRecord& job : result.jobs) {
    if (!job.completion_s) {
      ++o.jobs_incomplete;
    } else if (*job.completion_s < job.arrival_s) {
      accounting_ok = false;
    }
  }
  o.accounting_ok =
      accounting_ok && result.all_completed == (o.jobs_incomplete == 0);
}

}  // namespace

int SpanRecorder::begin(const char* name, int request) {
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] += (span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

std::map<std::string, std::int64_t> SpanRecorder::calls() const {
  std::map<std::string, std::int64_t> calls;
  for (const Span& span : spans_) ++calls[span.name];
  return calls;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  for (const Span& span : spans_) {
    std::fprintf(file.get(),
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%d}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 span.request);
  }
  return std::fclose(file.release()) == 0;
}

bool Outcome::reproduces(const Outcome& other) const {
  return fingerprint == other.fingerprint &&
         deadline_jobs == other.deadline_jobs &&
         adhoc_jobs == other.adhoc_jobs &&
         deadline_misses == other.deadline_misses &&
         workflow_misses == other.workflow_misses &&
         jobs_incomplete == other.jobs_incomplete &&
         capacity_violations == other.capacity_violations &&
         width_violations == other.width_violations &&
         not_ready_allocations == other.not_ready_allocations &&
         accounting_ok == other.accounting_ok && replans == other.replans &&
         pivots == other.pivots &&
         adhoc_turnarounds_s == other.adhoc_turnarounds_s &&
         truncated_replans == other.truncated_replans &&
         degraded_replans == other.degraded_replans &&
         flow_fast_path_replans == other.flow_fast_path_replans &&
         lp_jobs == other.lp_jobs && migrations == other.migrations &&
         failovers == other.failovers && quarantines == other.quarantines;
}

namespace {

// One scenario with the scheduler it runs under: the set-up being timed.
struct Setup {
  Instance instance;
  std::unique_ptr<core::FlowTimeScheduler> single;
  std::unique_ptr<cluster::FederatedScheduler> federated;
};

Setup set_up(const WorkloadSpec& spec, std::uint64_t seed, int index) {
  Setup setup{make_instance(spec, scenario_seed(seed, index)), {}, {}};
  if (spec.federated) {
    setup.federated = std::make_unique<cluster::FederatedScheduler>(
        setup.instance.federated);
  } else {
    setup.single =
        std::make_unique<core::FlowTimeScheduler>(setup.instance.flowtime);
  }
  return setup;
}

}  // namespace

SetResult run_set(const WorkloadSpec& spec, std::uint64_t seed,
                  SpanRecorder* spans) {
  SetResult out;
  for (int k = 0; k < spec.scenarios_per_set; ++k) {
    Clock::time_point start = Clock::now();
    const Setup setup = set_up(spec, seed, k);
    out.setup_s += seconds_between(start, Clock::now());

    const Instance& instance = setup.instance;
    core::FlowTimeScheduler* single = setup.single.get();
    cluster::FederatedScheduler* federated = setup.federated.get();
    const sim::JobDeadlines deadlines = milestones(instance);
    sim::Scheduler& scheduler = federated
                                    ? static_cast<sim::Scheduler&>(*federated)
                                    : static_cast<sim::Scheduler&>(*single);
    std::function<int()> replans =
        federated ? std::function<int()>([=] { return federated->replans(); })
                  : std::function<int()>([=] { return single->replans(); });
    Outcome outcome;
    MeasuredScheduler measured(scheduler, std::move(replans), spec.federated,
                               instance.sim.cluster.slot_seconds, spans,
                               spans != nullptr ? single : nullptr, outcome);
    sim::Simulator simulator(instance.sim);

    const int root = spans != nullptr ? spans->begin("sim.run", -1) : -1;
    start = Clock::now();
    const sim::SimResult result = simulator.run(instance.scenario, measured);
    outcome.run_s = seconds_between(start, Clock::now());
    if (spans != nullptr) spans->end(root);

    evaluate(instance, result, deadlines, outcome);
    if (federated) {
      outcome.replans = federated->replans();
      outcome.pivots = federated->total_pivots();
      outcome.truncated_replans = federated->truncated_replans();
      outcome.degraded_replans = federated->degraded_replans();
      outcome.migrations = federated->migrations();
      outcome.failovers = federated->failovers();
      outcome.quarantines = federated->quarantines();
      for (int c = 0; c < federated->num_cells(); ++c) {
        add_plan_stats(federated->cell(c).scheduler(), outcome);
      }
      for (double wall_s : federated->replan_round_wall_s()) {
        out.round_wall_s += wall_s;
      }
    } else {
      outcome.replans = single->replans();
      outcome.pivots = single->total_pivots();
      outcome.truncated_replans = single->truncated_replans();
      outcome.degraded_replans = single->degraded_replans();
      add_plan_stats(*single, outcome);
    }
    out.outcomes.push_back(std::move(outcome));
  }
  return out;
}

double time_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  double total_s = 0.0;
  for (int k = 0; k < spec.scenarios_per_set; ++k) {
    const Clock::time_point start = Clock::now();
    const Setup setup = set_up(spec, seed, k);
    total_s += seconds_between(start, Clock::now());
  }
  return total_s;
}

}  // namespace bench
