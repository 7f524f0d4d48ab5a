// Tests for the workload module: job math, workflow validation, profile
// sampling, trace generation and estimation-error injection.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dag/generators.h"
#include "util/rng.h"
#include "workload/estimator.h"
#include "workload/job.h"
#include "workload/profiles.h"
#include "workload/trace_gen.h"
#include "workload/workflow.h"

namespace flowtime::workload {
namespace {

JobSpec simple_job(int tasks, double runtime, double cpu, double mem) {
  JobSpec job;
  job.name = "j";
  job.num_tasks = tasks;
  job.task.runtime_s = runtime;
  job.task.demand = ResourceVec{cpu, mem};
  return job;
}

TEST(JobSpec, TotalDemandIsTasksTimesRuntimeTimesDemand) {
  const JobSpec job = simple_job(10, 30.0, 1.0, 2.0);
  const ResourceVec total = job.total_demand();
  EXPECT_DOUBLE_EQ(total[kCpu], 300.0);
  EXPECT_DOUBLE_EQ(total[kMemory], 600.0);
}

TEST(JobSpec, ActualDemandScalesWithErrorFactor) {
  JobSpec job = simple_job(10, 30.0, 1.0, 2.0);
  job.actual_runtime_factor = 1.5;
  EXPECT_DOUBLE_EQ(job.actual_total_demand()[kCpu], 450.0);
}

TEST(JobSpec, MaxParallelDemand) {
  const JobSpec job = simple_job(8, 10.0, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(job.max_parallel_demand()[kCpu], 16.0);
  EXPECT_DOUBLE_EQ(job.max_parallel_demand()[kMemory], 32.0);
}

TEST(JobSpec, MinRuntimeSingleWave) {
  const JobSpec job = simple_job(10, 30.0, 1.0, 2.0);
  // 10 tasks of 1 core fit a 500-core cluster in one wave.
  EXPECT_DOUBLE_EQ(job.min_runtime_s(ResourceVec{500.0, 1024.0}), 30.0);
}

TEST(JobSpec, MinRuntimeMultipleWaves) {
  const JobSpec job = simple_job(10, 30.0, 1.0, 2.0);
  // Only 4 tasks fit at once -> ceil(10/4) = 3 waves.
  EXPECT_DOUBLE_EQ(job.min_runtime_s(ResourceVec{4.0, 1024.0}), 90.0);
}

TEST(JobSpec, MinRuntimeBoundByScarcestResource) {
  const JobSpec job = simple_job(10, 30.0, 1.0, 8.0);
  // CPU fits all 10, memory fits floor(32/8)=4 -> 3 waves.
  EXPECT_DOUBLE_EQ(job.min_runtime_s(ResourceVec{500.0, 32.0}), 90.0);
}

TEST(JobSpec, MinRuntimeInfiniteWhenTaskCannotFit) {
  const JobSpec job = simple_job(1, 30.0, 600.0, 1.0);
  EXPECT_TRUE(std::isinf(job.min_runtime_s(ResourceVec{500.0, 1024.0})));
}

Workflow tiny_workflow() {
  Workflow w;
  w.id = 1;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 1000.0;
  w.dag = dag::make_chain(2);
  w.jobs = {simple_job(4, 50.0, 1.0, 2.0), simple_job(2, 100.0, 1.0, 2.0)};
  return w;
}

TEST(Workflow, ValidAcceptsWellFormed) {
  EXPECT_TRUE(tiny_workflow().valid());
}

TEST(Workflow, ValidRejectsBadStructures) {
  Workflow w = tiny_workflow();
  w.deadline_s = 0.0;
  EXPECT_FALSE(w.valid());  // deadline before start

  w = tiny_workflow();
  w.jobs.pop_back();
  EXPECT_FALSE(w.valid());  // job/node mismatch

  w = tiny_workflow();
  w.jobs[0].num_tasks = 0;
  EXPECT_FALSE(w.valid());

  w = tiny_workflow();
  w.jobs[0].task.demand = ResourceVec{0.0, 0.0};
  EXPECT_FALSE(w.valid());  // no demand at all

  w = tiny_workflow();
  w.dag = dag::Dag(2);
  w.dag.add_edge(0, 1);
  w.dag.add_edge(1, 0);
  EXPECT_FALSE(w.valid());  // cycle
}

TEST(Workflow, MinMakespanIsCriticalPathOfMinRuntimes) {
  const Workflow w = tiny_workflow();
  EXPECT_DOUBLE_EQ(w.min_makespan_s(ResourceVec{500.0, 1024.0}), 150.0);
}

TEST(Profiles, TableContainsThePaperBenchmarks) {
  std::set<std::string> names;
  for (const JobProfile& p : puma_profiles()) names.insert(p.name);
  for (const char* required :
       {"TeraSort", "WordCount", "InvertedIndex", "SequenceCount",
        "SelfJoin"}) {
    EXPECT_TRUE(names.count(required)) << required;
  }
}

TEST(Profiles, SampledJobsRespectRanges) {
  util::Rng rng(4);
  const JobProfile& profile = puma_profiles().front();  // TeraSort
  for (int i = 0; i < 50; ++i) {
    const JobSpec job = sample_job(profile, rng);
    EXPECT_GE(job.num_tasks, profile.min_tasks);
    EXPECT_LE(job.num_tasks, profile.max_tasks);
    EXPECT_GE(job.task.runtime_s, profile.min_task_runtime_s);
    EXPECT_LE(job.task.runtime_s, profile.max_task_runtime_s);
    EXPECT_EQ(job.task.demand, profile.task_demand);
    EXPECT_DOUBLE_EQ(job.actual_runtime_factor, 1.0);
  }
}

TEST(TraceGen, WorkflowHasRequestedJobCountAndLooseDeadline) {
  util::Rng rng(11);
  WorkflowGenConfig config;
  config.num_jobs = 18;
  config.looseness_min = 3.0;
  config.looseness_max = 3.0;
  const Workflow w = make_workflow(rng, 7, 100.0, config);
  EXPECT_EQ(w.id, 7);
  EXPECT_EQ(w.dag.num_nodes(), 18);
  EXPECT_TRUE(w.valid());
  const double makespan = w.min_makespan_s(config.cluster.capacity);
  EXPECT_NEAR(w.deadline_s, 100.0 + 3.0 * makespan, 1e-6);
}

TEST(TraceGen, AdhocStreamIsPoissonSorted) {
  util::Rng rng(13);
  AdhocGenConfig config;
  config.rate_per_s = 0.1;
  config.horizon_s = 2000.0;
  const auto jobs = make_adhoc_stream(rng, config);
  EXPECT_GT(jobs.size(), 100u);  // rate * horizon = 200 expected
  EXPECT_LT(jobs.size(), 320u);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival_s, jobs[i - 1].arrival_s);
  }
  for (const AdhocJob& job : jobs) {
    EXPECT_LT(job.arrival_s, config.horizon_s);
    EXPECT_GE(job.spec.num_tasks, config.min_tasks);
    EXPECT_LE(job.spec.num_tasks, config.max_tasks);
  }
}

TEST(TraceGen, Fig4ScenarioShape) {
  const Scenario s = make_fig4_scenario(42);
  ASSERT_EQ(s.workflows.size(), 5u);
  int deadline_jobs = 0;
  for (const Workflow& w : s.workflows) {
    EXPECT_TRUE(w.valid());
    deadline_jobs += w.dag.num_nodes();
  }
  EXPECT_EQ(deadline_jobs, 90);  // the paper's 90 deadline-aware jobs
  EXPECT_FALSE(s.adhoc_jobs.empty());
}

TEST(TraceGen, Fig4ScenarioDeterministicPerSeed) {
  const Scenario a = make_fig4_scenario(1);
  const Scenario b = make_fig4_scenario(1);
  ASSERT_EQ(a.adhoc_jobs.size(), b.adhoc_jobs.size());
  for (std::size_t i = 0; i < a.adhoc_jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.adhoc_jobs[i].arrival_s, b.adhoc_jobs[i].arrival_s);
  }
  const Scenario c = make_fig4_scenario(2);
  // Different seed changes the stream (overwhelmingly likely).
  bool any_diff = a.adhoc_jobs.size() != c.adhoc_jobs.size();
  for (std::size_t i = 0;
       !any_diff && i < std::min(a.adhoc_jobs.size(), c.adhoc_jobs.size());
       ++i) {
    any_diff = a.adhoc_jobs[i].arrival_s != c.adhoc_jobs[i].arrival_s;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TraceGen, RecurringTraceRepeatsTemplates) {
  RecurringTraceConfig config;
  config.num_templates = 2;
  config.recurrences = 3;
  const Scenario s = make_recurring_trace(9, config);
  ASSERT_EQ(s.workflows.size(), 6u);
  // Instances of the same template share DAG shape and job sizes.
  const Workflow& first = s.workflows[0];
  const Workflow& second = s.workflows[1];
  EXPECT_EQ(first.dag.num_nodes(), second.dag.num_nodes());
  EXPECT_EQ(first.jobs[0].num_tasks, second.jobs[0].num_tasks);
  EXPECT_LT(first.start_s, second.start_s);
  // Relative deadline preserved.
  EXPECT_NEAR(first.deadline_s - first.start_s,
              second.deadline_s - second.start_s, 1e-9);
}

TEST(Estimator, InjectsBoundedErrors) {
  util::Rng rng(21);
  WorkflowGenConfig config;
  util::Rng wf_rng(22);
  Workflow w = make_workflow(wf_rng, 0, 0.0, config);
  EstimationErrorConfig error;
  error.affected_fraction = 1.0;
  error.under_probability = 0.5;
  error.under_severity = 0.3;
  error.over_severity = 0.3;
  inject_estimation_error(w, error, rng);
  int changed = 0;
  for (const JobSpec& job : w.jobs) {
    EXPECT_GE(job.actual_runtime_factor, 0.7 - 1e-9);
    EXPECT_LE(job.actual_runtime_factor, 1.3 + 1e-9);
    if (job.actual_runtime_factor != 1.0) ++changed;
  }
  EXPECT_GT(changed, 0);
}

TEST(Estimator, ZeroFractionChangesNothing) {
  util::Rng rng(23);
  util::Rng wf_rng(24);
  Workflow w = make_workflow(wf_rng, 0, 0.0, WorkflowGenConfig{});
  EstimationErrorConfig error;
  error.affected_fraction = 0.0;
  inject_estimation_error(w, error, rng);
  for (const JobSpec& job : w.jobs) {
    EXPECT_DOUBLE_EQ(job.actual_runtime_factor, 1.0);
  }
}

TEST(Resources, VectorHelpers) {
  const ResourceVec a{3.0, 5.0};
  const ResourceVec b{1.0, 8.0};
  EXPECT_EQ(add(a, b), (ResourceVec{4.0, 13.0}));
  EXPECT_EQ(sub(a, b), (ResourceVec{2.0, -3.0}));
  EXPECT_EQ(scale(a, 2.0), (ResourceVec{6.0, 10.0}));
  EXPECT_EQ(elementwise_min(a, b), (ResourceVec{1.0, 5.0}));
  EXPECT_EQ(clamp_nonnegative(sub(b, a)), (ResourceVec{0.0, 3.0}));
  EXPECT_TRUE(fits_within(b, ResourceVec{1.0, 8.0}));
  EXPECT_FALSE(fits_within(b, ResourceVec{0.5, 8.0}));
  EXPECT_TRUE(is_zero(ResourceVec{0.0, 0.0}));
  EXPECT_FALSE(is_zero(a));
}

}  // namespace
}  // namespace flowtime::workload
