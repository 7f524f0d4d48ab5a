// Tests for the admission controller and the DOT exporters.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "dag/dot.h"
#include "dag/generators.h"
#include "obs/testing.h"
#include "obs/trace.h"
#include "workload/dot.h"

namespace flowtime {
namespace {

using workload::ResourceVec;

workload::JobSpec simple_job(int tasks, double runtime, double cpu,
                             double mem) {
  workload::JobSpec job;
  job.name = "j";
  job.num_tasks = tasks;
  job.task.runtime_s = runtime;
  job.task.demand = ResourceVec{cpu, mem};
  return job;
}

workload::Workflow heavy_workflow(int id, double start, double deadline) {
  workload::Workflow w;
  w.id = id;
  w.name = "w" + std::to_string(id);
  w.start_s = start;
  w.deadline_s = deadline;
  w.dag = dag::make_chain(2);
  // Each job: 20 tasks x 100 s = 2000 core-s.
  w.jobs = {simple_job(20, 100.0, 1.0, 2.0), simple_job(20, 100.0, 1.0, 2.0)};
  return w;
}

core::AdmissionConfig small_cluster() {
  core::AdmissionConfig config;
  config.cluster.capacity = ResourceVec{20.0, 40.0};
  return config;
}

TEST(Admission, AcceptsFeasibleWorkflow) {
  core::AdmissionController controller(small_cluster());
  // 4000 core-s on 20 cores needs 200 s minimum; deadline 1000 is ample.
  const auto decision = controller.admit(heavy_workflow(0, 0.0, 1000.0), 0.0);
  EXPECT_TRUE(decision.admitted) << decision.reason;
  EXPECT_LE(decision.peak_load, 1.0 + 1e-6);
  EXPECT_EQ(controller.admitted_workflows(), 1);
  EXPECT_EQ(controller.pending_jobs(), 2);
}

TEST(Admission, RejectsWhenClusterAlreadyCommitted) {
  core::AdmissionController controller(small_cluster());
  // Each workflow needs 4000 core-s before t=500 -> 8 cores average each;
  // the third pushes the shared window over 20 cores.
  EXPECT_TRUE(controller.admit(heavy_workflow(0, 0.0, 500.0), 0.0).admitted);
  EXPECT_TRUE(controller.admit(heavy_workflow(1, 0.0, 500.0), 0.0).admitted);
  const auto third = controller.admit(heavy_workflow(2, 0.0, 500.0), 0.0);
  EXPECT_FALSE(third.admitted);
  EXPECT_GT(third.peak_load, 1.0);
  EXPECT_EQ(controller.admitted_workflows(), 2);
}

TEST(Admission, EvaluateDoesNotMutate) {
  core::AdmissionController controller(small_cluster());
  controller.evaluate(heavy_workflow(0, 0.0, 1000.0), 0.0);
  EXPECT_EQ(controller.admitted_workflows(), 0);
}

TEST(Admission, CompletionFreesCapacity) {
  core::AdmissionController controller(small_cluster());
  EXPECT_TRUE(controller.admit(heavy_workflow(0, 0.0, 500.0), 0.0).admitted);
  EXPECT_TRUE(controller.admit(heavy_workflow(1, 0.0, 500.0), 0.0).admitted);
  EXPECT_FALSE(
      controller.admit(heavy_workflow(2, 0.0, 500.0), 0.0).admitted);
  // Workflow 0 finishes entirely: the third now fits.
  controller.complete_job(0, 0);
  controller.complete_job(0, 1);
  EXPECT_TRUE(
      controller.admit(heavy_workflow(2, 0.0, 500.0), 0.0).admitted);
}

TEST(Admission, ForgetDropsWholeWorkflow) {
  core::AdmissionController controller(small_cluster());
  controller.admit(heavy_workflow(0, 0.0, 1000.0), 0.0);
  controller.forget_workflow(0);
  EXPECT_EQ(controller.admitted_workflows(), 0);
  EXPECT_EQ(controller.pending_jobs(), 0);
}

TEST(Admission, HeadroomFractionTightensTheGate) {
  core::AdmissionConfig config = small_cluster();
  config.deadline_cap_fraction = 0.5;
  core::AdmissionController half(config);
  core::AdmissionController full(small_cluster());
  // Needs ~8 of 20 cores on average: fits the full cluster, not half of it
  // once two are admitted.
  const workload::Workflow w0 = heavy_workflow(0, 0.0, 500.0);
  const workload::Workflow w1 = heavy_workflow(1, 0.0, 500.0);
  EXPECT_TRUE(full.admit(w0, 0.0).admitted);
  EXPECT_TRUE(full.admit(w1, 0.0).admitted);
  EXPECT_TRUE(half.admit(w0, 0.0).admitted);
  EXPECT_FALSE(half.admit(w1, 0.0).admitted);
}

TEST(Admission, RejectsMalformedWorkflow) {
  core::AdmissionController controller(small_cluster());
  workload::Workflow broken = heavy_workflow(0, 0.0, 1000.0);
  broken.jobs[0].num_tasks = 0;
  const auto decision = controller.admit(broken, 0.0);
  EXPECT_FALSE(decision.admitted);
  EXPECT_NE(decision.reason.find("invalid"), std::string::npos);
}

// One task of 100 s with a 50 s window can never fit regardless of load.
workload::Workflow width_limited_workflow() {
  workload::Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 50.0;
  w.dag = dag::make_chain(1);
  w.jobs = {simple_job(1, 100.0, 1.0, 1.0)};
  return w;
}

TEST(Admission, WidthLimitedWorkflowReportsReason) {
  core::AdmissionController controller(small_cluster());
  const auto decision = controller.admit(width_limited_workflow(), 0.0);
  EXPECT_FALSE(decision.admitted);
  EXPECT_TRUE(std::isinf(decision.peak_load)) << decision.peak_load;
  EXPECT_NE(decision.reason.find("width-limited"), std::string::npos)
      << decision.reason;
  EXPECT_EQ(controller.pending_jobs(), 0);
}

TEST(Admission, DecompositionFailureIsNotAnEmptyCell) {
  // A 30-core task cannot run on 20 cores at any parallelism. The verdict
  // must not read as an idle cell (peak 0), or routing would prefer it.
  core::AdmissionController controller(small_cluster());
  workload::Workflow w = heavy_workflow(0, 0.0, 1000.0);
  w.jobs[0] = simple_job(1, 100.0, 30.0, 1.0);
  const auto decision = controller.evaluate(w, 0.0);
  EXPECT_FALSE(decision.admitted);
  EXPECT_TRUE(std::isinf(decision.peak_load)) << decision.peak_load;
  EXPECT_EQ(decision.reason, "decomposition failed: job_exceeds_capacity");
}

// ---------------------------------------------------------------------------
// Verdicts computed and events emitted

class AdmissionTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sink = std::make_unique<obs::MemorySink>();
    sink_ = sink.get();
    obs::set_trace_sink(std::move(sink));
  }

  static std::int64_t count(const std::string& name) {
    return obs::registry().counter(name).value();
  }

  /// The `op` field of every `admission` event so far.
  std::vector<std::string> admission_ops() const {
    std::vector<std::string> ops;
    for (const std::string& line : sink_->lines()) {
      std::map<std::string, std::string> fields;
      if (!obs::parse_flat_json(line, &fields)) continue;
      if (fields["type"] == "admission") ops.push_back(fields["op"]);
    }
    return ops;
  }

  obs::testing::ScopedRegistryReset reset_;
  obs::MemorySink* sink_ = nullptr;
};

TEST_F(AdmissionTrace, AdmitComputesOneVerdictAndCommitsWhatItEvaluated) {
  core::AdmissionController controller(small_cluster());
  const auto decision = controller.admit(heavy_workflow(0, 0.0, 1000.0), 0.0);
  ASSERT_TRUE(decision.admitted) << decision.reason;
  EXPECT_EQ(controller.pending_jobs(), 2);
  EXPECT_EQ(count("core.admission.evaluations"), 1);
  EXPECT_EQ(count("core.admission.admitted"), 1);
  EXPECT_EQ(admission_ops(), std::vector<std::string>{"admit"});

  // A rejected admit computes one verdict too, and commits nothing.
  const auto rejected = controller.admit(width_limited_workflow(), 0.0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(controller.pending_jobs(), 2);
  EXPECT_EQ(count("core.admission.evaluations"), 2);
  EXPECT_EQ(count("core.admission.rejected"), 1);
}

TEST_F(AdmissionTrace, ForceAdmitCommitsWithoutAVerdict) {
  core::AdmissionController controller(small_cluster());
  controller.force_admit(width_limited_workflow(), 0.0);
  EXPECT_EQ(controller.admitted_workflows(), 1);
  EXPECT_EQ(controller.pending_jobs(), 1);
  EXPECT_EQ(count("core.admission.evaluations"), 0);
  EXPECT_TRUE(admission_ops().empty());

  // Nothing to commit when the candidate cannot be decomposed.
  workload::Workflow broken = heavy_workflow(1, 0.0, 1000.0);
  broken.jobs[0].num_tasks = 0;
  controller.force_admit(broken, 0.0);
  EXPECT_EQ(controller.admitted_workflows(), 1);
}

TEST_F(AdmissionTrace, WidthBoundAnswersAreCounted) {
  core::AdmissionController controller(small_cluster());
  controller.evaluate(heavy_workflow(0, 0.0, 1000.0), 0.0);
  EXPECT_EQ(count("core.admission.width_limited"), 0);
  controller.evaluate(width_limited_workflow(), 0.0);
  EXPECT_EQ(count("core.admission.width_limited"), 1);
  EXPECT_EQ(count("core.admission.evaluations"), 2);
  EXPECT_EQ(admission_ops(),
            (std::vector<std::string>{"evaluate", "evaluate"}));
}

TEST(Dot, DagExportContainsNodesAndEdges) {
  const dag::Dag dag = dag::make_fork_join(2);
  const std::string dot = dag::to_dot(dag, "g");
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
}

TEST(Dot, WorkflowExportHasLabelsAndRanks) {
  workload::Workflow w = heavy_workflow(7, 0.0, 1000.0);
  w.dag = dag::make_fork_join(3);
  w.jobs.assign(5, simple_job(4, 25.0, 1.0, 1.0));
  w.jobs[0].name = "source";
  const std::string dot = workload::to_dot(w);
  EXPECT_NE(dot.find("digraph workflow_7"), std::string::npos);
  EXPECT_NE(dot.find("source"), std::string::npos);
  EXPECT_NE(dot.find("deadline 1000"), std::string::npos);
  EXPECT_NE(dot.find("rank=same"), std::string::npos);
}

}  // namespace
}  // namespace flowtime
