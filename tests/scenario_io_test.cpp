// Tests for the scenario file parser/writer: happy path, every error
// branch, and write->parse round-trips.
#include <gtest/gtest.h>

#include "dag/generators.h"
#include "util/rng.h"
#include "workload/scenario_io.h"
#include "workload/trace_gen.h"

namespace flowtime::workload {
namespace {

constexpr const char* kValid = R"(
# comment
cluster cores=100 mem_gb=256 slot_seconds=5

workflow id=3 name=etl start=10 deadline=1800
job node=0 name=extract tasks=20 runtime=60 cores=1 mem=2
job node=1 name=clean tasks=40 runtime=45 cores=1 mem=2 error=1.2
edge 0 1
end

adhoc id=0 name=q arrival=120 tasks=8 runtime=30 cores=1 mem=1
)";

TEST(ScenarioIo, ParsesValidFile) {
  ParseError error;
  const auto parsed = parse_scenario(std::string(kValid), &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  ASSERT_TRUE(parsed->cluster.has_value());
  EXPECT_DOUBLE_EQ(parsed->cluster->capacity[kCpu], 100.0);
  EXPECT_DOUBLE_EQ(parsed->cluster->capacity[kMemory], 256.0);
  EXPECT_DOUBLE_EQ(parsed->cluster->slot_seconds, 5.0);

  ASSERT_EQ(parsed->scenario.workflows.size(), 1u);
  const Workflow& w = parsed->scenario.workflows[0];
  EXPECT_EQ(w.id, 3);
  EXPECT_EQ(w.name, "etl");
  EXPECT_DOUBLE_EQ(w.start_s, 10.0);
  EXPECT_DOUBLE_EQ(w.deadline_s, 1800.0);
  ASSERT_EQ(w.jobs.size(), 2u);
  EXPECT_EQ(w.jobs[0].name, "extract");
  EXPECT_EQ(w.jobs[0].num_tasks, 20);
  EXPECT_DOUBLE_EQ(w.jobs[1].actual_runtime_factor, 1.2);
  EXPECT_TRUE(w.dag.has_edge(0, 1));

  ASSERT_EQ(parsed->scenario.adhoc_jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->scenario.adhoc_jobs[0].arrival_s, 120.0);
}

TEST(ScenarioIo, ClusterLineIsOptional) {
  ParseError error;
  const auto parsed = parse_scenario(
      std::string("adhoc id=0 arrival=0 tasks=1 runtime=10 cores=1 mem=1\n"),
      &error);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->cluster.has_value());
}

struct ErrorCase {
  const char* name;
  const char* text;
  const char* expected_fragment;
};

// Names each case by its label; gtest would otherwise print the struct's
// raw bytes — pointers that change with every run.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class ScenarioIoErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ScenarioIoErrors, ReportsLineAndMessage) {
  ParseError error;
  const auto parsed = parse_scenario(std::string(GetParam().text), &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_GE(error.line, 0);
  EXPECT_NE(error.message.find(GetParam().expected_fragment),
            std::string::npos)
      << "actual message: " << error.message;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScenarioIoErrors,
    ::testing::Values(
        ErrorCase{"unknown", "frobnicate a=1\n", "unknown directive"},
        ErrorCase{"badfield", "cluster cores\n", "expected key=value"},
        ErrorCase{"missing", "cluster cores=5\n", "missing field"},
        ErrorCase{"notnum", "cluster cores=x mem_gb=1\n", "not a number"},
        ErrorCase{"joboutside",
                  "job node=0 tasks=1 runtime=1 cores=1 mem=1\n",
                  "outside a workflow"},
        ErrorCase{"edgeoutside", "edge 0 1\n", "outside a workflow"},
        ErrorCase{"endoutside", "end\n", "'end' without"},
        ErrorCase{"unclosed",
                  "workflow id=0 start=0 deadline=10\n"
                  "job node=0 tasks=1 runtime=1 cores=1 mem=1\n",
                  "ended inside"},
        ErrorCase{"nojobs", "workflow id=0 start=0 deadline=10\nend\n",
                  "no jobs"},
        ErrorCase{"sparse",
                  "workflow id=0 start=0 deadline=10\n"
                  "job node=1 tasks=1 runtime=1 cores=1 mem=1\nend\n",
                  "densely"},
        ErrorCase{"dupnode",
                  "workflow id=0 start=0 deadline=10\n"
                  "job node=0 tasks=1 runtime=1 cores=1 mem=1\n"
                  "job node=0 tasks=1 runtime=1 cores=1 mem=1\nend\n",
                  "duplicate job node"},
        ErrorCase{"badedge",
                  "workflow id=0 start=0 deadline=100\n"
                  "job node=0 tasks=1 runtime=1 cores=1 mem=1\n"
                  "edge 0 5\nend\n",
                  "unknown node"},
        ErrorCase{"cycle",
                  "workflow id=0 start=0 deadline=100\n"
                  "job node=0 tasks=1 runtime=1 cores=1 mem=1\n"
                  "job node=1 tasks=1 runtime=1 cores=1 mem=1\n"
                  "edge 0 1\nedge 1 0\nend\n",
                  "invalid"},
        ErrorCase{"nested",
                  "workflow id=0 start=0 deadline=10\n"
                  "workflow id=1 start=0 deadline=10\n",
                  "not closed"},
        // Numeric hardening: non-finite, negative, and zero values that
        // strtod parses happily but no directive can mean.
        ErrorCase{"nancores", "cluster cores=nan mem_gb=1\n", "not finite"},
        ErrorCase{"infruntime",
                  "workflow id=0 start=0 deadline=10\n"
                  "job node=0 tasks=1 runtime=inf cores=1 mem=1\nend\n",
                  "not finite"},
        ErrorCase{"zerocores", "cluster cores=0 mem_gb=1\n", "must be > 0"},
        ErrorCase{"negslot",
                  "cluster cores=1 mem_gb=1 slot_seconds=-5\n",
                  "must be > 0"},
        ErrorCase{"negruntime",
                  "workflow id=0 start=0 deadline=10\n"
                  "job node=0 tasks=1 runtime=-1 cores=1 mem=1\nend\n",
                  "must be >= 0"},
        ErrorCase{"negdemand",
                  "workflow id=0 start=0 deadline=10\n"
                  "job node=0 tasks=1 runtime=1 cores=-2 mem=1\nend\n",
                  "must be >= 0"},
        ErrorCase{"zerotasks",
                  "workflow id=0 start=0 deadline=10\n"
                  "job node=0 tasks=0 runtime=1 cores=1 mem=1\nend\n",
                  "at least one task"},
        ErrorCase{"negdeadline",
                  "workflow id=0 start=0 deadline=-10\n"
                  "job node=0 tasks=1 runtime=1 cores=1 mem=1\nend\n",
                  "must be >= 0"},
        ErrorCase{"deadlinebeforestart",
                  "workflow id=0 start=50 deadline=50\n"
                  "job node=0 tasks=1 runtime=1 cores=1 mem=1\nend\n",
                  "after its start"},
        ErrorCase{"negarrival",
                  "adhoc id=0 arrival=-3 tasks=1 runtime=1 cores=1 mem=1\n",
                  "must be >= 0"},
        ErrorCase{"adhoczerotasks",
                  "adhoc id=0 arrival=0 tasks=0 runtime=1 cores=1 mem=1\n",
                  "at least one task"},
        ErrorCase{"negsolverslot", "fault seed=1\nfault_solver slot=-1\n",
                  "must be >= 0"}));

TEST(ScenarioIo, BadInputReportsTheOffendingLineNumber) {
  // The invalid job sits on line 4 (line numbers are 1-based and count the
  // leading comment and blank line).
  ParseError error;
  const auto parsed = parse_scenario(
      "# header\n"
      "cluster cores=10 mem_gb=10\n"
      "workflow id=0 start=0 deadline=100\n"
      "job node=0 tasks=1 runtime=nan cores=1 mem=1\n"
      "end\n",
      &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_EQ(error.line, 4) << error.message;
  EXPECT_NE(error.message.find("not finite"), std::string::npos);
}

TEST(ScenarioIo, MissingFileReportsError) {
  ParseError error;
  const auto parsed =
      load_scenario_file("/nonexistent/path.scn", &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_NE(error.message.find("cannot open"), std::string::npos);
}

TEST(ScenarioIo, RoundTripsGeneratedScenarios) {
  const Scenario original = make_fig4_scenario(5);
  ScenarioCluster cluster;
  cluster.capacity = ResourceVec{500.0, 1024.0};
  const std::string text = write_scenario(original, cluster);

  ParseError error;
  const auto parsed = parse_scenario(text, &error);
  ASSERT_TRUE(parsed.has_value()) << "line " << error.line << ": "
                                  << error.message;
  ASSERT_EQ(parsed->scenario.workflows.size(), original.workflows.size());
  ASSERT_EQ(parsed->scenario.adhoc_jobs.size(), original.adhoc_jobs.size());
  for (std::size_t i = 0; i < original.workflows.size(); ++i) {
    const Workflow& a = original.workflows[i];
    const Workflow& b = parsed->scenario.workflows[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.dag.num_nodes(), b.dag.num_nodes());
    EXPECT_EQ(a.dag.num_edges(), b.dag.num_edges());
    EXPECT_NEAR(a.deadline_s, b.deadline_s, 1e-3);
    for (dag::NodeId v = 0; v < a.dag.num_nodes(); ++v) {
      EXPECT_EQ(a.jobs[static_cast<std::size_t>(v)].num_tasks,
                b.jobs[static_cast<std::size_t>(v)].num_tasks);
      EXPECT_EQ(a.dag.children(v), b.dag.children(v));
    }
  }
  for (std::size_t i = 0; i < original.adhoc_jobs.size(); ++i) {
    EXPECT_NEAR(original.adhoc_jobs[i].arrival_s,
                parsed->scenario.adhoc_jobs[i].arrival_s, 1e-3);
  }
}

TEST(ScenarioIo, RoundTripPreservesErrorFactors) {
  Scenario scenario;
  Workflow w;
  w.id = 0;
  w.name = "w";
  w.start_s = 0.0;
  w.deadline_s = 100.0;
  w.dag = dag::make_chain(1);
  JobSpec job;
  job.name = "j";
  job.num_tasks = 3;
  job.task.runtime_s = 10.0;
  job.task.demand = ResourceVec{1.0, 2.0};
  job.actual_runtime_factor = 1.3;
  w.jobs = {job};
  scenario.workflows.push_back(std::move(w));

  ParseError error;
  const auto parsed =
      parse_scenario(write_scenario(scenario, std::nullopt), &error);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->scenario.workflows[0].jobs[0].actual_runtime_factor,
              1.3, 1e-9);
}

TEST(ScenarioIo, FaultSolverDirectiveRoundTrips) {
  ParseError error;
  const auto parsed = parse_scenario(
      "cluster cores=10 mem_gb=10\n"
      "adhoc id=0 arrival=0 tasks=1 runtime=10 cores=1 mem=1\n"
      "fault seed=7\n"
      "fault_solver slot=5 until=9 budget_ms=0.5 pivots=40 fail=1\n"
      "fault_solver slot=20\n",
      &error);
  ASSERT_TRUE(parsed.has_value()) << "line " << error.line << ": "
                                  << error.message;
  ASSERT_EQ(parsed->fault_plan.solver_faults.size(), 2u);
  const fault::SolverFault& first = parsed->fault_plan.solver_faults[0];
  EXPECT_EQ(first.slot, 5);
  EXPECT_EQ(first.until_slot, 9);
  EXPECT_DOUBLE_EQ(first.budget_ms, 0.5);
  EXPECT_EQ(first.pivot_cap, 40);
  EXPECT_TRUE(first.force_numerical_failure);
  const fault::SolverFault& second = parsed->fault_plan.solver_faults[1];
  EXPECT_EQ(second.slot, 20);
  EXPECT_EQ(second.until_slot, -1);
  EXPECT_DOUBLE_EQ(second.budget_ms, -1.0);
  EXPECT_EQ(second.pivot_cap, 0);
  EXPECT_FALSE(second.force_numerical_failure);

  // write -> parse preserves every field.
  const std::string text =
      write_scenario(parsed->scenario, parsed->cluster, parsed->fault_plan);
  ParseError error2;
  const auto reparsed = parse_scenario(text, &error2);
  ASSERT_TRUE(reparsed.has_value()) << "line " << error2.line << ": "
                                    << error2.message;
  ASSERT_EQ(reparsed->fault_plan.solver_faults.size(), 2u);
  const fault::SolverFault& a = reparsed->fault_plan.solver_faults[0];
  EXPECT_EQ(a.slot, 5);
  EXPECT_EQ(a.until_slot, 9);
  EXPECT_DOUBLE_EQ(a.budget_ms, 0.5);
  EXPECT_EQ(a.pivot_cap, 40);
  EXPECT_TRUE(a.force_numerical_failure);
  const fault::SolverFault& b = reparsed->fault_plan.solver_faults[1];
  EXPECT_EQ(b.slot, 20);
  EXPECT_EQ(b.until_slot, -1);
  EXPECT_FALSE(b.force_numerical_failure);
}

TEST(ScenarioIo, FaultCellDirectiveRoundTrips) {
  ParseError error;
  const auto parsed = parse_scenario(
      "cluster cores=10 mem_gb=10\n"
      "adhoc id=0 arrival=0 tasks=1 runtime=10 cores=1 mem=1\n"
      "fault seed=7\n"
      "fault_cell cell=1 mode=crash slot=40 until=80\n"
      "fault_cell cell=2 mode=flap slot=10 period=6 jitter=0.3\n"
      "fault_cell cell=0 slot=5\n",
      &error);
  ASSERT_TRUE(parsed.has_value()) << "line " << error.line << ": "
                                  << error.message;
  ASSERT_EQ(parsed->fault_plan.cell_faults.size(), 3u);
  const fault::CellFault& crash = parsed->fault_plan.cell_faults[0];
  EXPECT_EQ(crash.cell, 1);
  EXPECT_EQ(crash.mode, fault::CellFaultMode::kCrash);
  EXPECT_EQ(crash.slot, 40);
  EXPECT_EQ(crash.until_slot, 80);
  const fault::CellFault& flap = parsed->fault_plan.cell_faults[1];
  EXPECT_EQ(flap.cell, 2);
  EXPECT_EQ(flap.mode, fault::CellFaultMode::kFlap);
  EXPECT_EQ(flap.period_slots, 6);
  EXPECT_DOUBLE_EQ(flap.jitter, 0.3);
  const fault::CellFault& bare = parsed->fault_plan.cell_faults[2];
  EXPECT_EQ(bare.cell, 0);
  EXPECT_EQ(bare.mode, fault::CellFaultMode::kCrash);  // default mode
  EXPECT_EQ(bare.slot, 5);
  EXPECT_EQ(bare.until_slot, -1);

  // write -> parse preserves every field.
  const std::string text =
      write_scenario(parsed->scenario, parsed->cluster, parsed->fault_plan);
  ParseError error2;
  const auto reparsed = parse_scenario(text, &error2);
  ASSERT_TRUE(reparsed.has_value()) << "line " << error2.line << ": "
                                    << error2.message;
  ASSERT_EQ(reparsed->fault_plan.cell_faults.size(), 3u);
  const fault::CellFault& a = reparsed->fault_plan.cell_faults[0];
  EXPECT_EQ(a.cell, 1);
  EXPECT_EQ(a.mode, fault::CellFaultMode::kCrash);
  EXPECT_EQ(a.slot, 40);
  EXPECT_EQ(a.until_slot, 80);
  const fault::CellFault& f = reparsed->fault_plan.cell_faults[1];
  EXPECT_EQ(f.mode, fault::CellFaultMode::kFlap);
  EXPECT_EQ(f.period_slots, 6);
  EXPECT_DOUBLE_EQ(f.jitter, 0.3);
}

TEST(ScenarioIo, FaultCellRejectsBadMode) {
  ParseError error;
  const auto parsed = parse_scenario(
      "cluster cores=10 mem_gb=10\n"
      "fault seed=1\n"
      "fault_cell cell=0 mode=melt slot=3\n",
      &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_EQ(error.line, 3);
}

}  // namespace
}  // namespace flowtime::workload
