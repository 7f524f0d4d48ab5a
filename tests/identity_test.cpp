// Replan-driver identities (DESIGN.md §11, §13): every way of driving
// FlowTimeScheduler's one begin_replan -> solve_replan -> finish_replan
// cycle yields the same schedule as its reference — the 1-cell federation
// (serial and pooled) and the async runtime in barrier mode match the bare
// scheduler, and pooled 2-cell solves match serial ones. Carries the
// "concurrent" label so the sanitize-tsan preset runs it.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/federated_scheduler.h"
#include "core/flowtime_scheduler.h"
#include "runtime/concurrent_scheduler.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace flowtime {
namespace {

using test::flowtime_config;
using test::mixed_scenario;
using test::small_cluster;

enum class Driver {
  kBare,           // FlowTimeScheduler::allocate re-plans inline
  kOneCell,        // FederatedScheduler, 1 cell, serial solves
  kOneCellPooled,  // FederatedScheduler, 1 cell, solves on the pool
  kAsyncBarrier,   // ConcurrentScheduler in barrier mode
  kTwoCells,       // FederatedScheduler, 2 cells, serial solves
  kTwoCellsPooled  // FederatedScheduler, 2 cells, solves on the pool
};

struct DriverRun {
  std::unique_ptr<sim::Scheduler> scheduler;
  sim::SimResult result;
  /// Every planner the driver owns, in cell order.
  std::vector<const core::FlowTimeScheduler*> planners;
  /// Coordinator decisions: migrations, overload events, quota deferrals
  /// (all zero without a coordinator).
  std::vector<int> coordinator = {0, 0, 0};
  std::int64_t stale_solves = 0;
};

DriverRun drive(Driver driver) {
  DriverRun out;
  const core::FlowTimeConfig flowtime = flowtime_config(small_cluster());
  cluster::FederatedScheduler* federated = nullptr;
  runtime::ConcurrentScheduler* concurrent = nullptr;
  switch (driver) {
    case Driver::kBare:
      out.scheduler = std::make_unique<core::FlowTimeScheduler>(flowtime);
      break;
    case Driver::kAsyncBarrier: {
      runtime::RuntimeConfig rt;
      rt.flowtime = flowtime;
      rt.barrier_mode = true;
      auto owned = std::make_unique<runtime::ConcurrentScheduler>(rt);
      concurrent = owned.get();
      out.scheduler = std::move(owned);
      break;
    }
    default: {
      cluster::FederatedConfig config;
      config.flowtime = flowtime;
      config.partition.cells =
          driver == Driver::kTwoCells || driver == Driver::kTwoCellsPooled
              ? 2
              : 1;
      config.parallel_solve = driver == Driver::kOneCellPooled ||
                              driver == Driver::kTwoCellsPooled;
      auto owned = std::make_unique<cluster::FederatedScheduler>(config);
      federated = owned.get();
      out.scheduler = std::move(owned);
      break;
    }
  }
  out.result =
      sim::Simulator(small_cluster()).run(mixed_scenario(), *out.scheduler);
  if (federated != nullptr) {
    for (int c = 0; c < federated->num_cells(); ++c) {
      out.planners.push_back(&federated->cell(c).scheduler());
    }
    out.coordinator = {federated->migrations(), federated->overload_events(),
                       federated->quota_deferrals()};
  } else if (concurrent != nullptr) {
    concurrent->drain_events();  // apply post-run completion events
    // The solves really ran on the solver thread, or the identity would
    // say nothing about the hand-off.
    EXPECT_GT(concurrent->async_solves(), 0);
    out.stale_solves = concurrent->stale_solves();
    out.planners.push_back(&concurrent->inner());
  } else {
    out.planners.push_back(
        static_cast<const core::FlowTimeScheduler*>(out.scheduler.get()));
  }
  return out;
}

struct IdentityCase {
  const char* name;
  Driver subject;
  Driver reference;
};

// Names each instance in test listings (and hence in ctest).
void PrintTo(const IdentityCase& c, std::ostream* os) { *os << c.name; }

class DriverIdentity : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(DriverIdentity, SameScheduleAsReference) {
  const DriverRun reference = drive(GetParam().reference);
  const DriverRun subject = drive(GetParam().subject);
  ASSERT_TRUE(reference.result.all_completed);
  ASSERT_TRUE(subject.result.all_completed);
  EXPECT_EQ(subject.scheduler->name(), reference.scheduler->name())
      << "a driver reports the policy it drives";
  ASSERT_EQ(subject.planners.size(), reference.planners.size());
  for (std::size_t c = 0; c < subject.planners.size(); ++c) {
    SCOPED_TRACE("planner " + std::to_string(c));
    test::expect_identical_runs(reference.result, subject.result,
                                *reference.planners[c], *subject.planners[c]);
  }
  EXPECT_EQ(subject.coordinator, reference.coordinator);
  EXPECT_EQ(subject.stale_solves, 0)
      << "barrier mode never lets a solve go stale";
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, DriverIdentity,
    ::testing::Values(
        IdentityCase{"OneCellSerialMatchesBare", Driver::kOneCell,
                     Driver::kBare},
        IdentityCase{"OneCellPooledMatchesBare", Driver::kOneCellPooled,
                     Driver::kBare},
        IdentityCase{"AsyncBarrierMatchesSync", Driver::kAsyncBarrier,
                     Driver::kBare},
        IdentityCase{"TwoCellPooledMatchesSerial", Driver::kTwoCellsPooled,
                     Driver::kTwoCells}));

}  // namespace
}  // namespace flowtime
