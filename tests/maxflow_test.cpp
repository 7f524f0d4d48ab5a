// Direct unit tests for lp/maxflow beyond the placement-level coverage in
// flow_placement_test.cpp: repeated solves on one network, the parametric
// set_capacity pattern the flow lexmin relies on, residual reachability
// (both min-cut sides), budget cuts between augmenting paths, and the
// invalid-argument rejection contract.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "lp/maxflow.h"

namespace flowtime::lp {
namespace {

TEST(MaxFlowRepeat, RepeatedSolvesAreIdempotent) {
  // Diamond: 0 -> {1, 2} -> 3, bottleneck 7 + 4.
  FlowNetwork net(4);
  net.add_edge(0, 1, 10.0);
  net.add_edge(0, 2, 4.0);
  const int e13 = net.add_edge(1, 3, 7.0);
  net.add_edge(2, 3, 9.0);
  const double first = net.max_flow(0, 3);
  EXPECT_DOUBLE_EQ(first, 11.0);
  // State fully resets between calls: same value, same edge flows.
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(net.max_flow(0, 3), first);
    EXPECT_DOUBLE_EQ(net.flow(e13), 7.0);
  }
}

TEST(MaxFlowRepeat, ParametricCapacitySweepIsMonotone) {
  // One job (demand 10, width 4) over 3 slots of capacity 5: the fast
  // path's inner loop — scale sink-side capacities by u and re-solve.
  FlowNetwork net(6);  // 0 source, 1 job, 2..4 slots, 5 sink
  net.add_edge(0, 1, 10.0);
  std::vector<int> slot_edges;
  for (int t = 0; t < 3; ++t) {
    net.add_edge(1, 2 + t, 4.0);
    slot_edges.push_back(net.add_edge(2 + t, 5, 5.0));
  }
  double previous = -1.0;
  for (double u : {0.2, 0.5, 2.0 / 3.0, 0.8, 1.0}) {
    for (int e : slot_edges) ASSERT_TRUE(net.set_capacity(e, u * 5.0));
    const double flow = net.max_flow(0, 5);
    EXPECT_GE(flow, previous - 1e-12);  // monotone in u
    previous = flow;
    // Saturates at min(total width 12, demand 10, 3 * u * 5).
    EXPECT_NEAR(flow, std::min(10.0, 3.0 * u * 5.0), 1e-9);
  }
  // Shrinking back down reproduces the small-u answer exactly.
  for (int e : slot_edges) ASSERT_TRUE(net.set_capacity(e, 0.2 * 5.0));
  EXPECT_NEAR(net.max_flow(0, 5), 3.0, 1e-9);
}

TEST(MaxFlowRepeat, CapacityZeroClosesAnEdge) {
  FlowNetwork net(3);
  const int e01 = net.add_edge(0, 1, 5.0);
  net.add_edge(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 5.0);
  ASSERT_TRUE(net.set_capacity(e01, 0.0));
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(net.flow(e01), 0.0);
}

TEST(MaxFlowResidual, ReachabilityGivesBothMinCutSides) {
  // A chain of equal capacities: every edge is a minimum cut, so the
  // minimal source side is {source} and the maximal one is all but the
  // sink.
  FlowNetwork net(4);
  net.add_edge(0, 1, 3.0);
  net.add_edge(1, 2, 3.0);
  net.add_edge(2, 3, 3.0);
  ASSERT_DOUBLE_EQ(net.max_flow(0, 3), 3.0);
  EXPECT_EQ(net.reachable_from(0), (std::vector<bool>{true, false, false,
                                                      false}));
  EXPECT_EQ(net.reaching(3), (std::vector<bool>{false, false, false, true}));
}

TEST(MaxFlowBudget, CapStopsBetweenAugmentingPaths) {
  // Three disjoint unit paths: a cap of two routes two of them and reports
  // the cut; each path charges one unit.
  FlowNetwork net(5);
  for (int mid = 1; mid <= 3; ++mid) {
    net.add_edge(0, mid, 1.0);
    net.add_edge(mid, 4, 1.0);
  }
  SolveBudget budget;
  budget.set_pivot_cap(2);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 4, &budget), 2.0);
  EXPECT_TRUE(net.budget_cut());
  EXPECT_EQ(net.augmentations(), 2);
  EXPECT_EQ(budget.pivots_used(), 2);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 4), 3.0);
  EXPECT_FALSE(net.budget_cut());
  EXPECT_EQ(net.augmentations(), 3);
}

TEST(MaxFlowReject, SetCapacityRejectsBadIdsAndValues) {
#ifndef NDEBUG
  GTEST_SKIP() << "asserts fire before the return-false path in debug";
#else
  FlowNetwork net(3);
  const int forward = net.add_edge(0, 1, 2.0);
  ASSERT_EQ(forward % 2, 0);
  // Reverse companion id, out-of-range ids, negative and NaN capacities.
  EXPECT_FALSE(net.set_capacity(forward + 1, 1.0));
  EXPECT_FALSE(net.set_capacity(-1, 1.0));
  EXPECT_FALSE(net.set_capacity(99, 1.0));
  EXPECT_FALSE(net.set_capacity(forward, -1.0));
  EXPECT_FALSE(
      net.set_capacity(forward, std::numeric_limits<double>::quiet_NaN()));
  // All rejected writes left the network unchanged.
  net.add_edge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 2.0);
  // A valid write still works after rejections.
  EXPECT_TRUE(net.set_capacity(forward, 1.5));
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 1.5);
#endif
}

}  // namespace
}  // namespace flowtime::lp
