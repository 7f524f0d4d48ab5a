// Tests for the DAG container, topology (Kahn grouping), critical path and
// the shape generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dag/critical_path.h"
#include "dag/dag.h"
#include "dag/generators.h"
#include "dag/topology.h"
#include "util/rng.h"

namespace flowtime::dag {
namespace {

/// Nodes with no parents / no children.
int count_sources(const Dag& dag) {
  int n = 0;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) n += dag.in_degree(v) == 0;
  return n;
}
int count_sinks(const Dag& dag) {
  int n = 0;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) n += dag.out_degree(v) == 0;
  return n;
}

TEST(Dag, AddNodesAndEdges) {
  Dag dag(3);
  EXPECT_EQ(dag.num_nodes(), 3);
  EXPECT_TRUE(dag.add_edge(0, 1));
  EXPECT_TRUE(dag.add_edge(1, 2));
  EXPECT_EQ(dag.num_edges(), 2);
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_FALSE(dag.has_edge(1, 0));
  EXPECT_EQ(dag.in_degree(2), 1);
  EXPECT_EQ(dag.out_degree(0), 1);
}

TEST(Dag, RejectsSelfLoopsAndDuplicatesAndOutOfRange) {
  Dag dag(2);
  EXPECT_FALSE(dag.add_edge(0, 0));
  EXPECT_TRUE(dag.add_edge(0, 1));
  EXPECT_FALSE(dag.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(dag.add_edge(0, 5));
  EXPECT_FALSE(dag.add_edge(-1, 1));
  EXPECT_EQ(dag.num_edges(), 1);
}

TEST(Dag, AcyclicityDetection) {
  Dag dag(3);
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  EXPECT_TRUE(dag.is_acyclic());
  dag.add_edge(2, 0);
  EXPECT_FALSE(dag.is_acyclic());
}

TEST(Topology, OrderRespectsEdges) {
  util::Rng rng(3);
  const Dag dag = make_random_layered(rng, 40, 5, 120);
  const auto order = topological_order(dag);
  ASSERT_TRUE(order.has_value());
  std::vector<int> position(40);
  for (int i = 0; i < 40; ++i) {
    position[static_cast<std::size_t>((*order)[static_cast<std::size_t>(i)])] =
        i;
  }
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v : dag.children(u)) {
      EXPECT_LT(position[static_cast<std::size_t>(u)],
                position[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(Topology, OrderDetectsCycle) {
  Dag dag(2);
  dag.add_edge(0, 1);
  dag.add_edge(1, 0);
  EXPECT_FALSE(topological_order(dag).has_value());
  EXPECT_FALSE(level_groups(dag).has_value());
  EXPECT_FALSE(node_levels(dag).has_value());
}

TEST(Topology, ForkJoinLevelGroupsMatchPaperExample) {
  // Paper §IV-A: the grouped Kahn output for Fig. 3 is {1, {2..n}, n+1}.
  const int width = 7;
  const Dag dag = make_fork_join(width);
  const auto groups = level_groups(dag);
  ASSERT_TRUE(groups.has_value());
  ASSERT_EQ(groups->size(), 3u);
  EXPECT_EQ((*groups)[0], std::vector<NodeId>{0});
  EXPECT_EQ((*groups)[1].size(), static_cast<std::size_t>(width));
  EXPECT_EQ((*groups)[2], std::vector<NodeId>{width + 1});
}

TEST(Topology, GroupMembersAreMutuallyIndependent) {
  util::Rng rng(17);
  const Dag dag = make_random_layered(rng, 30, 4, 80);
  const auto groups = level_groups(dag);
  ASSERT_TRUE(groups.has_value());
  for (const auto& group : *groups) {
    for (NodeId a : group) {
      for (NodeId b : group) {
        if (a == b) continue;
        EXPECT_FALSE(reachable(dag, a, b))
            << a << " -> " << b << " violates level independence";
      }
    }
  }
}

TEST(Topology, LevelsCoverAllNodesExactlyOnce) {
  util::Rng rng(99);
  const Dag dag = make_random_layered(rng, 50, 6, 200);
  const auto groups = level_groups(dag);
  ASSERT_TRUE(groups.has_value());
  std::set<NodeId> seen;
  for (const auto& group : *groups) {
    for (NodeId v : group) EXPECT_TRUE(seen.insert(v).second);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), dag.num_nodes());
}

TEST(Topology, ReachabilityAndTransitiveEdges) {
  Dag dag(4);
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  dag.add_edge(0, 2);  // transitive
  dag.add_edge(2, 3);
  EXPECT_TRUE(reachable(dag, 0, 3));
  EXPECT_FALSE(reachable(dag, 3, 0));
  EXPECT_TRUE(reachable(dag, 1, 1));
}

TEST(CriticalPath, ChainSumsAllWeights) {
  const Dag dag = make_chain(4);
  const auto cp = critical_path(dag, {1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(cp.has_value());
  EXPECT_DOUBLE_EQ(cp->length, 10.0);
  EXPECT_EQ(cp->path, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(cp->earliest[3], 6.0);
}

TEST(CriticalPath, PicksHeaviestBranch) {
  const Dag dag = make_diamond(1, 1);  // 0 -> {1, 2} -> 3
  const auto cp = critical_path(dag, {1.0, 5.0, 2.0, 1.0});
  ASSERT_TRUE(cp.has_value());
  EXPECT_DOUBLE_EQ(cp->length, 7.0);
  EXPECT_EQ(cp->path, (std::vector<NodeId>{0, 1, 3}));
}

TEST(CriticalPath, RejectsWrongWeightSize) {
  const Dag dag = make_chain(3);
  EXPECT_FALSE(critical_path(dag, {1.0, 2.0}).has_value());
}

TEST(CriticalPath, ForkJoinEarliestStarts) {
  const Dag dag = make_fork_join(3);
  const auto cp = critical_path(dag, {2.0, 1.0, 4.0, 2.0, 3.0});
  ASSERT_TRUE(cp.has_value());
  // All middle jobs start when the source ends.
  EXPECT_DOUBLE_EQ(cp->earliest[1], 2.0);
  EXPECT_DOUBLE_EQ(cp->earliest[2], 2.0);
  EXPECT_DOUBLE_EQ(cp->earliest[3], 2.0);
  // Sink starts after the slowest middle job.
  EXPECT_DOUBLE_EQ(cp->earliest[4], 6.0);
  EXPECT_DOUBLE_EQ(cp->length, 9.0);
}

struct ShapeCase {
  const char* name;
  Dag dag;
  int expected_nodes;
};

class GeneratorShapes : public ::testing::TestWithParam<int> {};

TEST(Generators, ChainShape) {
  const Dag dag = make_chain(5);
  EXPECT_EQ(dag.num_nodes(), 5);
  EXPECT_EQ(dag.num_edges(), 4);
  EXPECT_TRUE(dag.is_acyclic());
  EXPECT_EQ(count_sources(dag), 1);
  EXPECT_EQ(count_sinks(dag), 1);
}

TEST(Generators, ForkJoinShape) {
  const Dag dag = make_fork_join(10);
  EXPECT_EQ(dag.num_nodes(), 12);
  EXPECT_EQ(dag.num_edges(), 20);
  EXPECT_TRUE(dag.is_acyclic());
}

TEST(Generators, DiamondShape) {
  const Dag dag = make_diamond(3, 2);
  EXPECT_EQ(dag.num_nodes(), 7);
  EXPECT_TRUE(dag.is_acyclic());
  EXPECT_EQ(count_sources(dag), 1);
  EXPECT_EQ(count_sinks(dag), 1);
}

TEST(Generators, MontageShape) {
  const Dag dag = make_montage_like(6);
  EXPECT_EQ(dag.num_nodes(), 15);
  EXPECT_TRUE(dag.is_acyclic());
  EXPECT_EQ(count_sources(dag), 1);
  EXPECT_EQ(count_sinks(dag), 1);
}

TEST(Generators, EpigenomicsShape) {
  const Dag dag = make_epigenomics_like(4, 4);
  EXPECT_EQ(dag.num_nodes(), 18);
  EXPECT_TRUE(dag.is_acyclic());
  const auto groups = level_groups(dag);
  ASSERT_TRUE(groups.has_value());
  EXPECT_EQ(groups->size(), 6u);  // split, 4 pipeline stages, merge
}

TEST(Generators, CybershakeShape) {
  const Dag dag = make_cybershake_like(5);
  EXPECT_EQ(dag.num_nodes(), 15);
  EXPECT_TRUE(dag.is_acyclic());
}

TEST_P(GeneratorShapes, RandomLayeredIsAcyclicConnectedAndSized) {
  const int nodes = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(nodes));
  const Dag dag = make_random_layered(rng, nodes, 5, 3 * nodes);
  EXPECT_EQ(dag.num_nodes(), nodes);
  EXPECT_TRUE(dag.is_acyclic());
  // Every non-source node has a parent (generator guarantees connectivity
  // to the previous layer).
  const auto levels = node_levels(dag);
  ASSERT_TRUE(levels.has_value());
  for (NodeId v = 0; v < nodes; ++v) {
    if ((*levels)[static_cast<std::size_t>(v)] > 0) {
      EXPECT_GT(dag.in_degree(v), 0) << "node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorShapes,
                         ::testing::Values(10, 25, 50, 100, 200));

TEST(Generators, RandomLayeredHitsEdgeTargetWhenFeasible) {
  util::Rng rng(5);
  const Dag dag = make_random_layered(rng, 60, 6, 150);
  EXPECT_GE(dag.num_edges(), 150);
}

TEST(Generators, RandomLayeredDeterministicPerSeed) {
  util::Rng rng_a(7), rng_b(7);
  const Dag a = make_random_layered(rng_a, 30, 4, 90);
  const Dag b = make_random_layered(rng_b, 30, 4, 90);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.children(v), b.children(v));
  }
}

}  // namespace
}  // namespace flowtime::dag
