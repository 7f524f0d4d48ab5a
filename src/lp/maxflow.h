// Max-flow solver (Dinic's algorithm).
//
// The scheduling LP's constraint matrix is the incidence structure of a
// bipartite job/slot graph, so every lexmin level of a per-resource
// placement is a parametric max flow instead of a simplex solve.
// core/flow_placement.h builds the exact lexmin on this; here is just a
// clean, reusable max-flow engine on double capacities, with the residual
// reachability queries that read minimum cuts off a finished flow.
//
// The adjacency is one flat array: add_edge only appends the edge, and the
// first solve (or residual query) after an add_edge lays every node's edge
// ids out contiguously, in the order they were added. Dinic's searches then
// walk one array instead of one vector per node, and visit each node's
// edges in exactly the order per-node lists would, so every augmenting path
// and every min cut is the same.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/solve_budget.h"

namespace flowtime::lp {

/// Directed flow network with double capacities. Nodes are dense ints.
class FlowNetwork {
 public:
  explicit FlowNetwork(int num_nodes);

  /// Adds a directed edge with the given capacity; returns an edge id that
  /// can be used to query its flow after solving.
  int add_edge(int from, int to, double capacity);

  int num_nodes() const { return num_nodes_; }

  /// Computes the maximum flow from source to sink (Dinic). Can be called
  /// repeatedly after add_edge/set_capacity; flow state resets each call.
  ///
  /// With a `budget`, each augmenting path charges one unit to it
  /// (SolveBudget::charge_pivot) and exhausted() is polled before every
  /// path search, so a pivot cap, wall clock or cancel token stops the
  /// solve between paths; budget_cut() then reports true and the returned
  /// value is the flow routed so far.
  double max_flow(int source, int sink, SolveBudget* budget = nullptr);

  /// Continues from the last max_flow's flow instead of resetting it and
  /// returns the flow added (same budget contract). Valid after
  /// set_capacity calls that only raised capacities, which keeps that
  /// flow feasible — the parametric searches that raise a level.
  double augment(int source, int sink, SolveBudget* budget = nullptr);

  /// Augmenting paths found by the last max_flow / augment call.
  std::int64_t augmentations() const { return augmentations_; }

  /// True when the last max_flow / augment stopped because its budget ran
  /// out.
  bool budget_cut() const { return budget_cut_; }

  /// Flow routed on edge `edge_id` by the last max_flow call.
  double flow(int edge_id) const;

  /// Nodes reachable from `node` along edges with residual capacity left
  /// by the last max_flow. For the source after a complete max flow this
  /// is the source side of the minimal minimum cut.
  std::vector<bool> reachable_from(int node);

  /// Nodes that can reach `node` along residual edges. For the sink after
  /// a complete max flow, the complement is the source side of the
  /// maximal minimum cut.
  std::vector<bool> reaching(int node);

  /// Rewrites one FORWARD edge's capacity (used by parametric searches),
  /// keeping the flow the edge carries. `edge_id` must be an id returned
  /// by add_edge — ids are even; the odd
  /// companion ids address the internal reverse edges, whose residuals
  /// max_flow resets unconditionally, so a capacity written there would be
  /// silently discarded. Returns false and leaves the network unchanged for
  /// a reverse/out-of-range id or a negative capacity (and asserts in debug
  /// builds); returns true on success.
  bool set_capacity(int edge_id, double capacity);

 private:
  struct Edge {
    int to = 0;
    double capacity = 0.0;
    double residual = 0.0;
  };

  /// Lays out adj_ / first_ when an edge was added since the last layout.
  void build_adjacency();
  bool build_levels(int source, int sink);
  double push(int node, int sink, double limit);
  std::vector<bool> residual_search(int node, bool forward);

  int num_nodes_ = 0;
  std::vector<Edge> edges_;  // edge 2k = forward, 2k+1 = reverse
  /// Node v's edge ids (reverse ones included) are adj_[first_[v]] ..
  /// adj_[first_[v + 1] - 1], in the order add_edge created them.
  std::vector<int> adj_;
  std::vector<int> first_;
  std::vector<int> level_;
  std::vector<int> iter_;  // per node, the next position in adj_ to try
  std::vector<int> queue_;
  std::int64_t augmentations_ = 0;
  bool budget_cut_ = false;
};

}  // namespace flowtime::lp
