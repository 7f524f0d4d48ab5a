// Directed acyclic graph container used for workflow job dependencies
// (paper §II-A: each workflow W_i carries the DAG P_i over its jobs).
//
// Nodes are dense integer ids [0, num_nodes). The container itself allows
// arbitrary directed edges; acyclicity is checked by validate()/is_acyclic()
// and by the topology routines, which fail loudly on cycles.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace flowtime::dag {

using NodeId = int;

/// Adjacency-list DAG. Parallel edges are collapsed; self-loops rejected.
class Dag {
 public:
  Dag() = default;
  explicit Dag(int num_nodes);

  /// Adds the dependency edge `from -> to` (to depends on from).
  /// Returns false (and changes nothing) for self-loops, out-of-range ids
  /// or duplicate edges.
  bool add_edge(NodeId from, NodeId to);

  int num_nodes() const { return static_cast<int>(children_.size()); }
  int num_edges() const { return num_edges_; }

  const std::vector<NodeId>& children(NodeId node) const {
    return children_[static_cast<std::size_t>(node)];
  }
  const std::vector<NodeId>& parents(NodeId node) const {
    return parents_[static_cast<std::size_t>(node)];
  }

  bool has_edge(NodeId from, NodeId to) const;

  /// True when the edge set has no directed cycle.
  bool is_acyclic() const;

  int in_degree(NodeId node) const {
    return static_cast<int>(parents_[static_cast<std::size_t>(node)].size());
  }
  int out_degree(NodeId node) const {
    return static_cast<int>(children_[static_cast<std::size_t>(node)].size());
  }

 private:
  std::vector<std::vector<NodeId>> children_;
  std::vector<std::vector<NodeId>> parents_;
  int num_edges_ = 0;
};

}  // namespace flowtime::dag
