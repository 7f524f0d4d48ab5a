#include "dag/topology.h"

#include <algorithm>
#include <queue>

namespace flowtime::dag {

std::optional<std::vector<NodeId>> topological_order(const Dag& dag) {
  std::vector<int> in_left(static_cast<std::size_t>(dag.num_nodes()));
  // Min-heap gives a deterministic order independent of edge insertion order.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>> ready;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    in_left[static_cast<std::size_t>(v)] = dag.in_degree(v);
    if (dag.in_degree(v) == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(dag.num_nodes()));
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (NodeId c : dag.children(v)) {
      if (--in_left[static_cast<std::size_t>(c)] == 0) ready.push(c);
    }
  }
  if (static_cast<int>(order.size()) != dag.num_nodes()) return std::nullopt;
  return order;
}

std::optional<std::vector<int>> node_levels(const Dag& dag) {
  const auto order = topological_order(dag);
  if (!order) return std::nullopt;
  std::vector<int> level(static_cast<std::size_t>(dag.num_nodes()), 0);
  for (NodeId v : *order) {
    for (NodeId p : dag.parents(v)) {
      level[static_cast<std::size_t>(v)] =
          std::max(level[static_cast<std::size_t>(v)],
                   level[static_cast<std::size_t>(p)] + 1);
    }
  }
  return level;
}

std::optional<std::vector<std::vector<NodeId>>> level_groups(const Dag& dag) {
  const auto levels = node_levels(dag);
  if (!levels) return std::nullopt;
  const int max_level =
      dag.num_nodes() == 0
          ? -1
          : *std::max_element(levels->begin(), levels->end());
  std::vector<std::vector<NodeId>> groups(
      static_cast<std::size_t>(max_level + 1));
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    groups[static_cast<std::size_t>((*levels)[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  return groups;
}

bool reachable(const Dag& dag, NodeId ancestor, NodeId descendant) {
  if (ancestor == descendant) return true;
  std::vector<bool> seen(static_cast<std::size_t>(dag.num_nodes()), false);
  std::vector<NodeId> stack{ancestor};
  seen[static_cast<std::size_t>(ancestor)] = true;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId c : dag.children(v)) {
      if (c == descendant) return true;
      if (!seen[static_cast<std::size_t>(c)]) {
        seen[static_cast<std::size_t>(c)] = true;
        stack.push_back(c);
      }
    }
  }
  return false;
}

}  // namespace flowtime::dag
