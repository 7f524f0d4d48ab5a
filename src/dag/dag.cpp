#include "dag/dag.h"

#include <algorithm>

namespace flowtime::dag {

Dag::Dag(int num_nodes)
    : children_(static_cast<std::size_t>(num_nodes)),
      parents_(static_cast<std::size_t>(num_nodes)) {}

bool Dag::add_edge(NodeId from, NodeId to) {
  if (from == to) return false;
  if (from < 0 || to < 0 || from >= num_nodes() || to >= num_nodes()) {
    return false;
  }
  if (has_edge(from, to)) return false;
  children_[static_cast<std::size_t>(from)].push_back(to);
  parents_[static_cast<std::size_t>(to)].push_back(from);
  ++num_edges_;
  return true;
}

bool Dag::has_edge(NodeId from, NodeId to) const {
  if (from < 0 || from >= num_nodes()) return false;
  const auto& c = children_[static_cast<std::size_t>(from)];
  return std::find(c.begin(), c.end(), to) != c.end();
}

bool Dag::is_acyclic() const {
  // Kahn peel: a cycle leaves nodes unpeeled.
  std::vector<int> in_degree_left(static_cast<std::size_t>(num_nodes()));
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    in_degree_left[static_cast<std::size_t>(v)] = in_degree(v);
    if (in_degree(v) == 0) ready.push_back(v);
  }
  int peeled = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    ++peeled;
    for (NodeId c : children(v)) {
      if (--in_degree_left[static_cast<std::size_t>(c)] == 0) {
        ready.push_back(c);
      }
    }
  }
  return peeled == num_nodes();
}

}  // namespace flowtime::dag
