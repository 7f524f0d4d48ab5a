#include "lp/maxflow.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace flowtime::lp {

namespace {
constexpr double kEps = 1e-9;
}

FlowNetwork::FlowNetwork(int num_nodes) : num_nodes_(num_nodes) {}

int FlowNetwork::add_edge(int from, int to, double capacity) {
  const int id = static_cast<int>(edges_.size());
  edges_.push_back(Edge{to, capacity, capacity});
  edges_.push_back(Edge{from, 0.0, 0.0});
  return id;
}

void FlowNetwork::build_adjacency() {
  if (adj_.size() == edges_.size()) return;
  // Edge id lives in the list of the node it leaves, which is where its
  // companion (id ^ 1) points. Counting, then placing ids in increasing
  // order, keeps each node's edges in creation order.
  first_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (std::size_t id = 0; id < edges_.size(); ++id) {
    ++first_[static_cast<std::size_t>(edges_[id ^ 1].to) + 1];
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(num_nodes_); ++v) {
    first_[v + 1] += first_[v];
  }
  adj_.resize(edges_.size());
  std::vector<int> next(first_.begin(), first_.end() - 1);
  for (std::size_t id = 0; id < edges_.size(); ++id) {
    adj_[static_cast<std::size_t>(
        next[static_cast<std::size_t>(edges_[id ^ 1].to)]++)] =
        static_cast<int>(id);
  }
}

bool FlowNetwork::set_capacity(int edge_id, double capacity) {
  // Odd ids are the internal reverse edges: max_flow's reset loop zeroes
  // their residuals regardless of stored capacity, so accepting a write
  // here would silently discard it mid-parametric-search.
  assert(edge_id >= 0 && edge_id < static_cast<int>(edges_.size()) &&
         "set_capacity: edge id out of range");
  assert(edge_id % 2 == 0 &&
         "set_capacity: reverse-edge id (ids from add_edge are even)");
  assert(capacity >= 0.0 && "set_capacity: negative capacity");
  if (edge_id < 0 || edge_id >= static_cast<int>(edges_.size()) ||
      edge_id % 2 != 0 || !(capacity >= 0.0)) {
    return false;
  }
  // Keep the edge's current flow, so augment() can continue from it.
  Edge& e = edges_[static_cast<std::size_t>(edge_id)];
  e.residual += capacity - e.capacity;
  e.capacity = capacity;
  return true;
}

double FlowNetwork::flow(int edge_id) const {
  const Edge& e = edges_[static_cast<std::size_t>(edge_id)];
  return e.capacity - e.residual;
}

bool FlowNetwork::build_levels(int source, int sink) {
  level_.assign(static_cast<std::size_t>(num_nodes_), -1);
  queue_.assign(1, source);
  level_[static_cast<std::size_t>(source)] = 0;
  for (std::size_t next = 0; next < queue_.size(); ++next) {
    const int node = queue_[next];
    const int end = first_[static_cast<std::size_t>(node) + 1];
    for (int i = first_[static_cast<std::size_t>(node)]; i < end; ++i) {
      const int id = adj_[static_cast<std::size_t>(i)];
      const Edge& e = edges_[static_cast<std::size_t>(id)];
      if (e.residual > kEps && level_[static_cast<std::size_t>(e.to)] < 0) {
        level_[static_cast<std::size_t>(e.to)] =
            level_[static_cast<std::size_t>(node)] + 1;
        queue_.push_back(e.to);
      }
    }
  }
  return level_[static_cast<std::size_t>(sink)] >= 0;
}

double FlowNetwork::push(int node, int sink, double limit) {
  if (node == sink) return limit;
  const int end = first_[static_cast<std::size_t>(node) + 1];
  for (int& i = iter_[static_cast<std::size_t>(node)]; i < end; ++i) {
    const int id = adj_[static_cast<std::size_t>(i)];
    Edge& e = edges_[static_cast<std::size_t>(id)];
    if (e.residual <= kEps ||
        level_[static_cast<std::size_t>(e.to)] !=
            level_[static_cast<std::size_t>(node)] + 1) {
      continue;
    }
    const double pushed =
        push(e.to, sink, std::min(limit, e.residual));
    if (pushed > kEps) {
      e.residual -= pushed;
      edges_[static_cast<std::size_t>(id ^ 1)].residual += pushed;
      return pushed;
    }
  }
  return 0.0;
}

double FlowNetwork::max_flow(int source, int sink, SolveBudget* budget) {
  // Reset residuals to capacities.
  for (std::size_t id = 0; id < edges_.size(); id += 2) {
    edges_[id].residual = edges_[id].capacity;
    edges_[id + 1].residual = 0.0;
  }
  return augment(source, sink, budget);
}

double FlowNetwork::augment(int source, int sink, SolveBudget* budget) {
  build_adjacency();
  augmentations_ = 0;
  budget_cut_ = false;
  double total = 0.0;
  while (build_levels(source, sink)) {
    iter_.assign(first_.begin(), first_.end() - 1);
    while (true) {
      if (budget != nullptr && budget->exhausted()) {
        budget_cut_ = true;
        return total;
      }
      const double pushed =
          push(source, sink, std::numeric_limits<double>::infinity());
      if (pushed <= kEps) break;
      total += pushed;
      ++augmentations_;
      if (budget != nullptr) budget->charge_pivot();
    }
  }
  return total;
}

std::vector<bool> FlowNetwork::reachable_from(int node) {
  return residual_search(node, /*forward=*/true);
}

std::vector<bool> FlowNetwork::reaching(int node) {
  return residual_search(node, /*forward=*/false);
}

std::vector<bool> FlowNetwork::residual_search(int node, bool forward) {
  // Forward: follow edges with residual capacity out of each node.
  // Backward: edge id's companion (id ^ 1) runs from e.to into the node,
  // so e.to reaches the node when the companion has residual left.
  build_adjacency();
  std::vector<bool> seen(static_cast<std::size_t>(num_nodes_), false);
  std::vector<int> stack = {node};
  seen[static_cast<std::size_t>(node)] = true;
  while (!stack.empty()) {
    const int at = stack.back();
    stack.pop_back();
    const int end = first_[static_cast<std::size_t>(at) + 1];
    for (int i = first_[static_cast<std::size_t>(at)]; i < end; ++i) {
      const int id = adj_[static_cast<std::size_t>(i)];
      const Edge& e = edges_[static_cast<std::size_t>(id)];
      const double residual =
          forward ? e.residual
                  : edges_[static_cast<std::size_t>(id ^ 1)].residual;
      if (residual > kEps && !seen[static_cast<std::size_t>(e.to)]) {
        seen[static_cast<std::size_t>(e.to)] = true;
        stack.push_back(e.to);
      }
    }
  }
  return seen;
}

}  // namespace flowtime::lp
