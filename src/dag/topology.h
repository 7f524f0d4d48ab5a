// Topological machinery for deadline decomposition (paper §IV-A).
//
// FlowTime's decomposer does not operate on a plain topological *order* but
// on a sequence of *node sets*: jobs with no dependency between them are
// grouped so they share one decomposed deadline (the paper's modified Kahn
// output `{1, {2,...,n}, n+1}` for a fork-join graph, Fig. 3).
#pragma once

#include <optional>
#include <vector>

#include "dag/dag.h"

namespace flowtime::dag {

/// Plain Kahn topological order (Kahn 1962 [8]); nullopt if the graph has a
/// cycle. Deterministic: ready nodes are consumed in ascending id order.
std::optional<std::vector<NodeId>> topological_order(const Dag& dag);

/// The paper's grouped variant: level k holds every node whose longest
/// dependency chain from a source has k edges — exactly the set of nodes
/// Kahn's peeling releases in round k. Nodes inside one level are mutually
/// independent and receive one shared decomposed deadline.
/// nullopt if the graph has a cycle.
std::optional<std::vector<std::vector<NodeId>>> level_groups(const Dag& dag);

/// level_groups flattened to a per-node level index; nullopt on a cycle.
std::optional<std::vector<int>> node_levels(const Dag& dag);

/// True if `descendant` is reachable from `ancestor` by directed edges.
bool reachable(const Dag& dag, NodeId ancestor, NodeId descendant);

}  // namespace flowtime::dag
