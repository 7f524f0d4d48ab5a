#include "dag/generators.h"

#include <algorithm>
#include <cassert>

namespace flowtime::dag {

Dag make_chain(int n) {
  assert(n >= 1);
  Dag dag(n);
  for (int v = 0; v + 1 < n; ++v) dag.add_edge(v, v + 1);
  return dag;
}

Dag make_fork_join(int width) {
  assert(width >= 1);
  Dag dag(width + 2);
  const NodeId sink = width + 1;
  for (int k = 1; k <= width; ++k) {
    dag.add_edge(0, k);
    dag.add_edge(k, sink);
  }
  return dag;
}

Dag make_diamond(int left_length, int right_length) {
  assert(left_length >= 1 && right_length >= 1);
  Dag dag(left_length + right_length + 2);
  const NodeId sink = left_length + right_length + 1;
  NodeId prev = 0;
  for (int k = 0; k < left_length; ++k) {
    const NodeId v = 1 + k;
    dag.add_edge(prev, v);
    prev = v;
  }
  dag.add_edge(prev, sink);
  prev = 0;
  for (int k = 0; k < right_length; ++k) {
    const NodeId v = 1 + left_length + k;
    dag.add_edge(prev, v);
    prev = v;
  }
  dag.add_edge(prev, sink);
  return dag;
}

Dag make_random_layered(util::Rng& rng, int num_nodes, int num_layers,
                        int target_edges) {
  assert(num_nodes >= 1);
  num_layers = std::clamp(num_layers, 1, num_nodes);
  Dag dag(num_nodes);

  // Assign nodes to layers: one guaranteed per layer, rest uniform.
  std::vector<int> layer_of(static_cast<std::size_t>(num_nodes));
  for (int v = 0; v < num_layers; ++v) layer_of[static_cast<std::size_t>(v)] = v;
  for (int v = num_layers; v < num_nodes; ++v) {
    layer_of[static_cast<std::size_t>(v)] =
        static_cast<int>(rng.uniform_int(0, num_layers - 1));
  }
  std::vector<std::vector<NodeId>> layers(
      static_cast<std::size_t>(num_layers));
  for (int v = 0; v < num_nodes; ++v) {
    layers[static_cast<std::size_t>(layer_of[static_cast<std::size_t>(v)])]
        .push_back(v);
  }

  // Connectivity: every node beyond the first layer gets a random parent
  // from the previous non-empty layer.
  int last_nonempty = 0;
  for (int l = 1; l < num_layers; ++l) {
    for (NodeId v : layers[static_cast<std::size_t>(l)]) {
      const auto& pool = layers[static_cast<std::size_t>(last_nonempty)];
      if (!pool.empty()) {
        dag.add_edge(pool[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<int>(pool.size()) - 1))],
                     v);
      }
    }
    if (!layers[static_cast<std::size_t>(l)].empty()) last_nonempty = l;
  }

  // Extra forward edges until the target is met or the space is exhausted.
  std::vector<std::pair<NodeId, NodeId>> candidates;
  for (int u = 0; u < num_nodes; ++u) {
    for (int v = 0; v < num_nodes; ++v) {
      if (layer_of[static_cast<std::size_t>(u)] <
          layer_of[static_cast<std::size_t>(v)]) {
        candidates.emplace_back(u, v);
      }
    }
  }
  std::shuffle(candidates.begin(), candidates.end(), rng.engine());
  for (const auto& [u, v] : candidates) {
    if (dag.num_edges() >= target_edges) break;
    dag.add_edge(u, v);
  }
  return dag;
}

Dag make_montage_like(int width) {
  assert(width >= 2);
  // 0: source; 1..w: project; w+1..2w-1: diff of neighbours; 2w: concat;
  // 2w+1, 2w+2: background-fit + final mosaic tail.
  Dag dag(2 * width + 3);
  const NodeId concat = 2 * width;
  for (int k = 1; k <= width; ++k) dag.add_edge(0, k);
  for (int k = 0; k + 1 < width; ++k) {
    const NodeId diff = width + 1 + k;
    dag.add_edge(1 + k, diff);
    dag.add_edge(2 + k, diff);
    dag.add_edge(diff, concat);
  }
  dag.add_edge(concat, concat + 1);
  dag.add_edge(concat + 1, concat + 2);
  return dag;
}

Dag make_epigenomics_like(int lanes, int depth) {
  assert(lanes >= 1 && depth >= 1);
  Dag dag(lanes * depth + 2);
  const NodeId sink = lanes * depth + 1;
  for (int lane = 0; lane < lanes; ++lane) {
    NodeId prev = 0;
    for (int d = 0; d < depth; ++d) {
      const NodeId v = 1 + lane * depth + d;
      dag.add_edge(prev, v);
      prev = v;
    }
    dag.add_edge(prev, sink);
  }
  return dag;
}

Dag make_cybershake_like(int width) {
  assert(width >= 1);
  // 0,1: SGT generators; 2..w+1: synthesis; w+2..2w+1: peak extraction;
  // 2w+2, 2w+3: two aggregators; 2w+4: sink.
  Dag dag(2 * width + 5);
  const NodeId agg0 = 2 * width + 2;
  const NodeId agg1 = 2 * width + 3;
  const NodeId sink = 2 * width + 4;
  for (int k = 0; k < width; ++k) {
    const NodeId synth = 2 + k;
    const NodeId peak = width + 2 + k;
    dag.add_edge(0, synth);
    dag.add_edge(1, synth);
    dag.add_edge(synth, peak);
    dag.add_edge(synth, agg0);
    dag.add_edge(peak, agg1);
  }
  dag.add_edge(agg0, sink);
  dag.add_edge(agg1, sink);
  return dag;
}

}  // namespace flowtime::dag
