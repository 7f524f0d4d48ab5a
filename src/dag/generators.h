// DAG shape generators.
//
// The paper evaluates on recurring analytics workflows and cites the
// Bharathi et al. characterization of scientific workflows [16] for DAG
// shapes; Fig. 6 sweeps random DAGs from 10 to 200 nodes and up to ~6000
// edges. These generators produce those families deterministically from a
// seed. They build shape only; job sizing lives in the workload module.
#pragma once

#include "dag/dag.h"
#include "util/rng.h"

namespace flowtime::dag {

/// j_0 -> j_1 -> ... -> j_{n-1}. Requires n >= 1.
Dag make_chain(int n);

/// The paper's Fig. 3 graph: one source, `width` mutually independent middle
/// jobs, one sink. Node 0 is the source, node width+1 the sink.
Dag make_fork_join(int width);

/// Source, two independent branches of the given lengths, sink.
Dag make_diamond(int left_length, int right_length);

/// Random layered DAG: `num_nodes` spread over `num_layers` layers, edges
/// always point from lower to higher layers, adjacent layers stay connected
/// (every non-first-layer node gets >= 1 parent), then extra edges are added
/// until `target_edges` (clamped to the maximum possible) is reached.
Dag make_random_layered(util::Rng& rng, int num_nodes, int num_layers,
                        int target_edges);

/// Montage-like: fan-out to `width` projections, neighbour-overlap diff
/// layer, single concat, short reduction tail.
Dag make_montage_like(int width);

/// Epigenomics-like: `lanes` parallel chains of `depth` jobs between a
/// common split and merge.
Dag make_epigenomics_like(int lanes, int depth);

/// CyberShake-like: two generator roots feeding `width` synthesis pairs that
/// merge into two aggregators and one sink.
Dag make_cybershake_like(int width);

}  // namespace flowtime::dag
