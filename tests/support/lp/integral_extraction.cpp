#include "lp/integral_extraction.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "lp/maxflow.h"

namespace flowtime::lp {

core::LpSchedule extract_integral_placement(
    const std::vector<core::LpJob>& jobs,
    const std::vector<workload::ResourceVec>& caps,
    const core::LpSchedule& fractional) {
  core::LpSchedule out = fractional;
  const int num_slots = static_cast<int>(caps.size());
  const int first_slot = fractional.first_slot;
  const int last_slot = first_slot + num_slots - 1;
  out.max_normalized_load = 0.0;
  for (int r = 0; r < workload::kNumResources; ++r) {
    // Node layout: 0 = source, 1..J = jobs, J+1..J+T = slots, J+T+1 = sink.
    const int slot_base = 1 + static_cast<int>(jobs.size());
    const int sink = slot_base + num_slots;
    FlowNetwork network(sink + 1);
    struct Arc {
      std::size_t job;
      std::size_t slot;
      int edge;
    };
    std::vector<Arc> arcs;
    double demand = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const core::LpJob& job = jobs[j];
      if (!(job.demand[r] > 0.0)) continue;
      demand += job.demand[r];
      const int node = 1 + static_cast<int>(j);
      network.add_edge(0, node, job.demand[r]);
      const double width =
          std::isinf(job.width[r]) ? job.demand[r] : job.width[r];
      const int begin = std::max(job.release_slot, first_slot) - first_slot;
      const int end = std::min(job.deadline_slot, last_slot) - first_slot;
      for (int t = begin; t <= end; ++t) {
        arcs.push_back(Arc{j, static_cast<std::size_t>(t),
                           network.add_edge(node, slot_base + t, width)});
      }
    }
    for (int t = 0; t < num_slots; ++t) {
      double load = 0.0;
      for (const auto& row : fractional.allocation) {
        load += row[static_cast<std::size_t>(t)][r];
      }
      network.add_edge(slot_base + t, sink,
                       std::max(0.0, std::ceil(load - 1e-9)));
    }
    const double routed = network.max_flow(0, sink);
    if (routed < demand - 1e-9 * std::max(1.0, demand)) {
      out.status = SolveStatus::kNumericalFailure;
      return out;
    }
    for (auto& row : out.allocation) {
      for (workload::ResourceVec& x : row) x[r] = 0.0;
    }
    std::vector<double> load(static_cast<std::size_t>(num_slots), 0.0);
    for (const Arc& arc : arcs) {
      const double x = network.flow(arc.edge);
      out.allocation[arc.job][arc.slot][r] = x;
      load[arc.slot] += x;
    }
    for (int t = 0; t < num_slots; ++t) {
      const double normalized =
          load[static_cast<std::size_t>(t)] /
          std::max(caps[static_cast<std::size_t>(t)][r], 1e-9);
      out.normalized_load[static_cast<std::size_t>(t)][r] = normalized;
      out.max_normalized_load = std::max(out.max_normalized_load, normalized);
    }
  }
  return out;
}

}  // namespace flowtime::lp
