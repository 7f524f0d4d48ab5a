#include "cluster/partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.h"

namespace flowtime::cluster {

bool parse_cell_policy(const std::string& name, CellPolicy* out) {
  if (name == "round_robin" || name == "rr") {
    *out = CellPolicy::kRoundRobin;
    return true;
  }
  if (name == "balanced" || name == "capacity_balanced") {
    *out = CellPolicy::kCapacityBalanced;
    return true;
  }
  return false;
}

CellPartitioner::CellPartitioner(PartitionConfig config)
    : config_(std::move(config)) {
  config_.cells = std::max(config_.cells, 1);
}

std::vector<CellSpec> CellPartitioner::partition(
    const workload::ClusterSpec& total) const {
  const int n = config_.cells;
  std::vector<double> fraction(static_cast<std::size_t>(n), 1.0 / n);

  if (config_.policy == CellPolicy::kRoundRobin && n > 1) {
    // Deal machine granules. One CPU core stands in for one machine — the
    // homogeneous-machine assumption behind the fluid ClusterSpec — floored
    // at one granule per cell so tiny clusters still partition.
    const std::int64_t machines = std::max<std::int64_t>(
        n, std::llround(total.capacity[workload::kCpu]));
    const std::int64_t base = machines / n;
    const std::int64_t extra = machines % n;
    // The seed decides which `extra` cells get the remainder machine: deal
    // them to the first `extra` positions of a seeded permutation of cells.
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    util::Rng rng(config_.seed);
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    }
    std::vector<std::int64_t> count(static_cast<std::size_t>(n), base);
    for (std::int64_t i = 0; i < extra; ++i) {
      ++count[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
    }
    for (int i = 0; i < n; ++i) {
      fraction[static_cast<std::size_t>(i)] =
          static_cast<double>(count[static_cast<std::size_t>(i)]) /
          static_cast<double>(machines);
    }
  }

  // The last cell absorbs accumulated rounding so fractions sum to 1 and
  // the per-cell capacities add back to the total exactly.
  double used = 0.0;
  std::vector<CellSpec> cells;
  cells.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    CellSpec cell;
    cell.id = i;
    cell.fraction =
        (i == n - 1) ? 1.0 - used : fraction[static_cast<std::size_t>(i)];
    used += cell.fraction;
    cell.cluster.slot_seconds = total.slot_seconds;
    cell.cluster.capacity = workload::scale(total.capacity, cell.fraction);
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace flowtime::cluster
