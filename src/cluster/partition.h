// Cluster partitioning for federated scheduling (DESIGN.md §13).
//
// A cell is a statically carved fraction of the cluster that one
// FlowTimeScheduler plans alone. Partitioning is static and deterministic
// under a seed: the same (cluster, config) always yields the same cells, so
// federated runs are reproducible and a restarted coordinator re-derives the
// identical layout. The machines are homogeneous (ClusterSpec is a fluid
// capacity vector), so a cell is fully described by its capacity fraction —
// there is no per-machine assignment to persist.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/resources.h"

namespace flowtime::cluster {

/// How the partitioner divides capacity across cells.
enum class CellPolicy {
  /// Deal machine-sized granules to cells round-robin. When the machine
  /// count does not divide evenly, the seed shuffles which cells receive
  /// the remainder machines — cells differ by one granule.
  kRoundRobin,
  /// Every cell gets exactly capacity/N: the fluid ideal. Cells are
  /// interchangeable; the seed is unused.
  kCapacityBalanced,
};

/// Parses "round_robin" / "balanced" (aliases "rr", "capacity_balanced").
/// Returns false and leaves `out` untouched on unknown names.
bool parse_cell_policy(const std::string& name, CellPolicy* out);

/// One cell of the partition. `cluster` is the cell's own ClusterSpec —
/// handed verbatim to the cell's FlowTimeScheduler and AdmissionController —
/// and `fraction` is its share of every total-cluster quantity (capacity,
/// solver budgets, mid-run capacity changes).
struct CellSpec {
  int id = 0;
  workload::ClusterSpec cluster;
  double fraction = 1.0;
};

struct PartitionConfig {
  int cells = 1;  // clamped to >= 1
  CellPolicy policy = CellPolicy::kCapacityBalanced;
  /// Seed for remainder placement under kRoundRobin; no effect otherwise.
  std::uint64_t seed = 0;
};

/// Splits `total` into config.cells cells. Fractions sum to 1 exactly
/// (the last cell absorbs rounding); every cell keeps the total's
/// slot_seconds so the slot grids of all cells stay aligned.
class CellPartitioner {
 public:
  explicit CellPartitioner(PartitionConfig config = {});

  std::vector<CellSpec> partition(const workload::ClusterSpec& total) const;

  const PartitionConfig& config() const { return config_; }

 private:
  PartitionConfig config_;
};

}  // namespace flowtime::cluster
