// Declarative fault plans (the "chaos" side of the robustness testbed).
//
// A FaultPlan describes every perturbation a simulation run should suffer:
//
//   * machine churn — whole machines leave the cluster at a slot and
//     (optionally) come back later, shrinking the capacity vector C_t^r
//     mid-horizon exactly the way the paper's time-varying caps allow;
//   * task-level faults — a job's in-flight work is lost at a given slot
//     and the job retries after a configurable backoff, either declared
//     per-job or drawn from a seeded per-slot hazard rate;
//   * stragglers — a job's remaining ground-truth work is inflated by a
//     slowdown multiplier (tasks run slower than estimated from that slot
//     on), surfacing as estimate overruns downstream;
//   * estimate noise — the hidden actual/estimate ratio of every workflow
//     job is perturbed by a multiplicative lognormal model or an
//     adversarial uniform under-estimation factor;
//   * cell faults — a whole federation cell (scheduler shard) crashes,
//     hangs, flaps, or loses its solver for a slot window, exercising the
//     coordinator's failure detection and workflow failover.
//
// The plan is pure data: all randomness derives from `seed` inside the
// FaultInjector (fault/injector.h), so a (plan, scenario) pair reproduces
// bit-identical runs. Plans round-trip through workload::scenario_io via
// the `fault*` directives, keeping chaos scenarios shareable as text.
// Header-only so workload/scenario_io can parse plans without linking the
// injection engine.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/resources.h"

namespace flowtime::fault {

/// One machine (or rack) failure: `capacity` resource units leave the
/// cluster at the start of `down_slot` and return at the start of
/// `up_slot` (-1 = never recovers). Overlapping failures stack.
struct MachineFault {
  int down_slot = 0;
  int up_slot = -1;
  workload::ResourceVec capacity{};
};

/// One declared task-level fault: at the start of `slot` the job loses
/// `lost_fraction` of the progress it has made so far and is barred from
/// running for `backoff_slots` slots before its retry is released.
struct TaskFault {
  int workflow_id = -1;  ///< owning workflow; -1 targets an ad-hoc job
  int node = -1;         ///< DAG node (workflow jobs) or ad-hoc id
  int slot = 0;
  double lost_fraction = 1.0;
  int backoff_slots = 1;
};

/// One declared straggler: from `slot` on, the job's remaining ground-truth
/// work takes `factor`x longer than the estimate assumed (a one-time
/// inflation of the remaining actual demand).
struct StragglerFault {
  int workflow_id = -1;
  int node = -1;
  int slot = 0;
  double factor = 2.0;
};

/// Random churn: every arrived, runnable job fails with `prob_per_slot`
/// each slot (seeded, deterministic), up to `max_retries` times per job.
struct HazardConfig {
  double prob_per_slot = 0.0;
  double lost_fraction = 1.0;
  int backoff_slots = 1;
  int max_retries = 3;

  bool active() const { return prob_per_slot > 0.0; }
};

enum class NoiseModel {
  kNone,
  /// factor *= bias * lognormal(0, sigma): symmetric-in-log noise around
  /// `bias` (the paper's Fig. 9 estimation-error sweep generalized).
  kLognormal,
  /// factor *= bias with bias > 1: every estimate is uniformly too small,
  /// the worst case for a planner that defers work toward the deadline.
  kAdversarial,
};

inline const char* to_string(NoiseModel model) {
  switch (model) {
    case NoiseModel::kNone:
      return "none";
    case NoiseModel::kLognormal:
      return "lognormal";
    case NoiseModel::kAdversarial:
      return "adversarial";
  }
  return "none";
}

/// Ground-truth runtime noise applied to workflow jobs at release. Only the
/// hidden actual_runtime_factor moves; the estimates schedulers see stay
/// untouched, so this models misestimation, not re-profiling.
struct NoiseConfig {
  NoiseModel model = NoiseModel::kNone;
  double sigma = 0.0;  ///< lognormal shape (log-stddev)
  double bias = 1.0;   ///< multiplicative bias (>1 = under-estimation)

  bool active() const { return model != NoiseModel::kNone; }
};

/// How a federation cell (one scheduler shard, cluster/federated_scheduler)
/// fails. The machines behind the cell stay up — it is the *scheduler*
/// process that dies — so cluster capacity is untouched; the cell's slice
/// simply goes unmanaged until recovery.
enum class CellFaultMode {
  /// Process dies: all in-memory state (plan, warm cache, admission ledger)
  /// is lost; recovery restarts from empty. Until `until_slot` (-1 = never
  /// recovers) the cell neither solves nor serves.
  kCrash,
  /// Process lives but stops responding for [slot, until_slot): solves are
  /// preempted, heartbeats miss, no allocations are served. State survives.
  kHang,
  /// Crash/recover cycling: starting at `slot`, the cell toggles
  /// down/up every `period_slots` (optionally jittered from the cell
  /// stream) until `until_slot`. Each down phase has crash semantics.
  kFlap,
  /// The cell's solver is broken for [slot, until_slot): every solve
  /// attempt fails (is preempted), but the cell still serves its last
  /// plan and answers heartbeats.
  kSolverFail,
};

inline const char* to_string(CellFaultMode mode) {
  switch (mode) {
    case CellFaultMode::kCrash:
      return "crash";
    case CellFaultMode::kHang:
      return "hang";
    case CellFaultMode::kFlap:
      return "flap";
    case CellFaultMode::kSolverFail:
      return "solver";
  }
  return "crash";
}

/// One declared cell-level fault. For kCrash/kHang/kSolverFail the fault is
/// active over [slot, until_slot) (-1 = forever). For kFlap the window is
/// subdivided into alternating down/up phases of `period_slots` each,
/// starting down; `jitter` (in [0, 1)) perturbs each phase length by a
/// deterministic draw from the injector's cell stream.
struct CellFault {
  int cell = 0;
  CellFaultMode mode = CellFaultMode::kCrash;
  int slot = 0;
  int until_slot = -1;
  int period_slots = 0;
  double jitter = 0.0;
};

/// Solver sabotage: from the start of `slot` until the start of
/// `until_slot` (-1 = forever) the scheduler's internal solver is squeezed
/// to `budget_ms` of wall clock and `pivot_cap` pivots per planning
/// decision (either may be unlimited: < 0 resp. <= 0), and — when
/// `force_numerical_failure` is set — its primary solve path is declared
/// numerically broken, forcing the escalation ladder to its greedy rung.
/// Overlapping windows merge with the tightest limit winning.
struct SolverFault {
  int slot = 0;
  int until_slot = -1;
  double budget_ms = -1.0;
  std::int64_t pivot_cap = 0;
  bool force_numerical_failure = false;
};

/// The complete fault declaration for one run. Default-constructed plans
/// are empty: the injector becomes a no-op and instrumented binaries are
/// byte-identical to pre-fault builds.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<MachineFault> machines;
  std::vector<TaskFault> task_faults;
  std::vector<StragglerFault> stragglers;
  std::vector<SolverFault> solver_faults;
  std::vector<CellFault> cell_faults;
  HazardConfig hazard;
  NoiseConfig noise;

  bool empty() const {
    return machines.empty() && task_faults.empty() && stragglers.empty() &&
           solver_faults.empty() && cell_faults.empty() && !hazard.active() &&
           !noise.active();
  }
};

}  // namespace flowtime::fault
