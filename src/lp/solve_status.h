// How a solve ended: the status every placement solver reports (the flow
// lexmin of core/flow_placement.h and the greedy fallback) and the
// SolveBudget hands back when it cuts a solve short.
#pragma once

namespace flowtime::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,
  /// A SolveBudget's wall-clock watchdog (or cancellation token) fired
  /// mid-solve. Like kIterationLimit, the solve stopped at a feasible but
  /// unproven point when one was available.
  kTimeout,
};

inline const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration_limit";
    case SolveStatus::kNumericalFailure:
      return "numerical_failure";
    case SolveStatus::kTimeout:
      return "timeout";
  }
  return "?";
}

}  // namespace flowtime::lp
