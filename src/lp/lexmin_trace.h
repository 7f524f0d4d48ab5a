// The one observability record of a lexmin solve (DESIGN.md §8): the
// `lexmin_solve` trace event and the lp.lexmin.* counters, shared by every
// engine that solves a lexmin — the flow lexmin of core/flow_placement.h
// and the tests' simplex reference.
#pragma once

#include <cstddef>
#include <cstdint>

#include "lp/solve_status.h"

namespace flowtime::lp {

/// What one lexmin solve reports to observability, whichever engine ran it.
struct LexminTrace {
  const char* engine = "flow";  // "flow" or "simplex"
  int rows = 0;            // jobs with demand (simplex: base rows)
  int cols = 0;            // job->interval arcs (simplex: base columns)
  int intervals = 0;       // interval nodes (simplex: 0)
  std::size_t loads = 0;   // slots (simplex: load rows)
  SolveStatus status = SolveStatus::kOptimal;
  int rounds = 0;          // levels (simplex: lexmin rounds)
  std::int64_t pivots = 0; // augmenting paths (simplex: pivots)
  std::size_t levels = 0;
  double max_level = 0.0;
  bool truncated = false;
  bool budget_exhausted = false;
  double wall_s = 0.0;
};

/// Adds one solve to the lp.lexmin.{solves,rounds,pivots,failures,
/// truncations} counters and emits its `lexmin_solve` trace event. Callers
/// check obs::enabled() first.
void record_lexmin_solve(const LexminTrace& trace);

}  // namespace flowtime::lp
