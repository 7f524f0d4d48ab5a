#include "lp/lexmin_trace.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace flowtime::lp {

void record_lexmin_solve(const LexminTrace& trace) {
  obs::Registry& reg = obs::registry();
  reg.counter("lp.lexmin.solves").add();
  reg.counter("lp.lexmin.rounds").add(trace.rounds);
  reg.counter("lp.lexmin.pivots").add(trace.pivots);
  if (trace.status != SolveStatus::kOptimal) {
    reg.counter("lp.lexmin.failures").add();
  }
  if (trace.truncated) reg.counter("lp.lexmin.truncations").add();
  obs::emit(obs::TraceEvent("lexmin_solve")
                .field("engine", trace.engine)
                .field("rows", trace.rows)
                .field("cols", trace.cols)
                .field("intervals", trace.intervals)
                .field("loads", trace.loads)
                .field("status", to_string(trace.status))
                .field("rounds", trace.rounds)
                .field("pivots", trace.pivots)
                .field("levels", trace.levels)
                .field("max_level", trace.max_level)
                .field("truncated", trace.truncated)
                .field("budget_exhausted", trace.budget_exhausted)
                .field("wall_s", trace.wall_s));
}

}  // namespace flowtime::lp
