// Phase-level profiling of the simplex/lexmin hot path (DESIGN.md §8).
//
// The simplex engine spends its time in four places — pricing (duals +
// reduced-cost scan), the ratio test (ftran + leaving-row search), the
// rank-1 basis-inverse update, and periodic refactorization. A
// SolveProfile is a plain accumulator for those phase timers plus the
// counters that explain them (degenerate pivots, bound flips, basis
// patches, lexmin rounds).
//
// Contention model: the profile is aggregated THREAD-LOCALLY and merged
// into the process-wide registry exactly once, when the owning
// ScopedSolveProfile closes. The hot loop touches only a plain struct
// through a thread_local pointer — no atomics, no mutexes, no registry
// lookups per pivot — so a concurrent solver pool never serializes on
// instrumentation. When no scope is installed (current_profile() ==
// nullptr) the engine skips every clock read: phase profiling costs
// nothing unless somebody asked for it.
//
// Usage:
//   {
//     lp::ScopedSolveProfile prof("bench_lp_sparse");  // installs TLS ptr
//     ... run simplex / lexmin on this thread ...
//   }  // merges into obs::registry(), emits a "solve_profile" trace event
//
// Scopes do not nest: an inner scope on the same thread is inert (the outer
// one keeps collecting), which lets a caller own the profile while the
// lexmin solver underneath stays oblivious.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace flowtime::lp {

/// Phase timers (seconds) and counters for one profiled solve scope.
/// Everything is cumulative over every simplex/lexmin call the scope saw.
struct SolveProfile {
  // --- simplex phase timers ------------------------------------------------
  double pricing_s = 0.0;       ///< compute_duals + reduced-cost scan
  double ratio_test_s = 0.0;    ///< ftran + leaving-row search
  double basis_update_s = 0.0;  ///< eta-file update + bookkeeping
  double refactor_s = 0.0;      ///< LU refactorizations (all call sites)

  // --- simplex counters ----------------------------------------------------
  std::int64_t solves = 0;             ///< SimplexSolver::solve calls seen
  std::int64_t pivots = 0;             ///< iterations across all solves
  std::int64_t degenerate_pivots = 0;  ///< ratio test hit t ~ 0
  std::int64_t bound_flips = 0;        ///< pivotless entering-variable flips
  std::int64_t refactorizations = 0;   ///< refactorize() calls
  std::int64_t basis_patches = 0;      ///< patch_singular_basis() repairs

  // --- lexmin --------------------------------------------------------------
  std::int64_t lexmin_rounds = 0;  ///< outer fix-and-continue rounds

  /// Seconds attributed to a named phase; total across the four timers.
  double phase_total_s() const {
    return pricing_s + ratio_test_s + basis_update_s + refactor_s;
  }

  void add(const SolveProfile& other);
};

/// The profile the current thread is accumulating into, or nullptr when no
/// scope is active. The simplex engine caches this once per solve.
SolveProfile* current_profile();

/// RAII profiling scope. Installs a fresh SolveProfile as the calling
/// thread's current_profile(); on destruction (obs enabled) merges the
/// totals into obs::registry() — counters `lp.simplex.degenerate_pivots`,
/// `.bound_flips`, `.refactorizations`, `.basis_patches`, histograms
/// `lp.profile.{pricing,ratio_test,basis_update,refactor}_seconds` — and
/// emits one flat `solve_profile` trace event tagged with the constructor's
/// context/slot. A scope constructed while another is active on the same
/// thread is inert (the outer scope keeps collecting).
class ScopedSolveProfile {
 public:
  explicit ScopedSolveProfile(std::string_view context, int slot = -1);
  ~ScopedSolveProfile();

  ScopedSolveProfile(const ScopedSolveProfile&) = delete;
  ScopedSolveProfile& operator=(const ScopedSolveProfile&) = delete;

  /// The totals collected so far (this scope only; empty when inert).
  const SolveProfile& profile() const { return profile_; }
  /// False when an outer scope was already active and this one is inert.
  bool active() const { return active_; }

 private:
  SolveProfile profile_;
  std::string context_;
  int slot_;
  bool active_;
};

}  // namespace flowtime::lp
