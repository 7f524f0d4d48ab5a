// Measurement harness: replays one workload's scenario set through
// sim::Simulator and times every call the simulator makes into the
// scheduler, from outside the program.
//
// Untraced sets take two clock reads per scheduler call and nothing else
// (no obs, no spans). A traced set additionally records one span per call,
// kept in memory, and on a single-cell workload drives FlowTime's
// sync_views / begin_replan / solve_replan / finish_replan / serve split
// itself so each step gets its own span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenarios.h"

namespace bench {

using Clock = std::chrono::steady_clock;

/// Spans of one traced set. A span has a name, start, end, its parent (the
/// enclosing open span) and a request id: the simulated slot it serves.
/// Self time = duration minus the part covered by child spans.
class SpanRecorder {
 public:
  int begin(const char* name, int request);
  void end(int id);

  /// Summed self time per span name, in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Number of spans per name.
  std::map<std::string, std::int64_t> calls() const;
  /// One JSON object per span; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int request = -1;
  };
  std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What one simulated scenario produced. Everything up to the host timings
/// must be identical whenever the same scenario is replayed (reproduces()).
struct Outcome {
  std::uint64_t fingerprint = 0;
  int deadline_jobs = 0;
  int adhoc_jobs = 0;
  int deadline_misses = 0;
  int workflow_misses = 0;
  int jobs_incomplete = 0;
  int capacity_violations = 0;
  int width_violations = 0;
  int not_ready_allocations = 0;
  /// Every job either completed (after it arrived) or is counted in
  /// jobs_incomplete, and all_completed agrees.
  bool accounting_ok = false;
  int replans = 0;
  std::int64_t pivots = 0;
  std::vector<double> adhoc_turnarounds_s;  // completed ad-hoc jobs

  // Plan statistics, read from the scheduler after the run.
  int truncated_replans = 0;
  int degraded_replans = 0;
  int flow_fast_path_replans = 0;
  std::int64_t lp_jobs = 0;  // summed over adopted replans
  int migrations = 0;
  int failovers = 0;
  int quarantines = 0;

  // Host timings of this replay; they differ between replays.
  double run_s = 0.0;        // Simulator::run
  double scheduler_s = 0.0;  // the part of run_s spent in scheduler calls
  std::vector<double> slot_ms;    // events of the slot + allocate()
  std::vector<double> replan_ms;  // allocate() calls that adopted a plan

  // Scheduler-boundary counters.
  std::int64_t slots = 0;
  std::int64_t job_slots = 0;  // sum of active jobs over slots
  std::int64_t events = 0;

  bool reproduces(const Outcome& other) const;
};

/// One replay of the set: every scenario of the workload, back to back.
struct SetResult {
  double setup_s = 0.0;  // trace generation + scheduler construction
  std::vector<Outcome> outcomes;  // one per scenario, in set order
  /// Federation only, traced: wall time the serving thread spent in
  /// per-cell solve rounds (the coordinator's replan_round_wall_s).
  double round_wall_s = 0.0;
};

/// Generates and runs the set. With `spans` the set is traced.
SetResult run_set(const WorkloadSpec& spec, std::uint64_t seed,
                  SpanRecorder* spans);

/// Set-up alone (generation + construction) for one set, in seconds.
double time_setup(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace bench
