// Benchmark job profiles.
//
// The paper's testbed runs HiBench and PUMA MapReduce benchmarks (§VII-A):
// TeraSort, plus word-processing jobs (InvertedIndex, SequenceCount,
// WordCount) and SelfJoin, over >= 10 GB inputs. The cluster only ever
// observes a job as (task count, task runtime, per-task demand), so those
// tuples — sized like typical runs of each benchmark on ~10-50 GB inputs —
// are what this table carries. Ranges are sampled per instantiation.
#pragma once

#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/job.h"

namespace flowtime::workload {

/// Ranges that one benchmark family draws from.
struct JobProfile {
  std::string name;
  int min_tasks = 1;
  int max_tasks = 1;
  double min_task_runtime_s = 1.0;
  double max_task_runtime_s = 1.0;
  ResourceVec task_demand{};  // cores, memory GB per task
};

/// The PUMA/HiBench-like families used by the Fig. 4/5 workloads.
const std::vector<JobProfile>& puma_profiles();

/// Draws a concrete job from a profile.
JobSpec sample_job(const JobProfile& profile, util::Rng& rng);

/// Draws a job from a uniformly chosen family.
JobSpec sample_any_job(util::Rng& rng);

}  // namespace flowtime::workload
