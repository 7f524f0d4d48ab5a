#include "workload/profiles.h"

namespace flowtime::workload {

const std::vector<JobProfile>& puma_profiles() {
  // Task counts follow input size (~one map task per 128-512 MB block over
  // 10-50 GB); runtimes and per-task footprints follow common YARN container
  // sizing (1 core / 2-4 GB).
  static const std::vector<JobProfile> kProfiles = {
      {"TeraSort", 40, 120, 30.0, 90.0, ResourceVec{1.0, 3.0}},
      {"WordCount", 30, 100, 20.0, 60.0, ResourceVec{1.0, 2.0}},
      {"InvertedIndex", 30, 90, 30.0, 80.0, ResourceVec{1.0, 3.0}},
      {"SequenceCount", 30, 90, 30.0, 90.0, ResourceVec{1.0, 3.0}},
      {"SelfJoin", 20, 80, 40.0, 100.0, ResourceVec{1.0, 4.0}},
      {"AdjacencyList", 20, 60, 30.0, 70.0, ResourceVec{1.0, 2.0}},
      {"HistogramRatings", 10, 50, 20.0, 50.0, ResourceVec{1.0, 2.0}},
  };
  return kProfiles;
}

JobSpec sample_job(const JobProfile& profile, util::Rng& rng) {
  JobSpec job;
  job.name = profile.name;
  job.num_tasks =
      static_cast<int>(rng.uniform_int(profile.min_tasks, profile.max_tasks));
  job.task.runtime_s =
      rng.uniform_real(profile.min_task_runtime_s, profile.max_task_runtime_s);
  job.task.demand = profile.task_demand;
  return job;
}

JobSpec sample_any_job(util::Rng& rng) {
  const auto& profiles = puma_profiles();
  const auto index = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(profiles.size()) - 1));
  return sample_job(profiles[index], rng);
}

}  // namespace flowtime::workload
