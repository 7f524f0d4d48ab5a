#include "sched/morpheus.h"

#include <algorithm>
#include <cmath>
#include <variant>

#include "dag/critical_path.h"
#include "sched/allocation_util.h"

namespace flowtime::sched {

namespace {
constexpr double kTol = 1e-9;
}

MorpheusScheduler::MorpheusScheduler(MorpheusConfig config)
    : config_(std::move(config)) {}

void MorpheusScheduler::on_event(const sim::SchedulerEvent& event) {
  const auto* arrival = std::get_if<sim::WorkflowArrivalEvent>(&event);
  if (arrival == nullptr) return;
  const workload::Workflow& workflow = *arrival->workflow;
  const std::vector<sim::JobUid>& node_uids = arrival->node_uids;
  // Reconstruct the history: earliest finish per node on an uncontended
  // cluster = critical-path earliest start + own minimum runtime.
  std::vector<double> weight;
  weight.reserve(workflow.jobs.size());
  for (const workload::JobSpec& job : workflow.jobs) {
    weight.push_back(job.min_runtime_s(config_.cluster.capacity));
  }
  const auto cp = dag::critical_path(workflow.dag, weight);
  for (dag::NodeId v = 0; v < workflow.dag.num_nodes(); ++v) {
    const double offset =
        cp ? cp->path_until[static_cast<std::size_t>(v)]
           : workflow.deadline_s - workflow.start_s;
    inferred_deadline_by_uid_[node_uids[static_cast<std::size_t>(v)]] =
        workflow.start_s + config_.slo_padding * offset;
  }
}

std::vector<sim::Allocation> MorpheusScheduler::allocate(
    const sim::ClusterState& state) {
  // Reservation pass: deadline jobs, most urgent inferred SLO first, each
  // paced to its SLO.
  std::vector<const sim::JobView*> deadline_views;
  std::vector<const sim::JobView*> adhoc_views;
  for (const sim::JobView& view : state.active) {
    (view.kind == sim::JobKind::kDeadline ? deadline_views : adhoc_views)
        .push_back(&view);
  }
  std::sort(deadline_views.begin(), deadline_views.end(),
            [this](const sim::JobView* a, const sim::JobView* b) {
              const double da = inferred_deadline_by_uid_.at(a->uid);
              const double db = inferred_deadline_by_uid_.at(b->uid);
              if (da != db) return da < db;
              return a->uid < b->uid;
            });
  std::sort(adhoc_views.begin(), adhoc_views.end(),
            [](const sim::JobView* a, const sim::JobView* b) {
              if (a->arrival_s != b->arrival_s) {
                return a->arrival_s < b->arrival_s;
              }
              return a->uid < b->uid;
            });

  std::vector<sim::Allocation> out;
  workload::ResourceVec issued{};
  for (const sim::JobView* view : deadline_views) {
    if (!view->ready) continue;
    const double slo = inferred_deadline_by_uid_.at(view->uid);
    const double slots_left =
        std::max(1.0, (slo - state.now_s) / state.slot_seconds);
    workload::ResourceVec rate{};
    for (int r = 0; r < workload::kNumResources; ++r) {
      const double remaining =
          view->overrun ? view->width[r] : view->remaining_estimate[r];
      rate[r] = std::min(view->width[r], remaining / slots_left);
    }
    rate = workload::elementwise_min(
        rate, workload::clamp_nonnegative(
                  workload::sub(state.capacity, issued)));
    if (workload::is_zero(rate, kTol)) continue;
    issued = workload::add(issued, rate);
    out.push_back(sim::Allocation{view->uid, rate});
  }
  grant_greedy_in_order(adhoc_views, state.capacity,
                        /*respect_estimate=*/true, issued, out);
  return out;
}

}  // namespace flowtime::sched
