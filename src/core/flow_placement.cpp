#include "core/flow_placement.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lp/lexmin_trace.h"
#include "lp/maxflow.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace flowtime::core {

namespace {

// Slot normalizer floor, as in solve_placement's load rows.
constexpr double kTinyCapacity = 1e-9;
// A max flow routes "all" demand when it falls short by at most this
// fraction of it. The network works in units of the largest slot capacity,
// so this sits far above rounding noise and far below any level gap.
constexpr double kRouteTol = 1e-9;
// solve_flow_placement answers a resource without a solve only when its
// width bound falls short of the demand by more than this fraction of
// max(scale, D): 1000x kRouteTol, so the bound never answers a shortfall
// the level solve would excuse.
constexpr double kWidthBoundTol = 1e-6;

// A job's bound on one slot (a job->interval arc of k slots carries k times
// it). An infinite width binds no tighter than the demand itself: a job
// never places more than its demand in one slot.
double arc_width(const LpJob& job, int r) {
  return std::isinf(job.width[r]) ? job.demand[r] : job.width[r];
}

// What makes a job with nonzero demand unplaceable for resource r before
// any flow is routed, or null. [begin, end] is its clipped window.
const char* job_defect(const LpJob& job, int r, int begin, int end) {
  if (!(job.demand[r] > 0.0) || std::isinf(job.demand[r])) {
    return "a NaN, infinite or negative demand";
  }
  if (!(job.width[r] >= 0.0)) return "a NaN or negative width";
  if (begin > end) return "an empty window";
  return nullptr;
}

// The width bound: with unbounded slot capacity the jobs route at most
// R = sum_j min(d_j, w_j * n_j) of a resource's demand D, n_j being the
// slots of job j's clipped window. True when D - R exceeds kWidthBoundTol *
// max(scale, D) for some resource: the level solve then never routes D and
// reports kInfeasible or kNumericalFailure. False when any job has a defect,
// so the level solve reports it (and logs it) as before.
bool exceeds_width_bound(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot) {
  const int last_slot =
      first_slot + static_cast<int>(capacity_per_slot.size()) - 1;
  bool exceeded = false;
  for (int r = 0; r < workload::kNumResources; ++r) {
    double scale = kTinyCapacity;
    for (const workload::ResourceVec& cap : capacity_per_slot) {
      scale = std::max(scale, cap[r]);
    }
    double demand = 0.0;
    double routable = 0.0;
    for (const LpJob& job : jobs) {
      if (job.demand[r] == 0.0) continue;
      const int begin = std::max(job.release_slot, first_slot);
      const int end = std::min(job.deadline_slot, last_slot);
      if (job_defect(job, r, begin, end) != nullptr) return false;
      demand += job.demand[r];
      routable +=
          std::min(job.demand[r], arc_width(job, r) * (end - begin + 1));
    }
    if (demand - routable > kWidthBoundTol * std::max(scale, demand)) {
      exceeded = true;
    }
  }
  return exceeded;
}

// One job's flow on one elementary interval, in resource-seconds.
struct Share {
  std::size_t job;
  int deadline_slot;
  double width;   // the most the job runs in one slot
  double amount;  // flow not yet placed on a slot
};

// Spreads one interval's flow over its `length` slots from `start` (relative
// to first_slot), earliest deadline first at equal load (header comment),
// and adds each slot's total to `load`.
void split_earliest_deadline_first(std::vector<Share>& shares, int start,
                                   int length,
                                   std::vector<std::vector<double>>& allocation,
                                   std::vector<double>& load) {
  std::sort(shares.begin(), shares.end(), [](const Share& a, const Share& b) {
    return a.deadline_slot != b.deadline_slot
               ? a.deadline_slot < b.deadline_slot
               : a.job < b.job;
  });
  double total = 0.0;
  for (const Share& s : shares) total += s.amount;
  const double per_slot = total / length;
  for (int i = 0; i < length; ++i) {
    const std::size_t t = static_cast<std::size_t>(start + i);
    const double later = length - 1 - i;  // slots after t in the interval
    double left = per_slot;
    for (Share& s : shares) {
      const double must = std::max(0.0, s.amount - s.width * later);
      allocation[s.job][t] = must;
      s.amount -= must;
      left -= must;
    }
    for (Share& s : shares) {
      if (left <= 0.0) break;
      double& x = allocation[s.job][t];
      const double extra = std::min({left, s.width - x, s.amount});
      if (extra <= 0.0) continue;
      x += extra;
      s.amount -= extra;
      left -= extra;
    }
    for (const Share& s : shares) load[t] += allocation[s.job][t];
  }
}

// How much of the lexmin a caller reads.
enum class Depth {
  kLevelOnly,   // the first level's value: no flows, no per-slot rows
  kFirstLevel,  // the first level and per-slot rows achieving it
  kAllLevels,   // every level and the per-slot rows of the last one
};

ResourceFlowLexmin solve_flow_lexmin(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, int r, lp::SolveBudget* budget, Depth depth) {
  const int num_slots = static_cast<int>(capacity_per_slot.size());
  const int last_slot = first_slot + num_slots - 1;
  const bool rows = depth != Depth::kLevelOnly;
  ResourceFlowLexmin result;
  if (rows) {
    result.load.assign(static_cast<std::size_t>(num_slots), 0.0);
    result.allocation.assign(
        jobs.size(), std::vector<double>(static_cast<std::size_t>(num_slots)));
  }

  // C_t, and the same in units of the largest one (the network's units).
  std::vector<double> cap(static_cast<std::size_t>(num_slots));
  double scale = kTinyCapacity;
  for (int t = 0; t < num_slots; ++t) {
    cap[static_cast<std::size_t>(t)] = std::max(
        capacity_per_slot[static_cast<std::size_t>(t)][r], kTinyCapacity);
    scale = std::max(scale, cap[static_cast<std::size_t>(t)]);
  }

  // The jobs with demand and their clipped windows, relative to first_slot.
  struct Window {
    std::size_t job;
    int begin;
    int end;
  };
  std::vector<Window> windows;
  double demand = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const LpJob& job = jobs[j];
    if (job.demand[r] == 0.0) continue;
    result.any_demand = true;
    const int begin = std::max(job.release_slot, first_slot) - first_slot;
    const int end = std::min(job.deadline_slot, last_slot) - first_slot;
    const char* defect = job_defect(job, r, begin, end);
    if (defect != nullptr) {
      FT_LOG(kInfo) << "flow placement: job uid=" << job.uid << " has "
                    << defect << " for resource " << r;
      result.status = lp::SolveStatus::kInfeasible;  // unplaceable
      return result;
    }
    ++result.jobs;
    demand += job.demand[r] / scale;
    windows.push_back(Window{j, begin, end});
  }
  if (!result.any_demand) return result;

  // Elementary intervals: the horizon cut at every window start, every
  // window end + 1 and every change in slot capacity. Interval k is slots
  // [cuts[k], cuts[k + 1]); its slots share a capacity and a set of jobs.
  std::vector<int> cuts = {0, num_slots};
  for (const Window& w : windows) {
    cuts.push_back(w.begin);
    cuts.push_back(w.end + 1);
  }
  for (int t = 1; t < num_slots; ++t) {
    if (cap[static_cast<std::size_t>(t)] !=
        cap[static_cast<std::size_t>(t - 1)]) {
      cuts.push_back(t);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  const int num_intervals = static_cast<int>(cuts.size()) - 1;
  result.intervals = num_intervals;
  const auto interval_of = [&cuts](int t) {
    return static_cast<int>(
        std::upper_bound(cuts.begin(), cuts.end(), t) - cuts.begin() - 1);
  };
  const auto length = [&cuts](int k) {
    return cuts[static_cast<std::size_t>(k) + 1] -
           cuts[static_cast<std::size_t>(k)];
  };
  // Each interval's capacity, sum of its slots' C_t, in network units.
  std::vector<double> unit_cap(static_cast<std::size_t>(num_intervals));
  for (int k = 0; k < num_intervals; ++k) {
    unit_cap[static_cast<std::size_t>(k)] =
        length(k) *
        cap[static_cast<std::size_t>(cuts[static_cast<std::size_t>(k)])] /
        scale;
  }

  // Node layout: 0 = source, 1..J = jobs, J+1..J+K = intervals, J+K+1 =
  // sink. A job->interval arc carries k * w_j for an interval of k slots.
  const int source = 0;
  const int interval_base = 1 + static_cast<int>(jobs.size());
  const int sink = interval_base + num_intervals;
  lp::FlowNetwork network(sink + 1);
  struct Arc {
    std::size_t job;
    int interval;
    int edge;
  };
  std::vector<Arc> arcs;
  std::vector<bool> covered(static_cast<std::size_t>(num_intervals), false);
  for (const Window& w : windows) {
    const LpJob& job = jobs[w.job];
    const int node = 1 + static_cast<int>(w.job);
    network.add_edge(source, node, job.demand[r] / scale);
    const double width = arc_width(job, r);
    for (int k = interval_of(w.begin); k <= interval_of(w.end); ++k) {
      arcs.push_back(Arc{w.job, k,
                         network.add_edge(node, interval_base + k,
                                          length(k) * width / scale)});
      if (width > 0.0) covered[static_cast<std::size_t>(k)] = true;
    }
  }
  result.edges = static_cast<int>(arcs.size());

  // frozen[k]: the level interval k is fixed at; < 0 while free. Uncovered
  // intervals get no sink edge and stay at load 0.
  std::vector<int> sink_edge(static_cast<std::size_t>(num_intervals), -1);
  std::vector<double> frozen(static_cast<std::size_t>(num_intervals), -1.0);
  int free_intervals = 0;
  for (int k = 0; k < num_intervals; ++k) {
    if (!covered[static_cast<std::size_t>(k)]) continue;
    sink_edge[static_cast<std::size_t>(k)] =
        network.add_edge(interval_base + k, sink, 0.0);
    ++free_intervals;
  }
  if (free_intervals == 0) {
    result.status = lp::SolveStatus::kInfeasible;  // every width is zero
    return result;
  }
  const auto is_free = [&](int k) {
    return sink_edge[static_cast<std::size_t>(k)] >= 0 &&
           frozen[static_cast<std::size_t>(k)] < 0.0;
  };

  const double tolerance = kRouteTol * std::max(1.0, demand);
  std::vector<double> flows;  // arc flows of the last completed level
  while (free_intervals > 0) {
    // Fixed intervals keep the capacity they were frozen at.
    double fixed_capacity = 0.0;
    double free_capacity = 0.0;
    for (int k = 0; k < num_intervals; ++k) {
      if (sink_edge[static_cast<std::size_t>(k)] < 0) continue;
      if (is_free(k)) {
        free_capacity += unit_cap[static_cast<std::size_t>(k)];
      } else {
        fixed_capacity += frozen[static_cast<std::size_t>(k)] *
                          unit_cap[static_cast<std::size_t>(k)];
      }
    }
    double u = std::max(0.0, (demand - fixed_capacity) / free_capacity);

    // Newton steps: each lands on the breakpoint of the last max flow's
    // min cut. Successive cuts hold ever fewer free intervals, so at most
    // free_intervals + 1 steps (plus one for rounding) reach the level. u
    // only grows, so each step keeps the previous step's flow and augments
    // it.
    bool routed = false;
    double flow = 0.0;
    for (int step = 0; step <= free_intervals + 1; ++step) {
      for (int k = 0; k < num_intervals; ++k) {
        if (!is_free(k)) continue;
        network.set_capacity(sink_edge[static_cast<std::size_t>(k)],
                             u * unit_cap[static_cast<std::size_t>(k)]);
      }
      flow = step == 0 ? network.max_flow(source, sink, budget)
                       : flow + network.augment(source, sink, budget);
      result.augmentations += network.augmentations();
      if (network.budget_cut()) break;
      if (flow >= demand - tolerance) {
        routed = true;
        break;
      }
      const std::vector<bool> source_side = network.reachable_from(source);
      double slope = 0.0;
      for (int k = 0; k < num_intervals; ++k) {
        if (is_free(k) &&
            source_side[static_cast<std::size_t>(interval_base + k)]) {
          slope += unit_cap[static_cast<std::size_t>(k)];
        }
      }
      if (slope <= 0.0) {
        // The cut's capacity does not grow with u: no level routes D.
        result.status = lp::SolveStatus::kInfeasible;
        return result;
      }
      u += (demand - flow) / slope;
    }
    if (network.budget_cut()) {
      result.budget_exhausted = true;
      if (result.levels.empty()) {
        result.status = budget->exhausted_status();
        return result;
      }
      result.truncated = true;
      break;
    }
    if (!routed) {
      result.status = lp::SolveStatus::kNumericalFailure;
      return result;
    }

    // Freeze the maximal tight set. It is never empty in exact arithmetic;
    // should rounding hide it, the guard freezes every free interval at u.
    const std::vector<bool> reaches_sink = network.reaching(sink);
    std::vector<int> tight;
    for (int k = 0; k < num_intervals; ++k) {
      if (is_free(k) &&
          !reaches_sink[static_cast<std::size_t>(interval_base + k)]) {
        tight.push_back(k);
      }
    }
    if (tight.empty()) {
      for (int k = 0; k < num_intervals; ++k) {
        if (is_free(k)) tight.push_back(k);
      }
    }
    for (int k : tight) frozen[static_cast<std::size_t>(k)] = u;
    free_intervals -= static_cast<int>(tight.size());
    result.levels.push_back(u);
    if (!rows) return result;
    flows.resize(arcs.size());
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      flows[i] = network.flow(arcs[i].edge);
    }
    if (depth == Depth::kFirstLevel) break;
  }

  // Back to slots: each interval's flow, earliest deadline first.
  std::vector<std::vector<Share>> shares(
      static_cast<std::size_t>(num_intervals));
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const LpJob& job = jobs[arcs[i].job];
    shares[static_cast<std::size_t>(arcs[i].interval)].push_back(
        Share{arcs[i].job, job.deadline_slot, arc_width(job, r),
              flows[i] * scale});
  }
  for (int k = 0; k < num_intervals; ++k) {
    split_earliest_deadline_first(shares[static_cast<std::size_t>(k)],
                                  cuts[static_cast<std::size_t>(k)], length(k),
                                  result.allocation, result.load);
  }
  for (int t = 0; t < num_slots; ++t) {
    result.load[static_cast<std::size_t>(t)] /=
        cap[static_cast<std::size_t>(t)];
  }
  return result;
}

}  // namespace

ResourceFlowLexmin solve_resource_flow_lexmin(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, int resource, lp::SolveBudget* budget) {
  if (!obs::enabled()) {
    return solve_flow_lexmin(jobs, capacity_per_slot, first_slot, resource,
                             budget, Depth::kAllLevels);
  }
  double wall_s = 0.0;
  ResourceFlowLexmin result;
  {
    obs::ScopedTimer timer(
        &wall_s, &obs::registry().histogram("lp.lexmin.solve_seconds"));
    result = solve_flow_lexmin(jobs, capacity_per_slot, first_slot, resource,
                               budget, Depth::kAllLevels);
  }
  obs::registry().counter("lp.flow.augmentations").add(result.augmentations);
  lp::LexminTrace trace;
  trace.rows = result.jobs;
  trace.cols = result.edges;
  trace.intervals = result.intervals;
  trace.loads = result.load.size();
  trace.status = result.status;
  trace.rounds = static_cast<int>(result.levels.size());
  trace.pivots = result.augmentations;
  trace.levels = result.levels.size();
  trace.max_level = result.max_level();
  trace.truncated = result.truncated;
  trace.budget_exhausted = result.budget_exhausted;
  trace.wall_s = wall_s;
  lp::record_lexmin_solve(trace);
  return result;
}

ResourceFlowLexmin solve_resource_flow_level(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot, int resource) {
  return solve_flow_lexmin(jobs, capacity_per_slot, first_slot, resource,
                           /*budget=*/nullptr, Depth::kFirstLevel);
}

FlowPlacementResult solve_flow_placement(
    const std::vector<LpJob>& jobs,
    const std::vector<workload::ResourceVec>& capacity_per_slot,
    int first_slot) {
  FlowPlacementResult result;
  if (exceeds_width_bound(jobs, capacity_per_slot, first_slot)) {
    if (obs::enabled()) {
      obs::registry().counter("core.admission.width_limited").add();
    }
    result.min_max_level = std::numeric_limits<double>::infinity();
    return result;
  }
  result.feasible = true;
  for (int r = 0; r < workload::kNumResources; ++r) {
    const ResourceFlowLexmin level =
        solve_flow_lexmin(jobs, capacity_per_slot, first_slot, r,
                          /*budget=*/nullptr, Depth::kLevelOnly);
    if (!level.any_demand) continue;
    if (!level.ok()) {
      result.feasible = false;
      result.min_max_level = std::numeric_limits<double>::infinity();
      return result;
    }
    result.min_max_level = std::max(result.min_max_level, level.max_level());
    if (level.max_level() > 1.0 + 1e-6) result.feasible = false;
  }
  return result;
}

}  // namespace flowtime::core
