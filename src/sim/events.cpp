#include "sim/events.h"

namespace flowtime::sim {

namespace {

struct NameVisitor {
  const char* operator()(const WorkflowArrivalEvent&) const {
    return "workflow_arrival";
  }
  const char* operator()(const AdhocArrivalEvent&) const {
    return "adhoc_arrival";
  }
  const char* operator()(const JobCompleteEvent&) const {
    return "job_complete";
  }
  const char* operator()(const CapacityChangeEvent&) const {
    return "capacity_change";
  }
  const char* operator()(const TaskFailureEvent&) const {
    return "task_failure";
  }
  const char* operator()(const SolverSabotageEvent&) const {
    return "solver_sabotage";
  }
  const char* operator()(const CellFaultEvent&) const { return "cell_fault"; }
};

}  // namespace

const char* event_name(const SchedulerEvent& event) {
  return std::visit(NameVisitor{}, event);
}

bool is_replan_trigger(const SchedulerEvent& event) {
  return !std::holds_alternative<SolverSabotageEvent>(event) &&
         !std::holds_alternative<AdhocArrivalEvent>(event) &&
         !std::holds_alternative<CellFaultEvent>(event);
}

}  // namespace flowtime::sim
