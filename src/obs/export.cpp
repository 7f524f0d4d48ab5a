#include "obs/export.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace flowtime::obs {

namespace {

std::string escaped(std::string_view text) {
  std::string out;
  append_escaped(&out, text);
  return out;
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

double field_double(const TraceRecord& record, const char* key,
                    double fallback = 0.0) {
  const auto it = record.find(key);
  if (it == record.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  return end != it->second.c_str() ? value : fallback;
}

std::string field_string(const TraceRecord& record, const char* key,
                         const std::string& fallback = "") {
  const auto it = record.find(key);
  return it == record.end() ? fallback : it->second;
}

// Remaining record fields rendered as an "args" object (values kept as
// strings: lossless, and Perfetto displays them fine).
std::string args_object(const TraceRecord& record) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : record) {
    if (key == "type") continue;
    if (!first) out += ",";
    first = false;
    out += escaped(key) + ":" + escaped(value);
  }
  out += "}";
  return out;
}

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::string kind;
  std::string name;
  double begin_s = 0.0;
  double end_s = 0.0;
  bool ended = false;
  TraceRecord begin_record;
  int pid = 0;
  int tid = 0;
};

bool is_instant_type(const std::string& type) {
  return type == "replan" || type == "deadline_risk" ||
         type == "workflow_arrival" || type == "admission" ||
         type == "config_skew" || type == "migration" ||
         type == "cell_overload" || type == "route_infeasible" ||
         type == "workflow_forgotten" || type == "cell_failed" ||
         type == "cell_recovered" || type == "failover";
}

// Track label for an instant event: events stamped with a federation cell
// get one track per (type, cell) — "replan cell 3" — instead of silently
// interleaving every cell's replans on one track.
std::string instant_track(const TraceRecord& record,
                          const std::string& type) {
  const auto cell = record.find("cell");
  if (cell == record.end()) return type;
  return type + " cell " + cell->second;
}

}  // namespace

namespace {

// Bookkeeping for the real-thread-id ("runtime threads") view rebuilt from
// the concurrent runtime's causal-chain events. All stamps are wall-clock
// seconds (obs::wall_now_s timebase).
struct QueuedEventStamp {
  double enqueue_wall_s = 0.0;
  double dequeue_wall_s = -1.0;  // <0: never drained
  int lane = 0;                  // producer lane
  std::string event;             // sim event name
  bool trigger = false;
  std::int64_t batch = 0;        // 0: never drained
};

struct ReplanStamp {
  double begin_wall_s = -1.0;
  double done_wall_s = -1.0;
  double end_wall_s = -1.0;
  int serving_lane = 0;
  int solver_lane = 0;
  bool adopted = false;
  TraceRecord terminal;  // stage decomposition, shown as slice args
};

}  // namespace

std::string render_chrome_trace(const std::vector<TraceRecord>& events) {
  std::map<std::int64_t, Span> spans;   // by span id, insertion = id order
  std::vector<const TraceRecord*> instants;
  std::map<std::int64_t, QueuedEventStamp> chain_events;  // by event trace id
  std::map<std::int64_t, std::int64_t> batch_replan;      // batch → replan
  std::map<std::int64_t, ReplanStamp> replans;            // by replan trace id
  double latest_s = 0.0;

  for (const TraceRecord& record : events) {
    const std::string type = field_string(record, "type");
    const double sim_s = field_double(record, "sim_s",
                                      field_double(record, "now_s"));
    latest_s = std::max(latest_s, sim_s);
    if (type == "event_enqueued") {
      QueuedEventStamp& stamp =
          chain_events[static_cast<std::int64_t>(field_double(record,
                                                              "trace"))];
      stamp.enqueue_wall_s = field_double(record, "wall_s");
      stamp.lane = static_cast<int>(field_double(record, "lane"));
      stamp.event = field_string(record, "event");
      stamp.trigger = field_string(record, "trigger") == "true";
      continue;
    }
    if (type == "event_dequeued") {
      QueuedEventStamp& stamp =
          chain_events[static_cast<std::int64_t>(field_double(record,
                                                              "trace"))];
      stamp.dequeue_wall_s = field_double(record, "wall_s");
      stamp.batch = static_cast<std::int64_t>(field_double(record, "batch"));
      continue;
    }
    if (type == "batch_planned") {
      batch_replan[static_cast<std::int64_t>(field_double(record, "batch"))] =
          static_cast<std::int64_t>(field_double(record, "replan"));
      continue;
    }
    if (type == "solve_begin") {
      ReplanStamp& stamp =
          replans[static_cast<std::int64_t>(field_double(record, "replan"))];
      stamp.begin_wall_s = field_double(record, "wall_s");
      stamp.serving_lane = static_cast<int>(field_double(record, "lane"));
      continue;
    }
    if (type == "solve_done") {
      ReplanStamp& stamp =
          replans[static_cast<std::int64_t>(field_double(record, "replan"))];
      stamp.done_wall_s = field_double(record, "wall_s");
      stamp.solver_lane = static_cast<int>(field_double(record, "lane"));
      continue;
    }
    if (type == "plan_adopted" || type == "plan_discarded") {
      ReplanStamp& stamp =
          replans[static_cast<std::int64_t>(field_double(record, "replan"))];
      stamp.end_wall_s = field_double(record, "wall_s");
      stamp.adopted = type == "plan_adopted";
      stamp.terminal = record;
      continue;
    }
    if (type == "span_begin") {
      Span span;
      span.id = static_cast<std::int64_t>(field_double(record, "span"));
      span.parent = static_cast<std::int64_t>(field_double(record, "parent"));
      span.kind = field_string(record, "kind");
      span.name = field_string(record, "name");
      span.begin_s = sim_s;
      span.begin_record = record;
      spans[span.id] = std::move(span);
    } else if (type == "span_end") {
      const auto it = spans.find(
          static_cast<std::int64_t>(field_double(record, "span")));
      if (it != spans.end()) {
        it->second.end_s = sim_s;
        it->second.ended = true;
      }
    } else if (is_instant_type(type)) {
      instants.push_back(&record);
    }
  }

  // Project the span tree onto Chrome's pid/tid axes: one pid per workflow
  // span (slice on tid 0), one tid per job under it, nested spans inherit
  // their parent's tid; everything outside a workflow shares pid 0.
  int next_pid = 1;
  std::map<int, int> next_tid;  // per pid; 0 is the workflow slice itself
  next_tid[0] = 1;
  std::map<int, std::string> process_names;
  std::map<std::pair<int, int>, std::string> thread_names;
  process_names[0] = "cluster";
  for (auto& [id, span] : spans) {
    (void)id;
    if (span.kind == "workflow") {
      span.pid = next_pid++;
      span.tid = 0;
      next_tid[span.pid] = 1;
      process_names[span.pid] = span.name;
      thread_names[{span.pid, 0}] = "workflow";
      continue;
    }
    const auto parent_it = spans.find(span.parent);
    if (parent_it == spans.end()) {  // root span outside any workflow
      span.pid = 0;
      span.tid = next_tid[0]++;
      thread_names[{0, span.tid}] = span.kind + " " + span.name;
    } else if (parent_it->second.kind == "workflow") {
      span.pid = parent_it->second.pid;
      span.tid = next_tid[span.pid]++;
      thread_names[{span.pid, span.tid}] = span.name;
    } else {  // nested (placement under job): share the parent's track
      span.pid = parent_it->second.pid;
      span.tid = parent_it->second.tid;
    }
  }
  // Instant events get one track per (type, cell) under pid 0.
  std::map<std::string, int> instant_tids;
  for (const TraceRecord* record : instants) {
    const std::string track =
        instant_track(*record, field_string(*record, "type"));
    if (!instant_tids.count(track)) {
      const int tid = next_tid[0]++;
      instant_tids[track] = tid;
      thread_names[{0, tid}] = track;
    }
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& event_json) {
    if (!first) out += ",";
    first = false;
    out += "\n" + event_json;
  };
  for (const auto& [pid, name] : process_names) {
    append("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":" +
           escaped(name) + "}}");
  }
  for (const auto& [key, name] : thread_names) {
    append("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
           std::to_string(key.first) + ",\"tid\":" +
           std::to_string(key.second) + ",\"args\":{\"name\":" +
           escaped(name) + "}}");
  }
  for (const auto& [id, span] : spans) {
    (void)id;
    const double end_s = span.ended ? span.end_s : latest_s;
    append("{\"ph\":\"X\",\"name\":" + escaped(span.name) +
           ",\"cat\":" + escaped(span.kind) +
           ",\"ts\":" + number(span.begin_s * 1e6) +
           ",\"dur\":" + number(std::max(end_s - span.begin_s, 0.0) * 1e6) +
           ",\"pid\":" + std::to_string(span.pid) +
           ",\"tid\":" + std::to_string(span.tid) +
           ",\"args\":" + args_object(span.begin_record) + "}");
  }
  for (const TraceRecord* record : instants) {
    const std::string type = field_string(*record, "type");
    std::string name = type;
    if (type == "replan") {
      name += "(" + field_string(*record, "cause") + ")";
    } else if (type == "deadline_risk") {
      name += ":" + field_string(*record, "level");
    }
    append("{\"ph\":\"i\",\"s\":\"g\",\"name\":" + escaped(name) +
           ",\"cat\":" + escaped(type) +
           // Federation events stamp sim_s; core events stamp now_s.
           ",\"ts\":" +
           number(field_double(*record, "now_s",
                               field_double(*record, "sim_s")) *
                  1e6) +
           ",\"pid\":0,\"tid\":" +
           std::to_string(instant_tids[instant_track(*record, type)]) +
           ",\"args\":" + args_object(*record) + "}");
  }
  // --- Real-thread ("runtime threads") view ------------------------------
  // Rebuilt from the concurrent runtime's causal-chain events; timestamps
  // here are wall-clock microseconds (obs::wall_now_s timebase), because
  // the chain crosses threads and sim time cannot order it. Lanes are the
  // obs::thread_lane ids the events were emitted from.
  if (!chain_events.empty() || !replans.empty()) {
    constexpr int kRuntimePid = 9000;
    // Role per lane, highest wins: serving > solver > producer. The serving
    // lane usually also produces events (single-threaded sim loop).
    std::map<int, int> lane_role;  // 1 producer, 2 solver, 3 serving
    auto raise_role = [&](int lane, int role) {
      int& slot = lane_role[lane];
      slot = std::max(slot, role);
    };
    for (const auto& [trace, stamp] : chain_events) {
      (void)trace;
      raise_role(stamp.lane, 1);
    }
    for (const auto& [id, stamp] : replans) {
      (void)id;
      if (stamp.begin_wall_s >= 0.0) raise_role(stamp.serving_lane, 3);
      if (stamp.done_wall_s >= 0.0) raise_role(stamp.solver_lane, 2);
    }
    append("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
           std::to_string(kRuntimePid) +
           ",\"tid\":0,\"args\":{\"name\":\"runtime threads (wall-clock "
           "us)\"}}");
    for (const auto& [lane, role] : lane_role) {
      const char* kind = role == 3 ? "serving" : role == 2 ? "solver"
                                                           : "producer";
      append("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
             std::to_string(kRuntimePid) + ",\"tid\":" +
             std::to_string(lane) + ",\"args\":{\"name\":\"lane " +
             std::to_string(lane) + " (" + kind + ")\"}}");
    }
    // Queue-wait slices on the producing lane: enqueue → drain.
    for (const auto& [trace, stamp] : chain_events) {
      if (stamp.dequeue_wall_s < 0.0) continue;  // never drained
      append("{\"ph\":\"X\",\"name\":" + escaped("queue:" + stamp.event) +
             ",\"cat\":\"queue_wait\",\"ts\":" +
             number(stamp.enqueue_wall_s * 1e6) + ",\"dur\":" +
             number(std::max(stamp.dequeue_wall_s - stamp.enqueue_wall_s,
                             0.0) * 1e6) +
             ",\"pid\":" + std::to_string(kRuntimePid) +
             ",\"tid\":" + std::to_string(stamp.lane) +
             ",\"args\":{\"trace\":" + escaped(std::to_string(trace)) +
             ",\"trigger\":" + escaped(stamp.trigger ? "true" : "false") +
             ",\"batch\":" + escaped(std::to_string(stamp.batch)) + "}}");
    }
    // Solve slices on the solver lane (submission → solver done; includes
    // pool dispatch wait) and adoption slices on the serving lane (solver
    // done → harvest).
    for (const auto& [id, stamp] : replans) {
      if (stamp.begin_wall_s >= 0.0 && stamp.done_wall_s >= 0.0) {
        append("{\"ph\":\"X\",\"name\":" +
               escaped("solve#" + std::to_string(id)) +
               ",\"cat\":\"solve\",\"ts\":" +
               number(stamp.begin_wall_s * 1e6) + ",\"dur\":" +
               number(std::max(stamp.done_wall_s - stamp.begin_wall_s, 0.0) *
                      1e6) +
               ",\"pid\":" + std::to_string(kRuntimePid) +
               ",\"tid\":" + std::to_string(stamp.solver_lane) +
               ",\"args\":{\"replan\":" + escaped(std::to_string(id)) +
               "}}");
      }
      if (stamp.done_wall_s >= 0.0 && stamp.end_wall_s >= 0.0) {
        append("{\"ph\":\"X\",\"name\":" +
               escaped((stamp.adopted ? "adopt#" : "discard#") +
                       std::to_string(id)) +
               ",\"cat\":\"adoption\",\"ts\":" +
               number(stamp.done_wall_s * 1e6) + ",\"dur\":" +
               number(std::max(stamp.end_wall_s - stamp.done_wall_s, 0.0) *
                      1e6) +
               ",\"pid\":" + std::to_string(kRuntimePid) +
               ",\"tid\":" + std::to_string(stamp.serving_lane) +
               ",\"args\":" + args_object(stamp.terminal) + "}");
      }
    }
    // Flow arrows along each trigger event's causal chain: queue slice →
    // solve slice → adoption slice, id = the event's trace id.
    for (const auto& [trace, stamp] : chain_events) {
      if (!stamp.trigger || stamp.dequeue_wall_s < 0.0) continue;
      const auto replan_it = batch_replan.find(stamp.batch);
      if (replan_it == batch_replan.end()) continue;
      const auto stamp_it = replans.find(replan_it->second);
      if (stamp_it == replans.end()) continue;
      const ReplanStamp& replan = stamp_it->second;
      if (replan.begin_wall_s < 0.0 || replan.done_wall_s < 0.0 ||
          replan.end_wall_s < 0.0) {
        continue;
      }
      const std::string common =
          ",\"id\":" + std::to_string(trace) +
          ",\"name\":\"chain\",\"cat\":\"chain\",\"pid\":" +
          std::to_string(kRuntimePid);
      append("{\"ph\":\"s\"" + common +
             ",\"ts\":" + number(stamp.enqueue_wall_s * 1e6) +
             ",\"tid\":" + std::to_string(stamp.lane) + "}");
      append("{\"ph\":\"t\"" + common +
             ",\"ts\":" + number(replan.begin_wall_s * 1e6) +
             ",\"tid\":" + std::to_string(replan.solver_lane) + "}");
      append("{\"ph\":\"f\",\"bp\":\"e\"" + common +
             ",\"ts\":" + number(replan.done_wall_s * 1e6) +
             ",\"tid\":" + std::to_string(replan.serving_lane) + "}");
    }
  }
  out += "\n]}\n";
  return out;
}

namespace {

/// Splits a per-cell metric name ("cluster.cell.<id>.<rest>") into its cell
/// id and family ("cluster.cell.<rest>"), so the Prometheus rendering can
/// turn the id into a proper {cell="N"} label instead of minting one metric
/// family per cell. Returns false for every other name.
bool split_cell_metric(const std::string& name, std::string* family,
                       std::string* cell) {
  constexpr const char* kPrefix = "cluster.cell.";
  constexpr std::size_t kPrefixLen = 13;
  if (name.rfind(kPrefix, 0) != 0) return false;
  const std::size_t dot = name.find('.', kPrefixLen);
  if (dot == std::string::npos || dot == kPrefixLen) return false;
  const std::string id = name.substr(kPrefixLen, dot - kPrefixLen);
  for (const char c : id) {
    if (c < '0' || c > '9') return false;
  }
  *cell = id;
  *family = std::string("cluster.cell.") + name.substr(dot + 1);
  return true;
}

}  // namespace

std::string render_prometheus(const MetricSnapshot& snapshot,
                              const std::string& prefix) {
  auto sanitize = [&](const std::string& name) {
    std::string out = prefix.empty() ? "" : prefix + "_";
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      out.push_back(ok ? c : '_');
    }
    return out;
  };
  std::string out;
  // Per-cell series grouped by family so each family gets one TYPE line.
  std::map<std::string, std::string> cell_series;  // family -> rendered lines
  std::string family;
  std::string cell;
  for (const auto& [name, value] : snapshot.counters) {
    if (split_cell_metric(name, &family, &cell)) {
      cell_series[sanitize(family) + "_total\tcounter"] +=
          sanitize(family) + "_total{cell=\"" + cell + "\"} " +
          std::to_string(value) + "\n";
      continue;
    }
    const std::string metric = sanitize(name) + "_total";
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (split_cell_metric(name, &family, &cell)) {
      cell_series[sanitize(family) + "\tgauge"] +=
          sanitize(family) + "{cell=\"" + cell + "\"} " + number(value) + "\n";
      continue;
    }
    const std::string metric = sanitize(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + number(value) + "\n";
  }
  for (const MetricSnapshot::HistogramStats& stats : snapshot.histograms) {
    const bool per_cell = split_cell_metric(stats.name, &family, &cell);
    const std::string metric = sanitize(per_cell ? family : stats.name);
    const std::string label = per_cell ? "cell=\"" + cell + "\"," : "";
    std::string lines;
    lines += metric + "{" + label + "quantile=\"0.5\"} " + number(stats.p50) +
             "\n";
    lines += metric + "{" + label + "quantile=\"0.9\"} " + number(stats.p90) +
             "\n";
    lines += metric + "{" + label + "quantile=\"0.95\"} " +
             number(stats.p95) + "\n";
    lines += metric + "{" + label + "quantile=\"0.99\"} " +
             number(stats.p99) + "\n";
    lines += metric + "_sum" +
             (per_cell ? "{cell=\"" + cell + "\"}" : std::string()) + " " +
             number(stats.sum) + "\n";
    lines += metric + "_count" +
             (per_cell ? "{cell=\"" + cell + "\"}" : std::string()) + " " +
             std::to_string(stats.count) + "\n";
    if (per_cell) {
      cell_series[metric + "\tsummary"] += lines;
    } else {
      out += "# TYPE " + metric + " summary\n";
      out += lines;
    }
  }
  for (const auto& [key, lines] : cell_series) {
    const std::size_t tab = key.find('\t');
    out += "# TYPE " + key.substr(0, tab) + " " + key.substr(tab + 1) + "\n";
    out += lines;
  }
  return out;
}

}  // namespace flowtime::obs
