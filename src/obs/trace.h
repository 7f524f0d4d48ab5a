// Structured JSONL event tracing.
//
// Every event is one flat JSON object per line: a "type" field plus
// primitive key/value pairs (string, number, bool). Flat objects keep the
// sink trivial, make traces greppable, and let the bundled parser
// (parse_flat_json) validate them without a JSON library — the same parser
// the trace_smoke ctest target and obs_test use.
//
// Emission is two-stage:
//   1. the instrumentation site guards on `obs::enabled()` (one atomic
//      load; see metrics.h) and only then builds a TraceEvent,
//   2. `obs::emit(event)` forwards the rendered line to the installed
//      TraceSink, or drops it when none is installed.
//
// The event schema (types and their fields) is documented in DESIGN.md
// "Observability"; changing a field name there is a compatibility break for
// trace consumers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace flowtime::obs {

/// Appends `text` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, newline, tab and carriage return take their short
/// escapes, and every other byte below 0x20 becomes \u00XX. TraceEvent and
/// the Chrome exporter both quote their strings with it.
void append_escaped(std::string* out, std::string_view text);

/// Builder for one flat JSON event line. Field order is preserved.
class TraceEvent {
 public:
  explicit TraceEvent(std::string_view type);

  TraceEvent& field(std::string_view key, double value);
  TraceEvent& field(std::string_view key, std::int64_t value);
  TraceEvent& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  TraceEvent& field(std::string_view key, std::size_t value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  TraceEvent& field(std::string_view key, bool value);
  TraceEvent& field(std::string_view key, std::string_view value);
  TraceEvent& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }

  /// The finished line, e.g. {"type":"replan","slot":4,"cause":"overrun"}.
  std::string to_json() const;

 private:
  std::string body_;  // comma-joined "key":value pairs, sans braces
};

/// Receives rendered JSONL lines (no trailing newline). Implementations
/// must be safe to call from the thread that owns the solver/simulator;
/// the bundled sinks are fully thread-safe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const std::string& json_line) = 0;
};

/// Appends one line per event to a file. Buffered; flushed on destruction.
class JsonlFileSink : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  /// False when the file could not be opened; writes are then dropped.
  bool ok() const { return file_ != nullptr; }
  void write(const std::string& json_line) override;

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
};

/// Collects lines in memory — the test sink.
class MemorySink : public TraceSink {
 public:
  void write(const std::string& json_line) override;
  std::vector<std::string> lines() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

/// Installs the process-wide sink (replacing any previous one) and enables
/// the observability layer. Passing nullptr is equivalent to
/// clear_trace_sink().
void set_trace_sink(std::unique_ptr<TraceSink> sink);

/// Removes the sink (flushing file sinks) and disables the layer.
void clear_trace_sink();

/// The installed sink, or nullptr. The returned pointer stays valid until
/// the next set_trace_sink/clear_trace_sink call.
TraceSink* trace_sink();

/// Renders and forwards `event` to the installed sink; no-op without one.
void emit(const TraceEvent& event);

/// Convenience for binaries with a --trace-out flag: installs a
/// JsonlFileSink at `path` and enables the layer. Returns false (and
/// installs nothing) when the file cannot be opened.
bool open_trace_file(const std::string& path);

/// Process-wide monotonically increasing causality id (starts at 1). The
/// concurrent runtime stamps one on every queued SchedulerEvent and on every
/// replan attempt so the `event_enqueued → batch_formed → solve_* →
/// plan_adopted|plan_discarded` chain can be re-joined from the flat JSONL
/// stream. Thread-safe; cheap enough to call on the enabled path only.
std::int64_t next_trace_id();

/// Small dense per-thread lane id (0, 1, 2, ... in first-call order). Causal
/// trace events carry it as "lane" so the Chrome-trace exporter can rebuild a
/// real-thread view (serving lane, solver-pool lanes, producer lanes) without
/// leaking raw OS thread ids into the trace. Stable for the thread's life.
int thread_lane();

/// Wall clock in seconds since the first obs timestamp of the process
/// (steady_clock, so monotonic). Shared by spans and causal events — one
/// timebase means per-stage latencies subtract exactly.
double wall_now_s();

/// Restarts trace ids from 1. Test isolation only
/// (obs::testing::ScopedRegistryReset); never call mid-run. Thread lanes are
/// deliberately NOT reset: they are thread_local and outlive tests.
void reset_trace_ids_for_testing();

/// Parses one flat JSON object line as produced by TraceEvent. On success
/// fills `out` with key -> raw value (strings unescaped and unquoted,
/// numbers/bools as their literal text) and returns true. Rejects nested
/// objects/arrays and malformed syntax — strict enough to make the
/// trace_smoke target a real format check.
bool parse_flat_json(const std::string& line,
                     std::map<std::string, std::string>* out);

}  // namespace flowtime::obs
