// Observability metrics: a process-wide registry of named counters, gauges
// and histograms, plus RAII wall-clock timers.
//
// Design constraints (DESIGN.md "Observability"):
//   * Near-zero overhead when disabled. Every instrumentation site guards
//     itself with a single relaxed atomic load (`obs::enabled()`); nothing
//     else — no map lookups, no clock reads — happens on the disabled path.
//   * No library writes to stdout (benches own stdout); textual renderings
//     are returned as strings for the caller to place.
//   * Metric handles returned by the registry are stable for the process
//     lifetime, so hot paths may cache `Counter&` references.
//
// Metric names are dot-separated paths, lowest-level component last:
// "lp.flow.augmentations", "core.replans", "sim.slots".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace flowtime::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Master switch for the whole observability layer. Disabled by default so
/// tests and benches pay nothing; enabling is cheap and idempotent.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool enabled);

/// Monotonic event count. Thread-safe.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written value. Thread-safe.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Sample accumulator with full retention (the solver emits a few thousand
/// observations per run at most, so keeping every sample is cheap and lets
/// callers compute exact percentiles). Thread-safe.
class Histogram {
 public:
  void observe(double value);

  std::int64_t count() const;
  double sum() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  double mean() const; // 0 when empty
  /// Exact nearest-rank quantile over all samples, q in [0, 1]; 0 when
  /// empty. Delegates to util::quantile — one convention codebase-wide.
  /// Copies and sorts per call; use quantiles() to read several at once.
  double percentile(double q) const;
  /// All requested quantiles from a single copy + sort of the samples.
  /// Returns one value per entry of `qs` (each in [0, 1], clamped).
  /// Registry::snapshot and render_text use this so a snapshot costs one
  /// sort per histogram instead of one per quantile.
  std::vector<double> quantiles(const std::vector<double>& qs) const;
  std::vector<double> samples() const;
  /// Text rendering via util::render_histogram.
  std::string render(const util::HistogramOptions& options = {}) const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
  double sum_ = 0.0;
};

/// Point-in-time copy of every metric in a registry, for exporters that
/// need to iterate (obs/export.h renders it as Prometheus text) without
/// holding registry locks while formatting.
struct MetricSnapshot {
  struct HistogramStats {
    std::string name;
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  std::vector<std::pair<std::string, std::int64_t>> counters;  // sorted
  std::vector<std::pair<std::string, double>> gauges;          // sorted
  std::vector<HistogramStats> histograms;                      // sorted
};

/// Named metric store. Lookup creates on first use; returned references are
/// valid for the registry's lifetime.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// All metrics as sorted "name value" / "name count mean p50 p95 p99 max"
  /// lines, for dumping at the end of a bench run.
  std::string render_text() const;

  /// Copies every metric's current value (histograms reduced to count/sum/
  /// min/max and exact p50/p90/p95/p99).
  MetricSnapshot snapshot() const;

  /// Zeroes every existing metric (handles stay valid). Tests use this
  /// between cases.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every instrumentation site uses.
Registry& registry();

/// RAII wall-clock timer (steady clock). On destruction writes elapsed
/// seconds to the optional out-parameter and/or observes it into the
/// optional histogram. Construct only on the enabled path — the constructor
/// reads the clock unconditionally.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* elapsed_out, Histogram* histogram = nullptr);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Seconds elapsed so far without stopping the timer.
  double elapsed_s() const;

 private:
  double* out_;
  Histogram* histogram_;
  std::uint64_t start_ns_;
};

}  // namespace flowtime::obs
