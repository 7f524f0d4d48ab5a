#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "util/stats.h"

namespace flowtime::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool enabled) {
  detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

void Histogram::observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(value);
  sum_ += value;
}

std::int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(samples_.size());
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Histogram::percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return util::quantile(samples_, q);
}

std::vector<double> Histogram::quantiles(const std::vector<double>& qs) const {
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted = samples_;
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) out.push_back(util::sorted_quantile(sorted, q));
  return out;
}

std::vector<double> Histogram::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  sum_ = 0.0;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string Registry::render_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << name << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out << name << " " << gauge->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::vector<double> qs = histogram->quantiles({0.5, 0.95, 0.99});
    out << name << " count=" << histogram->count()
        << " mean=" << histogram->mean()
        << " p50=" << qs[0]
        << " p95=" << qs[1]
        << " p99=" << qs[2]
        << " max=" << histogram->max() << "\n";
  }
  return out.str();
}

MetricSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricSnapshot::HistogramStats stats;
    stats.name = name;
    stats.count = histogram->count();
    stats.sum = histogram->sum();
    stats.min = histogram->min();
    stats.max = histogram->max();
    const std::vector<double> qs =
        histogram->quantiles({0.5, 0.9, 0.95, 0.99});
    stats.p50 = qs[0];
    stats.p90 = qs[1];
    stats.p95 = qs[2];
    stats.p99 = qs[3];
    snap.histograms.push_back(std::move(stats));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: lives for the process
  return *instance;
}

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ScopedTimer::ScopedTimer(double* elapsed_out, Histogram* histogram)
    : out_(elapsed_out), histogram_(histogram), start_ns_(now_ns()) {}

double ScopedTimer::elapsed_s() const {
  return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

ScopedTimer::~ScopedTimer() {
  const double elapsed = elapsed_s();
  if (out_ != nullptr) *out_ = elapsed;
  if (histogram_ != nullptr) histogram_->observe(elapsed);
}

}  // namespace flowtime::obs
