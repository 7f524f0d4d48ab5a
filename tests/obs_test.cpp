// Tests for the observability layer: metrics registry semantics, trace
// event rendering, sink installation, the flat-JSON parser the smoke
// targets rely on, lifecycle spans, and the Chrome/Prometheus exporters.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/testing.h"
#include "obs/trace.h"

namespace flowtime::obs {
namespace {

// Every test starts from and leaves behind a pristine obs layer: disabled,
// no sink, empty registry, no open spans, no tracked deadlines.
class ObsTest : public ::testing::Test {
 protected:
  testing::ScopedRegistryReset reset_;
};

TEST_F(ObsTest, DisabledByDefaultAndToggles) {
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  Counter& c = registry().counter("test.counter");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, RegistryReturnsStableHandles) {
  Counter& a = registry().counter("test.stable");
  a.add(7);
  Counter& b = registry().counter("test.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7);
  // Distinct names get distinct metrics.
  EXPECT_NE(&a, &registry().counter("test.stable2"));
}

TEST_F(ObsTest, GaugeKeepsLastValue) {
  Gauge& g = registry().gauge("test.gauge");
  g.set(2.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST_F(ObsTest, HistogramStatisticsAreExact) {
  Histogram& h = registry().histogram("test.hist");
  for (const double v : {4.0, 1.0, 3.0, 2.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST_F(ObsTest, RegistryRenderListsMetrics) {
  registry().counter("test.render.count").add(3);
  registry().histogram("test.render.lat").observe(0.5);
  const std::string text = registry().render_text();
  EXPECT_NE(text.find("test.render.count"), std::string::npos);
  EXPECT_NE(text.find("test.render.lat"), std::string::npos);
}

TEST_F(ObsTest, ScopedTimerWritesElapsedAndHistogram) {
  Histogram& h = registry().histogram("test.timer");
  double elapsed = -1.0;
  {
    ScopedTimer timer(&elapsed, &h);
    EXPECT_GE(timer.elapsed_s(), 0.0);
  }
  EXPECT_GE(elapsed, 0.0);
  EXPECT_EQ(h.count(), 1);
}

TEST_F(ObsTest, TraceEventRendersFlatJson) {
  const std::string json = TraceEvent("unit")
                               .field("i", 7)
                               .field("d", 1.5)
                               .field("b", true)
                               .field("s", "x\"y\n")
                               .to_json();
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(parse_flat_json(json, &fields));
  EXPECT_EQ(fields.at("type"), "unit");
  EXPECT_EQ(fields.at("i"), "7");
  EXPECT_EQ(fields.at("d"), "1.5");
  EXPECT_EQ(fields.at("b"), "true");
  EXPECT_EQ(fields.at("s"), "x\"y\n");  // round-trips through escaping
}

TEST_F(ObsTest, TraceEventStringifiesNonFiniteNumbers) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::string json = TraceEvent("unit")
                               .field("pos", inf)
                               .field("neg", -inf)
                               .field("nan", std::nan(""))
                               .to_json();
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(parse_flat_json(json, &fields));
  EXPECT_EQ(fields.at("pos"), "inf");
  EXPECT_EQ(fields.at("neg"), "-inf");
  EXPECT_EQ(fields.at("nan"), "nan");
}

TEST_F(ObsTest, SinkInstallationEnablesLayerAndReceivesEvents) {
  auto owned = std::make_unique<MemorySink>();
  MemorySink* sink = owned.get();
  set_trace_sink(std::move(owned));
  EXPECT_TRUE(enabled());
  emit(TraceEvent("first").field("k", 1));
  emit(TraceEvent("second").field("k", 2));
  ASSERT_EQ(sink->lines().size(), 2u);
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(parse_flat_json(sink->lines()[1], &fields));
  EXPECT_EQ(fields.at("type"), "second");

  clear_trace_sink();
  EXPECT_FALSE(enabled());
  EXPECT_EQ(trace_sink(), nullptr);
  emit(TraceEvent("dropped"));  // no sink: silently discarded
}

TEST_F(ObsTest, ParserRejectsMalformedLines) {
  std::map<std::string, std::string> fields;
  EXPECT_FALSE(parse_flat_json("", &fields));
  EXPECT_FALSE(parse_flat_json("{\"a\":1", &fields));           // unterminated
  EXPECT_FALSE(parse_flat_json("{\"a\":{\"b\":1}}", &fields));  // nested
  EXPECT_FALSE(parse_flat_json("{\"a\":[1]}", &fields));        // array
  EXPECT_FALSE(parse_flat_json("{\"a\":1} trailing", &fields));
  EXPECT_FALSE(parse_flat_json("{\"a\":12x}", &fields));  // bad number
  EXPECT_TRUE(parse_flat_json("{}", &fields));
  EXPECT_TRUE(fields.empty());
  EXPECT_TRUE(parse_flat_json("{\"a\":-1e-3,\"b\":null}", &fields));
  EXPECT_EQ(fields.at("b"), "null");
}

TEST_F(ObsTest, SpansRequireSinkAndPairBeginEnd) {
  // Without a sink the layer is inert: no ids, no open spans.
  EXPECT_EQ(begin_span("workflow", "w", kNoSpan, 0.0), kNoSpan);
  EXPECT_EQ(open_span_count(), 0);

  auto owned = std::make_unique<MemorySink>();
  MemorySink* sink = owned.get();
  set_trace_sink(std::move(owned));
  SpanMeta meta;
  meta.workflow_id = 7;
  meta.deadline_s = 100.0;
  const SpanId wf = begin_span("workflow", "w", kNoSpan, 0.0, meta);
  const SpanId job = begin_span("job", "w/j", wf, 10.0);
  EXPECT_NE(wf, kNoSpan);
  EXPECT_NE(job, kNoSpan);
  EXPECT_EQ(open_span_count(), 2);
  end_span(job, 20.0);
  end_span(job, 25.0);  // double-end: ignored
  end_span(wf, 30.0);
  EXPECT_EQ(open_span_count(), 0);

  ASSERT_EQ(sink->lines().size(), 4u);  // 2 begins + 2 ends
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(parse_flat_json(sink->lines()[0], &fields));
  EXPECT_EQ(fields.at("type"), "span_begin");
  EXPECT_EQ(fields.at("kind"), "workflow");
  EXPECT_EQ(fields.at("workflow"), "7");
  ASSERT_TRUE(parse_flat_json(sink->lines()[1], &fields));
  EXPECT_EQ(fields.at("parent"), std::to_string(wf));
  ASSERT_TRUE(parse_flat_json(sink->lines()[2], &fields));
  EXPECT_EQ(fields.at("type"), "span_end");
  EXPECT_EQ(fields.at("span"), std::to_string(job));
}

TEST_F(ObsTest, EndOpenSpansClosesChildrenBeforeParents) {
  auto owned = std::make_unique<MemorySink>();
  MemorySink* sink = owned.get();
  set_trace_sink(std::move(owned));
  const SpanId wf = begin_span("workflow", "w", kNoSpan, 0.0);
  const SpanId job = begin_span("job", "w/j", wf, 0.0);
  end_open_spans(50.0);
  EXPECT_EQ(open_span_count(), 0);
  ASSERT_EQ(sink->lines().size(), 4u);
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(parse_flat_json(sink->lines()[2], &fields));
  EXPECT_EQ(fields.at("span"), std::to_string(job));  // child first
  ASSERT_TRUE(parse_flat_json(sink->lines()[3], &fields));
  EXPECT_EQ(fields.at("span"), std::to_string(wf));
  EXPECT_EQ(fields.at("sim_s"), "50");
}

TEST_F(ObsTest, ChromeTraceProjectsSpanHierarchy) {
  auto owned = std::make_unique<MemorySink>();
  MemorySink* sink = owned.get();
  set_trace_sink(std::move(owned));
  SpanMeta meta;
  meta.workflow_id = 3;
  const SpanId wf = begin_span("workflow", "etl", kNoSpan, 0.0, meta);
  const SpanId job = begin_span("job", "etl/extract", wf, 0.0, meta);
  const SpanId run = begin_span("placement", "etl/extract", job, 10.0, meta);
  begin_span("plan", "plan#1", kNoSpan, 0.0);
  end_span(run, 40.0);
  end_span(job, 40.0);
  end_span(wf, 60.0);
  end_open_spans(60.0);
  emit(TraceEvent("replan").field("cause", "arrival").field("now_s", 0.0));

  std::vector<std::map<std::string, std::string>> events;
  for (const std::string& line : sink->lines()) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parse_flat_json(line, &fields));
    events.push_back(std::move(fields));
  }
  const std::string json = render_chrome_trace(events);
  // Workflow gets its own pid with the slice on tid 0; the job gets its
  // own tid and the placement inherits it; the plan span lands on pid 0.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"etl\",\"cat\":\"workflow\",\"ts\":0,"
                      "\"dur\":60000000,\"pid\":1,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"job\",\"ts\":0,\"dur\":40000000,"
                      "\"pid\":1,\"tid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"placement\",\"ts\":10000000,"
                      "\"dur\":30000000,\"pid\":1,\"tid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"replan(arrival)\""), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceEscapesNamesLikeTraceEvents) {
  auto owned = std::make_unique<MemorySink>();
  MemorySink* sink = owned.get();
  set_trace_sink(std::move(owned));
  const std::string name = "a\"b\\c\nd\x01";
  end_span(begin_span("plan", name, kNoSpan, 0.0), 10.0);

  std::vector<std::map<std::string, std::string>> events;
  for (const std::string& line : sink->lines()) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parse_flat_json(line, &fields));
    events.push_back(std::move(fields));
  }
  // A TraceEvent string field renders as "s":<escaped>: cut the value out.
  const std::string field = TraceEvent("t").field("s", name).to_json();
  const std::string prefix = "{\"type\":\"t\",\"s\":";
  ASSERT_EQ(field.substr(0, prefix.size()), prefix);
  const std::string escaped =
      field.substr(prefix.size(), field.size() - prefix.size() - 1);
  EXPECT_EQ(escaped, "\"a\\\"b\\\\c\\nd\\u0001\"");
  const std::string json = render_chrome_trace(events);
  EXPECT_NE(json.find("\"name\":" + escaped + ",\"cat\":\"plan\""),
            std::string::npos)
      << json;
}

TEST_F(ObsTest, PrometheusRendersAllMetricKinds) {
  registry().counter("core.replans").add(3);
  registry().gauge("obs.deadline.min_laxity_s").set(-2.5);
  Histogram& h = registry().histogram("lp.simplex.solve_seconds");
  h.observe(0.1);
  h.observe(0.3);
  const std::string text = render_prometheus(registry().snapshot());
  EXPECT_NE(text.find("# TYPE flowtime_core_replans_total counter\n"
                      "flowtime_core_replans_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE flowtime_obs_deadline_min_laxity_s gauge\n"
                      "flowtime_obs_deadline_min_laxity_s -2.5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE flowtime_lp_simplex_solve_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("flowtime_lp_simplex_solve_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("flowtime_lp_simplex_solve_seconds_count 2"),
            std::string::npos);
}

}  // namespace
}  // namespace flowtime::obs
