// Tests for the observability layer: concurrency of counters/histograms,
// span nesting, sink output, and the runtime toggle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace litmus::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    Registry::global().reset();
  }
  void TearDown() override {
    Tracer::global().stop();
    Registry::global().reset();
    set_enabled(false);
  }
};

TEST_F(ObsTest, ConcurrentCounterUpdatesAreExact) {
  Registry reg;
  Counter& c = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, ConcurrentHistogramTotalsAreDeterministic) {
  Registry reg;
  Histogram& h = reg.histogram("latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<double>(t + 1));  // values 1..8
    });
  for (auto& t : pool) t.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Sum of t+1 over threads, kPerThread each: (1+..+8) * 5000.
  EXPECT_DOUBLE_EQ(s.sum, 36.0 * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
}

TEST_F(ObsTest, HistogramQuantilesBracketTrueValues) {
  Registry reg;
  Histogram& h = reg.histogram("q");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot();
  // Log-linear buckets with 8 sub-buckets guarantee <= ~12.5% relative
  // error on quantile estimates.
  EXPECT_NEAR(s.p50, 500.0, 500.0 * 0.13);
  EXPECT_NEAR(s.p95, 950.0, 950.0 * 0.13);
  EXPECT_NEAR(s.p99, 990.0, 990.0 * 0.13);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST_F(ObsTest, HistogramHandlesNegativeValues) {
  Registry reg;
  Histogram& h = reg.histogram("z");
  for (int i = 0; i < 100; ++i) h.record(-2.5);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.min, -2.5);
  EXPECT_DOUBLE_EQ(s.max, -2.5);
  EXPECT_NEAR(s.p50, -2.5, 0.4);
}

TEST_F(ObsTest, RegistryReferencesSurviveReset) {
  Registry reg;
  Counter& c = reg.counter("persistent");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_EQ(reg.counter("persistent").value(), 2u);
  EXPECT_EQ(&reg.counter("persistent"), &c);
}

const HistogramSnapshot* find_histogram(const MetricsSnapshot& snap,
                                        const std::string& name) {
  for (const auto& [n, h] : snap.histograms)
    if (n == name) return &h;
  return nullptr;
}

// Span recording only exists when the layer is compiled in; with
// -DLITMUS_OBS=OFF ScopedSpan is an empty no-op by design.
#if LITMUS_OBS_ENABLED

TEST_F(ObsTest, SpansNestViaThreadLocalParentChain) {
  Tracer tracer;
  tracer.start();
  {
    ScopedSpan outer("outer", tracer);
    {
      ScopedSpan inner("inner", tracer);
    }
    {
      ScopedSpan sibling("sibling", tracer);
    }
  }
  tracer.stop();
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Spans are recorded at destruction: inner, sibling, outer.
  std::map<std::string, SpanRecord> by_name;
  for (const auto& s : spans) by_name[s.name] = s;
  ASSERT_TRUE(by_name.contains("outer"));
  ASSERT_TRUE(by_name.contains("inner"));
  ASSERT_TRUE(by_name.contains("sibling"));
  EXPECT_EQ(by_name["outer"].parent, 0u);
  EXPECT_EQ(by_name["inner"].parent, by_name["outer"].id);
  EXPECT_EQ(by_name["sibling"].parent, by_name["outer"].id);
  EXPECT_NE(by_name["inner"].id, by_name["sibling"].id);
}

TEST_F(ObsTest, SpansFeedStageHistograms) {
  {
    ScopedSpan span("unit_test_stage");
  }
  const MetricsSnapshot snap = Registry::global().snapshot();
  const HistogramSnapshot* h = find_histogram(snap, "stage.unit_test_stage");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_GE(h->sum, 0.0);
}

#endif  // LITMUS_OBS_ENABLED

TEST_F(ObsTest, MetricsJsonRoundTrip) {
  Registry reg;
  reg.counter("requests").add(42);
  reg.gauge("condition").set(1.5);
  for (int i = 1; i <= 10; ++i)
    reg.histogram("lat_us").record(static_cast<double>(i));

  std::ostringstream out;
  write_metrics_json(out, reg.snapshot());
  const std::string json = out.str();
  // Structural spot-checks (no JSON parser in the test deps).
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\":42"), std::string::npos);
  EXPECT_NE(json.find("\"condition\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":10"), std::string::npos);
  // Balanced braces => structurally plausible JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(ObsTest, MetricClassIsFixedAtFirstRegistrationAndExported) {
  Registry reg;
  reg.counter("verdicts").add(3);
  reg.histogram("wait_us", MetricClass::kMeasured).record(7.0);
  reg.gauge("rate_per_s", MetricClass::kMeasured).set(2.0);
  // A later lookup returns the same metric and cannot reclassify it.
  EXPECT_EQ(&reg.counter("verdicts", MetricClass::kMeasured),
            &reg.counter("verdicts"));
  EXPECT_EQ(&reg.histogram("wait_us"),
            &reg.histogram("wait_us", MetricClass::kMeasured));
  // One name registered as two kinds reads as measured if either is.
  reg.counter("dual").add();
  reg.histogram("dual", MetricClass::kMeasured).record(1.0);

  const MetricsSnapshot snap = reg.snapshot();
  const std::map<std::string, MetricClass> expected = {
      {"dual", MetricClass::kMeasured},
      {"rate_per_s", MetricClass::kMeasured},
      {"verdicts", MetricClass::kDeterministic},
      {"wait_us", MetricClass::kMeasured}};
  EXPECT_EQ(snap.classes, expected);

  std::ostringstream out;
  write_metrics_json(out, snap);
  std::string error;
  const auto doc = parse_json(out.str(), &error);
  ASSERT_TRUE(doc) << error;
  const JsonValue* classes = doc->find("classes");
  ASSERT_NE(classes, nullptr);
  EXPECT_EQ(classes->member_string("verdicts", ""), "deterministic");
  EXPECT_EQ(classes->member_string("wait_us", ""), "measured");
  EXPECT_EQ(classes->member_string("rate_per_s", ""), "measured");
  EXPECT_EQ(classes->member_string("dual", ""), "measured");
  // The class rides alongside the values; the sections keep their shape.
  EXPECT_EQ(doc->find("counters")->member_number("verdicts", -1.0), 3.0);
  EXPECT_EQ(doc->find("histograms")->find("wait_us")->member_number(
                "count", -1.0),
            1.0);
}

#if LITMUS_OBS_ENABLED

TEST_F(ObsTest, StageHistogramsRegisterAsMeasured) {
  {
    ScopedSpan span("unit_test_class");
  }
  const auto classes = Registry::global().snapshot().classes;
  ASSERT_TRUE(classes.contains("stage.unit_test_class"));
  EXPECT_EQ(classes.at("stage.unit_test_class"), MetricClass::kMeasured);
}

TEST_F(ObsTest, TraceJsonContainsAllSpans) {
  Tracer tracer;
  tracer.start();
  {
    ScopedSpan a("alpha", tracer);
    ScopedSpan b("beta", tracer);
  }
  tracer.stop();
  const auto spans = tracer.spans();
  std::ostringstream out;
  write_trace_json(out, spans, tracer.epoch_ns());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"span_count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
}

#endif  // LITMUS_OBS_ENABLED

TEST_F(ObsTest, JsonWriterEscapesAndMapsNonFinite) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.member("text", "a\"b\\c\n");
  w.member("nan", std::nan(""));
  w.member("count", std::uint64_t{7});
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\"text\":\"a\\\"b\\\\c\\n\",\"nan\":null,\"count\":7}");
}

TEST_F(ObsTest, DisabledRuntimeSkipsRecording) {
  set_enabled(false);
  EXPECT_FALSE(enabled());
  {
    ScopedSpan span("disabled_stage");
  }
  const MetricsSnapshot snap = Registry::global().snapshot();
  EXPECT_EQ(find_histogram(snap, "stage.disabled_stage"), nullptr);
}

TEST_F(ObsTest, HistogramBucketMappingIsMonotonic) {
  double prev = -1.0;
  for (double v : {0.001, 0.1, 1.0, 2.0, 5.0, 100.0, 1e6}) {
    const std::size_t b = Histogram::bucket_of(v);
    const double rep = Histogram::bucket_value(b);
    EXPECT_GT(rep, prev) << "bucket rep not increasing at v=" << v;
    // The representative stays within a sub-bucket's relative width.
    EXPECT_NEAR(rep, v, v * 0.15);
    prev = rep;
  }
}

}  // namespace
}  // namespace litmus::obs
