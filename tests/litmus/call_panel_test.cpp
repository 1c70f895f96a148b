// The per-call Gram panel (litmus/panel_cache.h): study elements of one
// Assessor::assess_windows call share one panel when their before-window
// designs are bit-equal, and the outcomes are bit-identical to assessing
// each element on its own.
#include "litmus/panel_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "litmus/assessor.h"
#include "parallel/pool.h"
#include "test_windows.h"

namespace litmus::core {
namespace {

constexpr kpi::KpiId kKpi = kpi::KpiId::kVoiceRetainability;

/// `n` study elements with distinct study series regressing onto one
/// shared control group, as one change's elements do.
std::vector<ElementWindows> shared_control_windows(std::size_t n) {
  testing::WindowSpec spec;
  spec.n_controls = 10;
  spec.seed = 5;
  const ElementWindows first = testing::make_windows(spec);
  std::vector<ElementWindows> out;
  for (std::size_t i = 0; i < n; ++i) {
    spec.seed = 5 + i;
    ElementWindows w = testing::make_windows(spec);
    w.control_before = first.control_before;
    w.control_after = first.control_after;
    out.push_back(std::move(w));
  }
  return out;
}

/// assess_windows never reads the provider; the Assessor only insists on
/// having one.
SeriesProvider unused_provider() {
  return [](net::ElementId, kpi::KpiId, std::int64_t,
            std::size_t) -> ts::TimeSeries {
    throw std::logic_error("assess_windows must not fetch series");
  };
}

ChangeAssessment assess_call(const std::vector<ElementWindows>& windows) {
  static const net::Topology topo;
  const Assessor assessor(topo, unused_provider());
  std::vector<net::ElementId> study;
  for (std::uint32_t i = 0; i < windows.size(); ++i)
    study.push_back(net::ElementId{i});
  return assessor.assess_windows(study, {}, windows, kKpi, 0);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_outcome(const AnalysisOutcome& a, const AnalysisOutcome& b) {
  EXPECT_EQ(a.degenerate, b.degenerate);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.relative, b.relative);
  EXPECT_EQ(bits(a.p_value), bits(b.p_value));
  EXPECT_EQ(bits(a.statistic), bits(b.statistic));
  EXPECT_EQ(bits(a.effect_kpi_units), bits(b.effect_kpi_units));
  EXPECT_EQ(bits(a.fit_r_squared), bits(b.fit_r_squared));
  EXPECT_EQ(a.explanation.successful_iterations,
            b.explanation.successful_iterations);
}

/// Every element of the call, bit-compared against assess() on its own
/// (which builds its panel privately), at 1 and 4 threads.
void expect_call_matches_per_element(
    const std::vector<ElementWindows>& windows) {
  const RobustSpatialRegression alg;
  std::vector<AnalysisOutcome> alone;
  for (const auto& w : windows) alone.push_back(alg.assess(w, kKpi));
  for (const std::size_t threads : {1u, 4u}) {
    par::set_threads(threads);
    const ChangeAssessment call = assess_call(windows);
    ASSERT_EQ(call.per_element.size(), windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << " element " << i);
      expect_same_outcome(call.per_element[i].outcome, alone[i]);
    }
  }
  par::set_threads(0);
}

PanelCache::Stats delta(const PanelCache::Stats& before) {
  const PanelCache::Stats now = PanelCache::global().stats();
  return {now.hits - before.hits, now.misses - before.misses};
}

TEST(CallPanelTest, AssessWindowsMatchesPerElementAssess) {
  const auto windows = shared_control_windows(6);
  expect_call_matches_per_element(windows);
}

// An N-element call with equal designs builds once and reuses N-1 times;
// a second call builds again (nothing outlives the call).
TEST(CallPanelTest, EqualDesignsCountOneMissAndNMinusOneHits) {
  const auto windows = shared_control_windows(5);
  par::set_threads(1);
  for (int call = 0; call < 2; ++call) {
    const PanelCache::Stats base = PanelCache::global().stats();
    (void)assess_call(windows);
    const PanelCache::Stats d = delta(base);
    EXPECT_EQ(d.misses, 1u) << "call " << call;
    EXPECT_EQ(d.hits, windows.size() - 1) << "call " << call;
  }
  par::set_threads(0);
}

// Elements racing for the slot: the first builds, the others wait for that
// one build instead of building their own.
TEST(CallPanelTest, ConcurrentElementsShareOneBuild) {
  const auto windows = shared_control_windows(8);
  par::set_threads(4);
  for (int round = 0; round < 4; ++round) {
    const PanelCache::Stats base = PanelCache::global().stats();
    (void)assess_call(windows);
    const PanelCache::Stats d = delta(base);
    EXPECT_EQ(d.misses, 1u) << "round " << round;
    EXPECT_EQ(d.hits, windows.size() - 1) << "round " << round;
  }
  par::set_threads(0);
}

// Designs are compared byte for byte: one flipped NaN or a control shifted
// by one bin is a different design, built into the element's own panel,
// and its outcome still matches assessing it alone.
TEST(CallPanelTest, DifferingDesignBuildsItsOwnPanel) {
  auto windows = shared_control_windows(5);
  // Element 3: one control observation missing.
  windows[3].control_before[2].mutable_values()[40] = ts::kMissing;
  // Element 4: one control's window starts a bin later.
  ts::TimeSeries& shifted = windows[4].control_before[0];
  const auto v = shifted.values();
  shifted = ts::TimeSeries(shifted.start_bin() + 1,
                           std::vector<double>(v.begin(), v.end()));

  par::set_threads(1);
  const PanelCache::Stats base = PanelCache::global().stats();
  (void)assess_call(windows);
  const PanelCache::Stats d = delta(base);
  EXPECT_EQ(d.misses, 3u);  // the shared panel plus two private ones
  EXPECT_EQ(d.hits, 2u);    // elements 1 and 2

  expect_call_matches_per_element(windows);
}

// The slot overload of forecast() shares the panel and returns the same
// bits as the private-build overload.
TEST(CallPanelTest, ForecastsSharingASlotMatchPrivateForecasts) {
  const auto windows = shared_control_windows(2);
  const RobustSpatialRegression alg;
  PanelSlot slot;
  const PanelCache::Stats base = PanelCache::global().stats();
  for (const auto& w : windows) {
    RobustSpatialRegression::Forecast shared, alone;
    ASSERT_TRUE(alg.forecast(w, shared, 0.0, slot));
    ASSERT_TRUE(alg.forecast(w, alone, 0.0));
    const auto same = [](const ts::TimeSeries& a, const ts::TimeSeries& b) {
      return a.size() == b.size() && a.start_bin() == b.start_bin() &&
             std::memcmp(a.values().data(), b.values().data(),
                         a.size() * sizeof(double)) == 0;
    };
    EXPECT_TRUE(same(shared.median_forecast_before,
                     alone.median_forecast_before));
    EXPECT_TRUE(same(shared.median_forecast_after,
                     alone.median_forecast_after));
    EXPECT_TRUE(same(shared.forecast_diff_before, alone.forecast_diff_before));
    EXPECT_TRUE(same(shared.forecast_diff_after, alone.forecast_diff_after));
    EXPECT_EQ(bits(shared.median_r_squared), bits(alone.median_r_squared));
  }
  // Two slot forecasts (one build, one reuse) and two private builds.
  const PanelCache::Stats d = delta(base);
  EXPECT_EQ(d.misses, 3u);
  EXPECT_EQ(d.hits, 1u);
}

}  // namespace
}  // namespace litmus::core
