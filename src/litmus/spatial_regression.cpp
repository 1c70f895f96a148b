#include "litmus/spatial_regression.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "litmus/panel_cache.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"
#include "parallel/workspace.h"
#include "tsmath/gram.h"
#include "tsmath/linreg.h"
#include "tsmath/matrix.h"
#include "tsmath/normal.h"
#include "tsmath/random.h"
#include "tsmath/rank_tests.h"
#include "tsmath/stats.h"

namespace litmus::core {
namespace {

// Packs aligned control windows into a design matrix over the study
// window's absolute bin range. Bins a control lacks become NaN rows (the
// OLS drops them; forecasts there are missing). Columnar: the matrix is
// column-major, so each control is one contiguous range copy.
ts::Matrix design_matrix(const ts::TimeSeries& study,
                         std::span<const ts::TimeSeries> controls) {
  ts::Matrix x(study.size(), controls.size());
  for (std::size_t c = 0; c < controls.size(); ++c)
    controls[c].copy_range_into(study.start_bin(), x.column(c));
  return x;
}

// Median of a complete (no missing values) sample, selecting in place.
// The per-bin aggregation calls this once per forecast bin, so it must
// not allocate or fully sort; nth_element finds the same order
// statistics ts::median would, and the even-count interpolation repeats
// ts::quantile's arithmetic (frac = 0.5) operand for operand, so the
// result is bit-identical to ts::median on the same values.
double median_complete(std::vector<double>& v) {
  const std::size_t n = v.size();
  const std::size_t hi = n / 2;
  std::nth_element(v.begin(),
                   v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  const double upper = v[hi];
  if (n % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(),
                        v.begin() + static_cast<std::ptrdiff_t>(hi));
  return lower * 0.5 + upper * 0.5;
}

// Leave-one-out band of one bin's aggregate across the iterations seen so
// far: [lo, hi] brackets every value the aggregate can take after removing
// a single iteration's prediction (the jackknife perturbation the adaptive
// stop tests against), and `med` is the aggregate itself. For the median
// the even-count interpolation repeats median_complete's arithmetic
// operand for operand, so `med` at the final checkpoint is bit-identical
// to the emitted forecast bin.
struct BinBand {
  double lo = ts::kMissing;
  double med = ts::kMissing;
  double hi = ts::kMissing;
};

// Band of an ascending-sorted sample. For v of size n = 2h+1 the
// leave-one-out median ranges over [(v[h-1]+v[h])/2, (v[h]+v[h+1])/2];
// for n = 2h it ranges over [v[h-1], v[h]]. The checkpoints keep each
// per-bin forecast vector sorted incrementally (sort the new round's
// tail, one sequential merge pass), so reading the band is O(1) — the
// from-scratch per-checkpoint selection this replaces was cache-miss
// bound on big budgets. The even-count interpolation repeats
// median_complete's arithmetic operand for operand, so `med` stays
// bit-identical to the emitted forecast bin.
BinBand band_from_sorted(const std::vector<double>& v) {
  BinBand b;
  const std::size_t n = v.size();
  if (n == 0) return b;
  const std::size_t h = n / 2;
  if (n == 1) {
    b.lo = b.med = b.hi = v[0];
  } else if (n % 2 == 1) {
    b.med = v[h];
    b.lo = v[h - 1] * 0.5 + v[h] * 0.5;
    b.hi = v[h] * 0.5 + v[h + 1] * 0.5;
  } else {
    b.med = v[h - 1] * 0.5 + v[h] * 0.5;
    b.lo = v[h - 1];
    b.hi = v[h];
  }
  return b;
}

// Leave-one-out mean range: drop the max for the lowest mean, the min for
// the highest (ablation aggregation; same stopping rule applies).
BinBand band_mean(const std::vector<double>& v) {
  BinBand b;
  const std::size_t n = v.size();
  if (n == 0) return b;
  b.med = ts::mean(v);
  if (n == 1) {
    b.lo = b.hi = b.med;
    return b;
  }
  double sum = 0.0, mn = v[0], mx = v[0];
  for (double x : v) {
    sum += x;
    mn = std::min(mn, x);
    mx = std::max(mx, x);
  }
  b.lo = (sum - mx) / static_cast<double>(n - 1);
  b.hi = (sum - mn) / static_cast<double>(n - 1);
  return b;
}

// The downstream verdict evaluated on one forecast variant at a
// checkpoint: the same rank test + materiality floor assess() applies to
// the final aggregate.
struct VariantVerdict {
  RelativeChange relative = RelativeChange::kNoChange;
  double z = ts::kMissing;
  double abs_effect = 0.0;
  bool usable = false;  ///< >= 4 observed forecast-difference bins per side
};

RelativeChange relative_from(ts::Shift shift, bool material) {
  switch (shift) {
    case ts::Shift::kIncrease:
      return material ? RelativeChange::kIncrease : RelativeChange::kNoChange;
    case ts::Shift::kDecrease:
      return material ? RelativeChange::kDecrease : RelativeChange::kNoChange;
    case ts::Shift::kNone: break;
  }
  return RelativeChange::kNoChange;
}

}  // namespace

const char* to_string(StopReason r) noexcept {
  switch (r) {
    case StopReason::kStableVerdict: return "stable-verdict";
    case StopReason::kFitFailures: return "fit-failures";
    case StopReason::kBudgetExhausted: break;
  }
  return "budget-exhausted";
}

bool RobustSpatialRegression::forecast(const ElementWindows& w,
                                       Forecast& out) const {
  return forecast(w, out, 0.0);
}

bool RobustSpatialRegression::forecast(const ElementWindows& w, Forecast& out,
                                       double effect_floor_kpi_units) const {
  const std::size_t n_controls = w.control_before.size();
  if (n_controls == 0 || w.control_after.size() != n_controls) return false;
  if (w.study_before.observed_count() < 8 ||
      w.study_after.observed_count() < 4)
    return false;

  const ts::Matrix x_before = design_matrix(w.study_before, w.control_before);
  const ts::Matrix x_after = design_matrix(w.study_after, w.control_after);

  // k > N/2 (paper), bounded by the regression's degrees of freedom.
  const std::size_t majority = n_controls / 2 + 1;
  std::size_t k = std::max(
      majority, static_cast<std::size_t>(std::floor(
                    params_.sample_fraction * static_cast<double>(n_controls))));
  k = std::min(k, n_controls);
  const std::size_t max_regressors =
      w.study_before.observed_count() > 6
          ? w.study_before.observed_count() - 5
          : 0;
  k = std::min(k, max_regressors);
  if (k == 0) return false;

  const std::span<const double> y = w.study_before.values();
  // The O(m·N²) panel precompute only pays off when enough iterations
  // amortize it (GramPanel::worthwhile); below the crossover every
  // iteration just runs QR, exactly as with the fast path disabled. The
  // decision deliberately ignores cache state (a hit would make the build
  // free) so cached and uncached runs take identical code paths.
  const bool use_gram =
      params_.use_gram_fast_path &&
      ts::GramPanel::worthwhile(params_.n_iterations, k, x_before.cols());
  PanelCache::PanelPtr panel;
  ts::GramSystem gram;
  if (use_gram) {
    // Content-keyed: every study element regressing onto the same control
    // columns over the same bins — across a multi-element assessment, a
    // batch sweep, or monitor steps — shares one panel build.
    panel = PanelCache::current().get_or_build(
        fingerprint_design(x_before),
        [&] { return ts::GramPanel::build(x_before); });
    gram.bind(*panel, y, params_.with_intercept);
  }

  // Iterations run in counter-ordered rounds. Adaptive-off the schedule is
  // a single round covering the whole budget, which makes the loop below
  // structurally identical to the pre-adaptive code path; adaptive-on it
  // follows a geometric schedule (min_iterations, then ~1.5x per round:
  // 8, 12, 18, 27, ...) with a stability checkpoint between rounds.
  std::vector<std::size_t> round_ends;
  if (!params_.adaptive_sampling || params_.n_iterations == 0) {
    round_ends.push_back(params_.n_iterations);
  } else {
    round_ends.push_back(std::min(
        params_.n_iterations, std::max<std::size_t>(1, params_.min_iterations)));
    while (round_ends.back() < params_.n_iterations) {
      const std::size_t prev = round_ends.back();
      round_ends.push_back(
          std::min(params_.n_iterations, prev + (prev + 1) / 2));
    }
  }

  // Iterations are independent: each draws from its own counter-based
  // substream (base.fork(it) is a pure function of seed and iteration
  // index), so chunks can run on any thread and still produce exactly the
  // sequential per-iteration results. Accumulation is per chunk; chunks
  // are contiguous and ascending within a round and rounds are appended in
  // order, so the merge below reconstructs the sequential iteration order
  // bit-for-bit at any thread count. The stopping decision is evaluated on
  // that merged (scheduling-independent) state only.
  const ts::Rng base(params_.seed);
  struct ChunkAcc {
    std::vector<std::vector<double>> fc_before, fc_after;
    std::vector<double> r2s;
    std::size_t successes = 0;
    std::uint64_t iterations = 0, failures = 0, gram_fast = 0, qr_fallback = 0;
  };

  std::vector<std::vector<double>> fc_before(w.study_before.size());
  std::vector<std::vector<double>> fc_after(w.study_after.size());
  std::vector<double> r2s;
  std::size_t successes = 0;
  std::size_t attempted = 0;
  StopReason reason = StopReason::kBudgetExhausted;

  // Cross-checkpoint stability state (median-variant verdict seen at the
  // previous checkpoint, plus the current run of stable checkpoints).
  bool have_prev = false;
  RelativeChange prev_rel = RelativeChange::kNoChange;
  std::size_t streak = 0;
  const double z_crit = ts::normal_quantile(1.0 - params_.alpha / 2.0);
  // Checkpoint scratch, hoisted so repeated checkpoints reuse capacity:
  // the adaptive win is a handful of saved Gram-path iterations, cheap
  // enough that per-checkpoint allocation would eat it.
  std::vector<double> band_scratch;
  std::vector<BinBand> bands_before_buf, bands_after_buf;
  std::vector<double> diff_before_buf, diff_after_buf;
  // Length of each forecast bin's ascending-sorted prefix (everything up
  // to the previous checkpoint; the current round's appends form an
  // unsorted tail the next checkpoint merges in).
  std::vector<std::size_t> sorted_before_len(fc_before.size(), 0);
  std::vector<std::size_t> sorted_after_len(fc_after.size(), 0);
  std::vector<ChunkAcc> acc;  // reused across rounds, reset per chunk

  std::size_t round_begin = 0;
  for (std::size_t round = 0; round < round_ends.size(); ++round) {
  const std::size_t round_len = round_ends[round] - round_begin;
  const std::size_t n_chunks = par::plan_chunks(round_len);
  if (acc.size() < n_chunks) acc.resize(n_chunks);

  par::parallel_chunks(
      round_len, n_chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ChunkAcc& a = acc[chunk];
        a.fc_before.resize(w.study_before.size());
        a.fc_after.resize(w.study_after.size());
        for (auto& v : a.fc_before) v.clear();
        for (auto& v : a.fc_after) v.clear();
        a.r2s.clear();
        a.successes = 0;
        a.iterations = a.failures = a.gram_fast = a.qr_fallback = 0;
        // Per-thread reusable scratch: the steady-state iteration performs
        // no heap allocation on the Gram path.
        par::Workspace& ws = par::this_thread_workspace();
        std::vector<std::size_t>& pool = ws.indices(0);
        std::vector<std::size_t>& cols = ws.indices(1);
        std::vector<double>& pred = ws.doubles(0);
        static thread_local ts::GramScratch scratch;

        for (std::size_t local = begin; local < end; ++local) {
          const std::size_t it = round_begin + local;
          ts::Rng rng = base.fork(it);
          {
            obs::ScopedSpan span("sampling");
            ts::sample_without_replacement(rng, n_controls, k, pool, cols);
          }
          ts::LinearModel model;
          bool fast = false;
          {
            obs::ScopedSpan span("fit");
            if (gram.ok() && gram.subset_matches_panel(cols))
              fast = gram.solve_subset(cols, scratch, model);
            if (!fast)
              model = ts::fit_ols(x_before.select_columns(cols), y,
                                  params_.with_intercept);
          }
          ++a.iterations;
          if (use_gram) {
            if (fast)
              ++a.gram_fast;
            else
              ++a.qr_fallback;
          }
          if (obs::enabled() && model.ok) {
            auto& reg = obs::Registry::global();
            reg.histogram("litmus.fit.r_squared").record(model.r_squared);
            reg.histogram("litmus.fit.residual_stddev")
                .record(model.residual_stddev);
            // Last write wins across workers, so which fit it shows
            // depends on scheduling.
            reg.gauge("litmus.fit.condition_number",
                      obs::MetricClass::kMeasured)
                .set(model.condition);
          }
          if (!model.ok) {
            ++a.failures;
            continue;
          }
          ++a.successes;
          a.r2s.push_back(model.r_squared);

          obs::ScopedSpan span("forecast");
          model.predict_columns_into(x_before, cols, pred);
          for (std::size_t r = 0; r < pred.size(); ++r)
            if (!ts::is_missing(pred[r])) a.fc_before[r].push_back(pred[r]);
          model.predict_columns_into(x_after, cols, pred);
          for (std::size_t r = 0; r < pred.size(); ++r)
            if (!ts::is_missing(pred[r])) a.fc_after[r].push_back(pred[r]);
        }
        if (obs::enabled()) {
          auto& reg = obs::Registry::global();
          reg.counter("litmus.iterations").add(a.iterations);
          if (a.failures > 0) reg.counter("litmus.fit.failures").add(a.failures);
          if (a.gram_fast > 0) reg.counter("litmus.fit.gram").add(a.gram_fast);
          if (a.qr_fallback > 0)
            reg.counter("litmus.fit.qr_fallback").add(a.qr_fallback);
          reg.counter("litmus.worker." +
                          std::to_string(obs::thread_index()) +
                          ".iterations",
                      obs::MetricClass::kMeasured)
              .add(a.iterations);
        }
        // Chunk-granular events (never per iteration): failed fits and
        // Gram->QR fallbacks are the anomalies an auditor greps for.
        if (auto* ev = obs::events()) {
          if (a.failures > 0)
            ev->emit(obs::EventType::kIterationRetry,
                     [&](obs::JsonWriter& w2) {
                       w2.member("stage", "fit")
                           .member("failed", a.failures)
                           .member("of", a.iterations);
                     });
          if (a.qr_fallback > 0)
            ev->emit(obs::EventType::kFallbackQr, [&](obs::JsonWriter& w2) {
              w2.member("fallbacks", a.qr_fallback)
                  .member("of", a.iterations);
            });
        }
      });

  // Merge per-chunk accumulators in chunk (== iteration) order, appending
  // after the previous rounds' results. Only this round's chunks: `acc`
  // may still hold a longer earlier round's tail.
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const ChunkAcc& a = acc[c];
    successes += a.successes;
    r2s.insert(r2s.end(), a.r2s.begin(), a.r2s.end());
    for (std::size_t r = 0; r < fc_before.size(); ++r)
      fc_before[r].insert(fc_before[r].end(), a.fc_before[r].begin(),
                          a.fc_before[r].end());
    for (std::size_t r = 0; r < fc_after.size(); ++r)
      fc_after[r].insert(fc_after[r].end(), a.fc_after[r].begin(),
                         a.fc_after[r].end());
  }
  attempted = round_ends[round];
  round_begin = round_ends[round];
  if (round + 1 == round_ends.size()) break;  // budget exhausted

  // --- Adaptive stability checkpoint (reached only with more rounds
  // pending, i.e. never adaptive-off). Evaluates the full downstream
  // verdict — rank test plus materiality floor — on three forecast
  // variants: the current aggregate and the two adversarial jackknife
  // extremes (every before-bin pushed one way, every after-bin the
  // other). Stable means all three agree decisively and match the
  // previous checkpoint; `stability_rounds` consecutive stable
  // checkpoints end the loop.
  if (successes == 0) {
    have_prev = false;
    streak = 0;
    continue;
  }
  {
    obs::ScopedSpan span("adaptive-check");
    const bool use_median_agg =
        params_.aggregation == ForecastAggregation::kMedian;
    auto bands_into = [&](std::vector<std::vector<double>>& bins,
                          std::vector<std::size_t>& sorted_len,
                          std::vector<BinBand>& bands) {
      bands.assign(bins.size(), BinBand{});
      for (std::size_t r = 0; r < bins.size(); ++r) {
        std::vector<double>& v = bins[r];
        if (v.empty()) continue;
        if (use_median_agg) {
          // Keeping the bin ascending is safe: the multiset is unchanged,
          // and the final aggregation's selection median is a pure
          // function of the multiset.
          const std::size_t m = sorted_len[r];
          if (m < v.size()) {
            std::sort(v.begin() + m, v.end());
            if (m > 0) {
              band_scratch.resize(v.size());
              std::merge(v.begin(), v.begin() + m, v.begin() + m, v.end(),
                         band_scratch.begin());
              v.swap(band_scratch);
            }
            sorted_len[r] = v.size();
          }
          bands[r] = band_from_sorted(v);
        } else {
          bands[r] = band_mean(v);
        }
      }
    };
    bands_into(fc_before, sorted_before_len, bands_before_buf);
    bands_into(fc_after, sorted_after_len, bands_after_buf);

    // diff = study - forecast, so pairing a *low* before-forecast with a
    // *high* after-forecast yields the minimal apparent shift and the
    // opposite pairing the maximal one — the two extremes that bracket
    // the verdict's sensitivity to dropping any single iteration. The
    // diffs are built straight into flat buffers (a bin is observed when
    // both the study value and the forecast band exist — exactly minus()'s
    // missing rule, without materializing the intermediate series).
    auto eval_variant = [&](double BinBand::*pick_before,
                            double BinBand::*pick_after) {
      VariantVerdict v;
      diff_before_buf.assign(w.study_before.size(), ts::kMissing);
      std::size_t observed_before = 0;
      for (std::size_t r = 0; r < bands_before_buf.size(); ++r) {
        if (ts::is_missing(bands_before_buf[r].med) ||
            ts::is_missing(w.study_before[r]))
          continue;
        diff_before_buf[r] = w.study_before[r] - bands_before_buf[r].*pick_before;
        ++observed_before;
      }
      diff_after_buf.assign(w.study_after.size(), ts::kMissing);
      std::size_t observed_after = 0;
      for (std::size_t r = 0; r < bands_after_buf.size(); ++r) {
        if (ts::is_missing(bands_after_buf[r].med) ||
            ts::is_missing(w.study_after[r]))
          continue;
        diff_after_buf[r] = w.study_after[r] - bands_after_buf[r].*pick_after;
        ++observed_after;
      }
      if (observed_before < 4 || observed_after < 4) return v;
      const ts::TestResult t =
          params_.test == ComparisonTest::kRobustRankOrder
              ? ts::robust_rank_order(diff_after_buf, diff_before_buf,
                                      params_.alpha)
              : ts::wilcoxon_mann_whitney(diff_after_buf, diff_before_buf,
                                          params_.alpha);
      v.z = t.statistic;
      v.abs_effect =
          std::fabs(ts::median(diff_after_buf) - ts::median(diff_before_buf));
      v.relative = relative_from(
          t.shift, v.abs_effect >= effect_floor_kpi_units);
      v.usable = true;
      return v;
    };
    const std::array<VariantVerdict, 3> variants = {
        eval_variant(&BinBand::med, &BinBand::med),
        eval_variant(&BinBand::lo, &BinBand::hi),   // minimal apparent shift
        eval_variant(&BinBand::hi, &BinBand::lo)};  // maximal apparent shift
    // The rank-order z is not the stability currency — near separation it
    // explodes (30 -> 47 from dropping one iteration) while the decision
    // is maximally settled, and for quiet nulls it wobbles by ~0.5 at any
    // small sample. What must be insensitive to the jackknife is the
    // *decision*: every variant agrees on the verdict AND clears both
    // thresholds (significance and materiality) with margin, jointly in
    // one regime. A z near the critical value or an effect near the floor
    // is borderline and keeps sampling until the budget runs out.
    bool stable = variants[0].usable && variants[1].usable &&
                  variants[2].usable &&
                  variants[1].relative == variants[0].relative &&
                  variants[2].relative == variants[0].relative;
    if (stable) {
      double min_absz = std::numeric_limits<double>::infinity();
      double max_absz = 0.0;
      double min_eff = std::numeric_limits<double>::infinity();
      double max_eff = 0.0;
      for (const VariantVerdict& v : variants) {
        if (ts::is_missing(v.z)) {
          stable = false;
          break;
        }
        min_absz = std::min(min_absz, std::fabs(v.z));
        max_absz = std::max(max_absz, std::fabs(v.z));
        min_eff = std::min(min_eff, v.abs_effect);
        max_eff = std::max(max_eff, v.abs_effect);
      }
      if (stable) {
        const bool decisively_null =
            max_absz <= z_crit - params_.stability_z_margin;
        const bool decisively_immaterial =
            effect_floor_kpi_units > 0.0 &&
            max_eff <= effect_floor_kpi_units * 0.9;
        const bool decisively_shifted =
            min_absz >= z_crit + params_.stability_z_margin &&
            (effect_floor_kpi_units <= 0.0 ||
             min_eff >= effect_floor_kpi_units * 1.1);
        stable = decisively_null || decisively_immaterial || decisively_shifted;
      }
    }
    // A stable checkpoint only extends the streak when the previous
    // checkpoint reached the same verdict; a verdict that moved between
    // checkpoints restarts the count even if each end looked decisive.
    const bool consistent = !have_prev || variants[0].relative == prev_rel;
    streak = stable ? (consistent ? streak + 1 : 1) : 0;
    have_prev = variants[0].usable;
    prev_rel = variants[0].relative;
  }
  if (streak >= params_.stability_rounds) {
    reason = StopReason::kStableVerdict;
    break;
  }
  }  // round loop

  out.iterations_attempted = attempted;
  if (successes == 0) reason = StopReason::kFitFailures;
  out.stop_reason = reason;

  if (params_.adaptive_sampling && obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.histogram("litmus.adaptive.iterations_used")
        .record(static_cast<double>(attempted));
    if (reason == StopReason::kStableVerdict) {
      reg.counter("litmus.adaptive.stopped_early").add();
      reg.counter("litmus.adaptive.iterations_saved")
          .add(params_.n_iterations - attempted);
    }
  }
  if (reason == StopReason::kStableVerdict) {
    if (auto* ev = obs::events())
      ev->emit(obs::EventType::kAdaptiveStop, [&](obs::JsonWriter& w2) {
        w2.member("used", static_cast<std::uint64_t>(attempted))
            .member("budget",
                    static_cast<std::uint64_t>(params_.n_iterations));
      });
  }
  if (successes == 0) return false;

  out.effective_k = k;
  out.successful_iterations = successes;
  out.median_r_squared = ts::median(r2s);

  const bool use_median =
      params_.aggregation == ForecastAggregation::kMedian;
  // fc vectors hold only non-missing predictions (filtered at push), so
  // the selection-based median applies; it may permute its input, which
  // is fine — the per-bin vectors are dead after aggregation.
  auto aggregate = [use_median](std::vector<double>& v) {
    return use_median ? median_complete(v) : ts::mean(v);
  };

  out.median_forecast_before =
      ts::TimeSeries(w.study_before.start_bin(), w.study_before.size(),
                     w.study_before.bin_minutes());
  for (std::size_t r = 0; r < fc_before.size(); ++r)
    if (!fc_before[r].empty())
      out.median_forecast_before[r] = aggregate(fc_before[r]);

  out.median_forecast_after =
      ts::TimeSeries(w.study_after.start_bin(), w.study_after.size(),
                     w.study_after.bin_minutes());
  for (std::size_t r = 0; r < fc_after.size(); ++r)
    if (!fc_after[r].empty())
      out.median_forecast_after[r] = aggregate(fc_after[r]);

  out.forecast_diff_before =
      w.study_before.minus(out.median_forecast_before);
  out.forecast_diff_after = w.study_after.minus(out.median_forecast_after);
  return true;
}

AnalysisOutcome RobustSpatialRegression::assess(const ElementWindows& w,
                                                kpi::KpiId kpi) const {
  AnalysisOutcome out;
  out.explanation.analyzer = name().data();
  out.explanation.aggregation =
      params_.aggregation == ForecastAggregation::kMedian ? "median" : "mean";
  out.explanation.test = params_.test == ComparisonTest::kRobustRankOrder
                             ? "robust_rank_order"
                             : "wilcoxon_mann_whitney";
  out.explanation.n_controls = w.control_before.size();
  out.explanation.iterations_requested = params_.n_iterations;
  out.explanation.alpha = params_.alpha;
  out.explanation.adaptive_sampling = params_.adaptive_sampling;

  // The materiality floor feeds the adaptive stability check, so it is
  // resolved before the sampling loop runs.
  const double floor_kpi =
      params_.min_effect_sigma * kpi::info(kpi).typical_noise;

  Forecast fc;
  const bool ok = forecast(w, fc, floor_kpi);
  out.explanation.iterations_used = fc.iterations_attempted;
  if (fc.iterations_attempted > 0)
    out.explanation.stop_reason = to_string(fc.stop_reason);
  if (!ok) {
    out.degenerate = true;
    out.explanation.note =
        "no usable forecast: empty/mismatched control group, too few "
        "observed study bins, or every sampling iteration failed to fit";
    return out;
  }
  out.explanation.effective_k = fc.effective_k;
  out.explanation.successful_iterations = fc.successful_iterations;
  if (fc.forecast_diff_before.observed_count() < 4 ||
      fc.forecast_diff_after.observed_count() < 4) {
    out.degenerate = true;
    out.explanation.note =
        "fewer than 4 observed forecast-difference bins on one side";
    return out;
  }

  ts::TestResult t;
  {
    obs::ScopedSpan span("rank-test");
    t = params_.test == ComparisonTest::kRobustRankOrder
            ? ts::robust_rank_order(fc.forecast_diff_after.values(),
                                    fc.forecast_diff_before.values(),
                                    params_.alpha)
            : ts::wilcoxon_mann_whitney(fc.forecast_diff_after.values(),
                                        fc.forecast_diff_before.values(),
                                        params_.alpha);
  }
  out.p_value = t.p_value;
  out.statistic = t.statistic;
  out.fit_r_squared = fc.median_r_squared;
  out.effect_kpi_units =
      ts::median(fc.forecast_diff_after) - ts::median(fc.forecast_diff_before);
  const bool material = std::fabs(out.effect_kpi_units) >= floor_kpi;
  out.explanation.n_after = t.n_x;
  out.explanation.n_before = t.n_y;
  out.explanation.effect_floor_kpi_units = floor_kpi;
  out.explanation.material = material;
  out.relative = relative_from(t.shift, material);
  out.verdict = verdict_from(out.relative, kpi::info(kpi).polarity);
  return out;
}

}  // namespace litmus::core
