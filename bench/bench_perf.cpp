// Runtime benchmarks for the Litmus algorithm (paper Section 5: "our
// algorithm finishes in a few minutes" at 1-2-week assessment scales —
// this implementation finishes a single assessment in milliseconds).
//
// Sweeps: control-group size, window length, sampling iterations; plus the
// statistical primitives (OLS fit, robust rank-order test).
//
// Unless the caller passes its own --benchmark_out, results are also
// written to BENCH_perf.json (google-benchmark JSON) so the perf
// trajectory is trackable across commits (CI uploads it as an artifact).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/group_sim.h"
#include "litmus/did.h"
#include "litmus/spatial_regression.h"
#include "litmus/study_only.h"
#include "obs/manifest.h"
#include "parallel/pool.h"
#include "tsmath/linreg.h"
#include "tsmath/random.h"
#include "tsmath/rank_tests.h"

namespace {

using namespace litmus;

core::ElementWindows make_windows(std::size_t n_controls, std::size_t days) {
  eval::EpisodeSpec spec;
  spec.n_control = n_controls;
  spec.before_bins = days * 24;
  spec.after_bins = days * 24;
  spec.true_sigma = 1.5;
  spec.seed = 97;
  return eval::simulate_episode(spec).study_windows.front();
}

void BM_LitmusAssess_Controls(benchmark::State& state) {
  const auto w = make_windows(static_cast<std::size_t>(state.range(0)), 14);
  const core::RobustSpatialRegression alg;
  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LitmusAssess_Controls)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_LitmusAssess_WindowDays(benchmark::State& state) {
  const auto w = make_windows(16, static_cast<std::size_t>(state.range(0)));
  const core::RobustSpatialRegression alg;
  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LitmusAssess_WindowDays)->Arg(7)->Arg(14)->Arg(28);

void BM_LitmusAssess_Iterations(benchmark::State& state) {
  const auto w = make_windows(16, 14);
  core::SpatialRegressionParams params;
  params.n_iterations = static_cast<std::size_t>(state.range(0));
  const core::RobustSpatialRegression alg(params);
  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LitmusAssess_Iterations)->Arg(5)->Arg(25)->Arg(100);

// Thread-scaling at the paper's production shape (14-day windows, a large
// control group, 200 sampling iterations). Results are bit-identical at
// every thread count — only the wall clock moves.
void BM_LitmusAssess_Threads(benchmark::State& state) {
  const auto w = make_windows(40, 14);
  core::SpatialRegressionParams params;
  params.n_iterations = 200;
  const core::RobustSpatialRegression alg(params);
  par::set_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }
  par::set_threads(1);
}
BENCHMARK(BM_LitmusAssess_Threads)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

// Single-thread algorithmic win of the Gram/Cholesky subset solver over
// per-iteration Householder QR (Arg: 1 = Gram fast path, 0 = QR only).
void BM_LitmusAssess_GramVsQr(benchmark::State& state) {
  const auto w = make_windows(40, 14);
  core::SpatialRegressionParams params;
  params.n_iterations = 200;
  params.use_gram_fast_path = state.range(0) != 0;
  const core::RobustSpatialRegression alg(params);
  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LitmusAssess_GramVsQr)->Arg(0)->Arg(1);

// Multi-element assessment: E study elements sharing one control group,
// the FFA shape (every element re-fits the same before-window control
// panel). Reported as items/s where one item is one element assessment.
// Each assess() builds its panel privately; bench_kernels'
// BM_MultiElementSweep runs the same shape through one assess_windows
// call, which shares it.
void BM_LitmusAssess_MultiElement(benchmark::State& state) {
  eval::EpisodeSpec spec;
  spec.n_study = 8;
  spec.n_control = 64;
  spec.before_bins = 14 * 24;
  spec.after_bins = 14 * 24;
  spec.true_sigma = 1.5;
  spec.seed = 97;
  const auto episode = eval::simulate_episode(spec);
  const core::RobustSpatialRegression alg;
  for (auto _ : state) {
    for (const auto& w : episode.study_windows) {
      auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() *
                                episode.study_windows.size()));
}
BENCHMARK(BM_LitmusAssess_MultiElement);

// Adaptive early stopping (DESIGN.md §16) at the gen-corpus batch shape
// (48h before / 24h after, 16 controls) and the high-robustness budget of
// 100 iterations — the regime the layer is built for: each checkpoint
// costs a fixed ~6-8us of verdict evaluation (bands + 3 jackknife rank
// tests), so the win scales with iterations *saved*. At the default
// budget of 25 a decisive element saves 13 Gram-path iterations and
// roughly breaks even; at 100 it saves 88 and assessment time drops ~4x.
//
// First arg picks the element: 0 = easy (a clear 2-sigma shift, the
// dominant population in a scale corpus; stops at the second checkpoint),
// 1 = borderline (z rides the significance threshold; spends the full
// budget by design). Second arg toggles adaptive sampling. CI gates
// BM_AssessAdaptive/0/1 vs /0/0 with a speedup floor, while the /1/*
// pair bounds the checkpoint overhead on the worst case.
void BM_AssessAdaptive(benchmark::State& state) {
  eval::EpisodeSpec spec;
  spec.n_control = 16;
  spec.before_bins = 48;
  spec.after_bins = 24;
  spec.true_sigma = state.range(0) == 0 ? 2.0 : 0.20;
  spec.seed = 97;
  const auto w = eval::simulate_episode(spec).study_windows.front();
  core::SpatialRegressionParams params;
  params.n_iterations = 100;
  params.adaptive_sampling = state.range(1) != 0;
  const core::RobustSpatialRegression alg(params);
  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AssessAdaptive)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void BM_DiDAssess(benchmark::State& state) {
  const auto w = make_windows(16, 14);
  const core::DiDAnalyzer alg;
  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DiDAssess);

void BM_StudyOnlyAssess(benchmark::State& state) {
  const auto w = make_windows(16, 14);
  const core::StudyOnlyAnalyzer alg;
  for (auto _ : state) {
    auto out = alg.assess(w, kpi::KpiId::kVoiceRetainability);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_StudyOnlyAssess);

void BM_OlsFit(benchmark::State& state) {
  const std::size_t rows = 336;
  const std::size_t cols = static_cast<std::size_t>(state.range(0));
  ts::Rng rng(5);
  ts::Matrix x(rows, cols);
  std::vector<double> y(rows);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) x(r, c) = rng.normal();
  for (auto& v : y) v = rng.normal();
  for (auto _ : state) {
    auto m = ts::fit_ols(x, y, true);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_OlsFit)->Arg(8)->Arg(16)->Arg(32);

void BM_RobustRankOrder(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ts::Rng rng(6);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal(0.3, 1.0);
  for (auto _ : state) {
    auto t = ts::robust_rank_order(x, y);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_RobustRankOrder)->Arg(168)->Arg(336)->Arg(672);

// google-benchmark owns the JSON writer, so provenance is added after the
// fact: a "manifest" block (threads, seed, build flags, version) becomes
// the first key of the report. tools/check_bench_regression.py reads it to
// warn when a baseline and a candidate were produced under different
// conditions.
void embed_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;  // bench ran with a different reporter; nothing to do
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t brace = text.find('{');
  if (brace == std::string::npos) return;

  obs::RunManifest manifest;
  manifest.tool = "bench_perf";
  manifest.threads = par::threads();
  manifest.seed = 97;  // EpisodeSpec seed all sweeps share
  manifest.started_at_utc = obs::utc_timestamp_now();
  text.insert(brace + 1, "\n\"manifest\": " + manifest.to_json() + ",");

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot rewrite %s\n", path.c_str());
    return;
  }
  out << text;
}

}  // namespace

int main(int argc, char** argv) {
  // Single-assessment benches measure the sequential path; the _Threads
  // sweep overrides this per run.
  litmus::par::set_threads(1);
  std::vector<char*> args(argv, argv + argc);
  std::string out_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
      out_path = argv[i] + 16;
  std::string out_flag = "--benchmark_out=BENCH_perf.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (out_path.empty()) {
    out_path = "BENCH_perf.json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  embed_manifest(out_path);
  return 0;
}
