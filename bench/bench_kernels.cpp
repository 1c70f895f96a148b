// Microbenchmarks for the batch-sweep hot-path kernels: the columnar
// design-matrix fill, the blocked Gram panel build, and the multi-element
// sweep those kernels compose into.
//
// Where bench_perf.cpp tracks whole-assessment latency, this family
// isolates the layers the per-call panel and columnar kernels touch, so a
// regression pinpoints which kernel moved. BM_MultiElementSweep runs one
// assessment call whose elements share one panel build
// (tests/litmus/call_panel_test.cpp pins that the sharing is
// bit-identical to per-element builds).
//
// Results go to BENCH_kernels.json (google-benchmark JSON with an embedded
// manifest block) unless the caller passes --benchmark_out; gate with
//   tools/check_bench_regression.py --key <name> baseline.json candidate.json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/group_sim.h"
#include "litmus/assessor.h"
#include "litmus/panel_cache.h"
#include "obs/manifest.h"
#include "parallel/pool.h"
#include "tsmath/gram.h"
#include "tsmath/matrix.h"
#include "tsmath/random.h"
#include "tsmath/ranks.h"
#include "tsmath/simd/dispatch.h"
#include "tsmath/simd/kernels.h"
#include "tsmath/timeseries.h"

namespace {

using namespace litmus;

constexpr std::size_t kRows = 14 * 24;  // 14-day hourly before window

std::vector<ts::TimeSeries> make_controls(std::size_t n) {
  ts::Rng rng(41);
  std::vector<ts::TimeSeries> out;
  out.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<double> v(kRows + 48);  // some slack on both sides
    for (auto& x : v) x = rng.normal();
    out.emplace_back(-24, std::move(v));
  }
  return out;
}

ts::Matrix fill_design(const std::vector<ts::TimeSeries>& controls) {
  ts::Matrix x(kRows, controls.size());
  for (std::size_t c = 0; c < controls.size(); ++c)
    controls[c].copy_range_into(0, x.column(c));
  return x;
}

// Forces the kernel tier for one benchmark's scope: 0 = scalar, 1 = the
// best tier the host supports. The scalar/native row pair is the A/B
// measurement the SIMD layer is judged by (check_bench_regression.py
// --min-speedup); results are bit-identical either way, so the pair
// times the same work.
class TierGuard {
 public:
  explicit TierGuard(std::int64_t native)
      : prev_(ts::simd::active_tier()) {
    ts::simd::set_active_tier(native != 0 ? ts::simd::detected_tier()
                                          : ts::simd::Tier::kScalar);
  }
  ~TierGuard() { ts::simd::set_active_tier(prev_); }

 private:
  ts::simd::Tier prev_;
};

// Columnar design fill: one copy_range_into per control column.
void BM_DesignFill(benchmark::State& state) {
  const auto controls = make_controls(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto x = fill_design(controls);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kRows * controls.size()));
}
BENCHMARK(BM_DesignFill)->Arg(16)->Arg(64);

// Cold Gram build: the O(m·N²) blocked accumulation the cache amortizes.
// Second arg picks the kernel tier (0 scalar, 1 native).
void BM_GramBuildCold(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto x =
      fill_design(make_controls(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto panel = ts::GramPanel::build(x);
    benchmark::DoNotOptimize(panel);
  }
}
BENCHMARK(BM_GramBuildCold)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// The raw augmented-Gram accumulation kernel on pre-packed columns — the
// tightest loop of the panel build and the row the >=1.5x native-vs-
// scalar acceptance floor is measured on.
void BM_GramAccumulate(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto cols = static_cast<std::size_t>(state.range(0));
  ts::Rng rng(17);
  std::vector<double> packed(kRows * cols);
  for (auto& v : packed) v = rng.normal();
  std::vector<double> g((cols + 1) * (cols + 1));
  for (auto _ : state) {
    std::fill(g.begin(), g.end(), 0.0);
    ts::simd::accumulate_gram(packed.data(), kRows, cols, g.data());
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kRows * cols * (cols + 1) / 2));
}
BENCHMARK(BM_GramAccumulate)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// X̃ᵀy bind against a prebuilt panel: missing-scan of y, gather, Σy/yᵀy,
// and one dot per column through the dispatched kernels.
void BM_GramBind(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto x =
      fill_design(make_controls(static_cast<std::size_t>(state.range(0))));
  const auto panel = ts::GramPanel::build(x);
  ts::Rng rng(23);
  std::vector<double> y(kRows);
  for (auto& v : y) v = rng.normal();
  ts::GramSystem sys;
  for (auto _ : state) {
    const bool ok = sys.bind(panel, y, /*with_intercept=*/true);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(sys);
  }
}
BENCHMARK(BM_GramBind)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// Fligner-Policello placements over a tie-heavy sample pair, as the
// robust rank-order test runs them (both directions in one call). Sized
// under the counting-kernel crossover so the SIMD compare-and-count
// sweep is what gets timed.
void BM_Placements(benchmark::State& state) {
  const TierGuard tier(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(0));
  ts::Rng rng(29);
  std::vector<double> xs(n), ys(n);
  for (auto& v : xs) v = std::round(rng.normal() * 8.0) / 8.0;
  for (auto& v : ys) v = std::round(rng.normal() * 8.0) / 8.0;
  std::vector<double> u_x(n), u_y(n);
  for (auto _ : state) {
    ts::placement_pair_into(xs, ys, u_x, u_y);
    benchmark::DoNotOptimize(u_x.data());
    benchmark::DoNotOptimize(u_y.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 2 * n));
}
BENCHMARK(BM_Placements)->Args({168, 0})->Args({168, 1});

// End-to-end multi-element sweep: one Assessor::assess_windows call over
// 8 study elements sharing one 64-control group, so the call builds one
// Gram panel and the other 7 elements reuse it. Items/s counts element
// assessments.
void BM_MultiElementSweep(benchmark::State& state) {
  eval::EpisodeSpec spec;
  spec.n_study = 8;
  spec.n_control = 64;
  spec.before_bins = 14 * 24;
  spec.after_bins = 14 * 24;
  spec.true_sigma = 1.5;
  spec.seed = 97;
  const auto episode = eval::simulate_episode(spec);
  const net::Topology topo;
  const core::Assessor assessor(
      topo, [](net::ElementId, kpi::KpiId, std::int64_t, std::size_t) {
        return ts::TimeSeries();  // never called: windows are pre-fetched
      });
  const std::vector<net::ElementId> study(episode.study_windows.size());

  const auto before = core::PanelCache::global().stats();
  for (auto _ : state) {
    auto out = assessor.assess_windows(study, {}, episode.study_windows,
                                       kpi::KpiId::kVoiceRetainability, 0);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * episode.study_windows.size()));
  const auto after = core::PanelCache::global().stats();
  state.counters["panel_builds_per_call"] =
      static_cast<double>(after.misses - before.misses) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_MultiElementSweep);

// Same manifest-embedding scheme as bench_perf.cpp: google-benchmark owns
// the JSON writer, so provenance is spliced in afterwards for
// tools/check_bench_regression.py to inspect.
void embed_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;  // bench ran with a different reporter; nothing to do
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t brace = text.find('{');
  if (brace == std::string::npos) return;

  obs::RunManifest manifest;
  manifest.tool = "bench_kernels";
  manifest.threads = par::threads();
  manifest.seed = 97;
  manifest.simd_detected = ts::simd::tier_name(ts::simd::detected_tier());
  manifest.simd_dispatch = ts::simd::tier_name(ts::simd::active_tier());
  manifest.fast_math = ts::simd::fast_math();
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
  litmus::par::set_threads(1);
  std::vector<char*> args(argv, argv + argc);
  std::string out_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
      out_path = argv[i] + 16;
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (out_path.empty()) {
    out_path = "BENCH_kernels.json";
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
