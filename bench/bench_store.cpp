// Mapped-store scale benches: the DESIGN.md §15 path from snapshot bytes
// to batch verdicts. A simkit scale corpus (default 20k NodeBs x 2 KPIs;
// LITMUS_BENCH_STORE_ELEMENTS overrides — the CI workload, the 1M national
// topology is the same code at a bigger number) is generated once per
// process, then:
//
//   BM_MappedOpen        open + full validation (checksum pass) per iter
//   BM_WindowFetchHeap   assessment windows via the heap SeriesStore
//   BM_WindowFetchMapped the same windows zero-copy off the mapped pages
//   BM_AssessOne         one change record end to end (calibration)
//   BM_BatchAssess/N     the whole change log, N shards — the elements/s
//                        headline (items_per_second = records assessed/s)
//
// The gated ratios for tools/check_bench_regression.py are
//
//     BM_BatchAssess/1 / BM_AssessOne
//     BM_MappedOpen    / BM_AssessOne
//
// which are machine-independent (both sides scale with host speed). The
// first catches per-element scaling regressions: anything super-linear in
// the batch driver — a full-topology scan per record, a cache that stops
// hitting — moves the ratio, while a uniformly slower host does not. The
// second holds the open's checksum pass to memory speed.
// Results go to BENCH_store.json with an embedded manifest.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "changelog/changelog.h"
#include "io/changes.h"
#include "io/mapped_store.h"
#include "io/snapshot.h"
#include "io/store.h"
#include "litmus/batch.h"
#include "litmus/control_selection.h"
#include "obs/manifest.h"
#include "parallel/pool.h"
#include "simkit/scale.h"

namespace {

using namespace litmus;

constexpr const char* kCorpusDir = "bench_store_corpus";

std::size_t corpus_elements() {
  if (const char* env = std::getenv("LITMUS_BENCH_STORE_ELEMENTS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 20'000;
}

const sim::ScaleCorpusConfig& corpus_config() {
  static const sim::ScaleCorpusConfig cfg = [] {
    sim::ScaleCorpusConfig c;
    c.elements = corpus_elements();
    return c;
  }();
  return cfg;
}

std::string corpus_path(const char* file) {
  return std::string(kCorpusDir) + "/" + file;
}

struct Corpus {
  net::Topology topo;
  chg::ChangeLog log;
  std::shared_ptr<io::MappedStore> mapped;
  core::BatchConfig config;  ///< zip-indexed selection, corpus windows
};

const Corpus& corpus() {
  static const Corpus c = [] {
    const sim::ScaleCorpusConfig& cfg = corpus_config();
    const sim::ScaleCorpusReport rep = sim::write_scale_corpus(kCorpusDir, cfg);
    Corpus out;
    {
      std::ifstream in(corpus_path("topology.csv"));
      out.topo = io::load_topology_csv(in);
    }
    {
      std::ifstream in(corpus_path("changes.csv"));
      io::load_changes_csv(in, out.log);
    }
    std::string why;
    out.mapped = io::MappedStore::open(corpus_path("series.litmus-snap"), &why);
    if (!out.mapped || out.mapped->size() != rep.series) {
      std::fprintf(stderr, "bench_store: cannot map corpus snapshot: %s\n",
                   why.c_str());
      std::exit(1);
    }
    out.config.assessment.before_bins = cfg.before_bins;
    out.config.assessment.guard_bins = cfg.guard_bins;
    out.config.assessment.after_bins = cfg.after_bins;
    out.config.predicate =
        core::all_of({core::same_zip(), core::same_technology()});
    out.config.group_key = [](const net::Topology& t, net::ElementId id) {
      const auto& e = t.get(id);
      return static_cast<std::uint64_t>(e.zip.value) * 8 +
             static_cast<std::uint64_t>(e.technology);
    };
    return out;
  }();
  return c;
}

// The heap-materialised twin of the mapped store, for the fetch A/B.
const io::SeriesStore& heap_store() {
  static const io::SeriesStore s = [] {
    io::SeriesStore store;
    std::string why;
    const io::SnapshotLoad load = io::load_series_snapshot(
        corpus_path("series.litmus-snap"), store, /*expected_fingerprint=*/0,
        /*expected_bytes=*/0, &why);
    if (load != io::SnapshotLoad::kLoaded) {
      std::fprintf(stderr, "bench_store: heap snapshot load failed: %s\n",
                   why.c_str());
      std::exit(1);
    }
    return store;
  }();
  return s;
}

// Full open + validation per iteration: header checks, one pass that
// checksums every payload byte and builds the record index. Warm after the
// first iteration, so this times validation throughput, not disk.
void BM_MappedOpen(benchmark::State& state) {
  corpus();  // ensure the snapshot exists
  const std::string path = corpus_path("series.litmus-snap");
  std::uint64_t series = 0, bytes = 0;
  for (auto _ : state) {
    std::string why;
    auto store = io::MappedStore::open(path, &why);
    if (!store) {
      state.SkipWithError(("open failed: " + why).c_str());
      return;
    }
    series = store->size();
    bytes = store->bytes_mapped();
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * series));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_MappedOpen);

// One assessment window pair (study before + after, target KPI) per change
// record, through a SeriesProvider. The two variants run the identical
// fetch loop; only the provider differs.
void fetch_windows(benchmark::State& state,
                   const core::SeriesProvider& provider) {
  const Corpus& c = corpus();
  const core::AssessmentConfig& a = c.config.assessment;
  const std::int64_t before = static_cast<std::int64_t>(a.before_bins);
  double sink = 0.0;
  for (auto _ : state) {
    for (const chg::ChangeRecord& r : c.log.all()) {
      const ts::TimeSeries sb =
          provider(r.element, r.target_kpi, r.bin - before, a.before_bins);
      const ts::TimeSeries sa = provider(
          r.element, r.target_kpi,
          r.bin + static_cast<std::int64_t>(a.guard_bins), a.after_bins);
      sink += sb.values().empty() ? 0.0 : sb.values().front();
      sink += sa.values().empty() ? 0.0 : sa.values().front();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * c.log.size()));
}

void BM_WindowFetchHeap(benchmark::State& state) {
  corpus();
  fetch_windows(state, heap_store().provider());
}
BENCHMARK(BM_WindowFetchHeap);

void BM_WindowFetchMapped(benchmark::State& state) {
  fetch_windows(state, corpus().mapped->provider());
}
BENCHMARK(BM_WindowFetchMapped);

// Calibration primitive: one change record end to end (control selection,
// window fetch, robust regression, vote) off the mapped provider.
void BM_AssessOne(benchmark::State& state) {
  const Corpus& c = corpus();
  chg::ChangeLog one;
  one.add(c.log.all().front());
  const core::SeriesProvider provider = c.mapped->provider();
  for (auto _ : state) {
    const core::BatchReport rep =
        core::assess_change_log(one, c.topo, provider, c.config);
    benchmark::DoNotOptimize(rep);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AssessOne);

// The headline: the whole change log off the mapped store, unsharded
// (/1) and through the sharded driver (/4). items_per_second is change
// records (= study elements) assessed per second.
void BM_BatchAssess(benchmark::State& state) {
  const Corpus& c = corpus();
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const core::SeriesProvider provider = c.mapped->provider();
  std::size_t assessed = 0;
  for (auto _ : state) {
    if (shards <= 1) {
      const core::BatchReport rep =
          core::assess_change_log(c.log, c.topo, provider, c.config);
      assessed = rep.items.size();
      benchmark::DoNotOptimize(rep);
    } else {
      const core::ShardedBatchReport rep = core::assess_change_log_sharded(
          c.log, c.topo, provider, shards, c.config);
      assessed = rep.merged.items.size();
      benchmark::DoNotOptimize(rep);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * assessed));
}
// No Unit() override: the regression gate divides this row's real_time by
// BM_AssessOne's, so both must stay in google-benchmark's default ns.
BENCHMARK(BM_BatchAssess)->Arg(1)->Arg(4);

// The adaptive-sampling headline (DESIGN.md §16): the same change log at
// the high-robustness budget of 100 iterations, adaptive off (/0) vs on
// (/1). Most corpus elements are decisively null or decisively shifted
// and stop after ~12 iterations, so records/s multiplies — CI gates the
// /0 vs /1 ratio with a 1.5x floor (machine-independent: both rows come
// from the same process). At the default budget of 25 the Gram fast path
// makes iterations cheap enough that early stopping only breaks even;
// the adaptive layer is what makes budgets like 100 affordable at scale.
void BM_BatchAssessAdaptive(benchmark::State& state) {
  const Corpus& c = corpus();
  const core::SeriesProvider provider = c.mapped->provider();
  core::BatchConfig config = c.config;
  config.assessment.regression.n_iterations = 100;
  config.assessment.regression.adaptive_sampling = state.range(0) != 0;
  std::size_t assessed = 0;
  for (auto _ : state) {
    const core::BatchReport rep =
        core::assess_change_log(c.log, c.topo, provider, config);
    assessed = rep.items.size();
    benchmark::DoNotOptimize(rep);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * assessed));
}
BENCHMARK(BM_BatchAssessAdaptive)->Arg(0)->Arg(1);

// Same manifest-embedding scheme as the other benches.
void embed_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;  // bench ran with a different reporter; nothing to do
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t brace = text.find('{');
  if (brace == std::string::npos) return;

  obs::RunManifest manifest;
  manifest.tool = "bench_store";
  manifest.threads = par::threads();
  manifest.seed = corpus_config().seed;
  manifest.started_at_utc = obs::utc_timestamp_now();
  manifest.add_config("elements", std::to_string(corpus_elements()));
  manifest.add_config("kpis", std::to_string(corpus_config().kpis.size()));
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
  std::string out_flag = "--benchmark_out=BENCH_store.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (out_path.empty()) {
    out_path = "BENCH_store.json";
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
