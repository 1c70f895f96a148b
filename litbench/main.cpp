// litbench: the end-to-end Litmus benchmark program (run.py orchestrates it).
//
//   litbench gen    --workload W --seed N --dir D [--tiny]
//   litbench pass   --workload cold_start|dense_sweep --dir D --threads T
//                   [--tiny] [--write-tables] [--corrupt-report]
//   litbench run    --workload ffa --seed N --dir D --seconds S --threads T
//                   [--tiny] [--speedup] [--corrupt-report]
//   litbench replay --workload W --seed N --dir D --threads T [--tiny]
//   litbench ffa-counts [--threads T] [--tiny]
//
// Workloads:
//   cold_start  - a gen-corpus corpus with its change log cut to the first
//                 record: nearly all of a pass is startup.
//   dense_sweep - a 100k-element corpus at change stride 8 (12,500
//                 records): nearly all of a pass is the per-record path.
//   ffa         - the Table-2 campaigns over several episode seeds, one
//                 core::Assessor call per campaign over in-memory windows.
//
// `gen` writes a batch workload's inputs (off the clock). `pass` is one
// batch pass, from input files to the rendered verdict table, through the
// calls `litmus_cli batch` makes; run.py starts one process per pass, as
// each CLI run is a process of its own. `run` is the ffa loop: one
// untimed warm-up pass, then timed passes until --seconds have elapsed.
// `replay` makes one untimed pass and then one traced pass that calls each
// layer separately under an obs::ScopedSpan recorded by a tracer of its
// own (the library's spans stay off); its per-unit verdicts must equal the
// untimed pass's. `ffa-counts` prints the Table-2 confusion counts that
// spec.json commits. Tracing is off everywhere but in the replay.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "changelog/changelog.h"
#include "eval/group_sim.h"
#include "eval/known_assessments.h"
#include "eval/labeling.h"
#include "io/changes.h"
#include "io/mapped_store.h"
#include "io/store.h"
#include "ledger.h"
#include "litmus/assessor.h"
#include "litmus/batch.h"
#include "litmus/panel_cache.h"
#include "litmus/voting.h"
#include "obs/chrometrace.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"
#include "simkit/scale.h"
#include "tsmath/rank_tests.h"
#include "tsmath/simd/dispatch.h"
#include "tsmath/stats.h"

namespace litbench {
namespace {

using namespace litmus;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

using obs::now_ns;

double since_s(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

struct Options {
  std::string mode;
  std::string workload;
  std::string dir;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::size_t threads = 1;
  bool tiny = false;
  bool speedup = false;
  bool corrupt_report = false;
  bool write_tables = false;
};

// ---- Workload parameters ---------------------------------------------------

constexpr std::size_t kBeforeBins = 48;
constexpr std::size_t kAfterBins = 24;
constexpr std::size_t kMinPasses = 3;
/// Records per prepare/assess block in the replay, as in core::batch.
constexpr std::size_t kBlockRecords = 1024;

struct SweepParams {
  std::size_t elements = 0;
  std::size_t change_stride = 0;
  bool one_record = false;
};

SweepParams sweep_params(const Options& o) {
  if (o.workload == "cold_start") return {o.tiny ? 4000u : 250000u, 64, true};
  if (o.workload == "dense_sweep") return {o.tiny ? 4000u : 100000u, 8, false};
  throw std::runtime_error("not a sweep workload: " + o.workload);
}

/// The configuration `litmus_cli batch --select zip --before-bins 48
/// --after-bins 24` resolves to (default budget of 25 iterations, seed 7).
core::BatchConfig batch_config() {
  core::BatchConfig config;
  config.assessment.before_bins = kBeforeBins;
  config.assessment.after_bins = kAfterBins;
  config.predicate =
      core::all_of({core::same_zip(), core::same_technology()});
  config.group_key = [](const net::Topology& t, net::ElementId id) {
    const auto& e = t.get(id);
    return static_cast<std::uint64_t>(e.zip.value) * 8 +
           static_cast<std::uint64_t>(e.technology);
  };
  return config;
}

struct SweepPaths {
  std::string topology, snapshot, changes;
  explicit SweepPaths(const std::string& dir)
      : topology(dir + "/topology.csv"),
        snapshot(dir + "/series.litmus-snap"),
        changes(dir + "/changes.csv") {}
};

/// Episode seeds whose Table-2 confusion counts are committed in
/// spec.json; a run's --seed picks which of them it simulates.
constexpr std::uint64_t kFfaSeedPool = 16;
constexpr std::uint64_t kFfaSeedBase = 2011;

std::vector<std::uint64_t> ffa_episode_seeds(const Options& o) {
  const std::size_t n = o.tiny ? 1 : 3;
  std::vector<std::uint64_t> seeds;
  for (std::size_t j = 0; j < n; ++j)
    seeds.push_back(kFfaSeedBase + (o.seed + 5 * j) % kFfaSeedPool);
  return seeds;
}

// ---- Inputs ----------------------------------------------------------------

void write_json_file(const std::string& path,
                     const std::function<void(obs::JsonWriter&)>& body) {
  std::ofstream out(path);
  obs::JsonWriter w(out);
  w.begin_object();
  body(w);
  w.end_object();
  out << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int gen(const Options& o) {
  const SweepParams p = sweep_params(o);
  sim::ScaleCorpusConfig cfg;
  cfg.elements = p.elements;
  cfg.change_stride = p.change_stride;
  cfg.before_bins = kBeforeBins;
  cfg.after_bins = kAfterBins;
  cfg.seed = o.seed;
  std::filesystem::create_directories(o.dir);
  const sim::ScaleCorpusReport rep = sim::write_scale_corpus(o.dir, cfg);
  std::size_t records = rep.changes;
  if (p.one_record) {
    // Keep the header and the first record only.
    const SweepPaths paths(o.dir);
    std::ifstream in(paths.changes);
    std::string header, first;
    if (!std::getline(in, header) || !std::getline(in, first))
      throw std::runtime_error("generated change log has no record");
    in.close();
    std::ofstream out(paths.changes, std::ios::trunc);
    out << header << "\n" << first << "\n";
    if (!out) throw std::runtime_error("cannot rewrite " + paths.changes);
    records = 1;
  }
  write_json_file(o.dir + "/corpus.json", [&](obs::JsonWriter& w) {
    w.member("elements", static_cast<std::uint64_t>(rep.elements))
        .member("records", static_cast<std::uint64_t>(records))
        .member("series", rep.series)
        .member("payload_mib",
                static_cast<double>(rep.snapshot_payload_bytes) / (1 << 20));
  });
  return 0;
}

struct FfaCampaign {
  std::string name;
  kpi::KpiId kpi = kpi::KpiId::kVoiceRetainability;
  core::Verdict truth = core::Verdict::kNoImpact;
  std::uint64_t episode_seed = 0;
  std::vector<core::ElementWindows> windows;  ///< one per study element
  /// Study and control ids for the call (ids only label results).
  std::vector<net::ElementId> study, controls;
};

/// eval::run_known_assessments' episode for (row, KPI) at `seed`: the
/// same row seeds and spec fields, so the verdicts equal
/// eval::row_litmus_verdicts for the row.
eval::EpisodeSpec ffa_spec(const eval::KnownChangeRow& row,
                           const eval::KpiTruth& kt, std::uint64_t row_seed,
                           std::uint64_t kpi_counter) {
  eval::EpisodeSpec spec;
  spec.kpi = kt.kpi;
  spec.kind = row.location;
  spec.tech = row.tech;
  spec.region = row.region;
  spec.n_study = row.n_study;
  spec.n_control = 16;
  spec.true_sigma = kt.true_sigma;
  spec.factor_sigma = row.factor_sigma;
  spec.factor_shape = row.factor_shape;
  spec.factor_heterogeneity = row.factor_heterogeneity;
  const bool has_impact = kt.true_sigma != 0.0;
  spec.contaminated_controls = has_impact ? row.contaminated_controls : 0;
  spec.contamination_sigma = has_impact ? row.contamination_sigma : 0.0;
  spec.contamination_at_change = true;
  spec.contamination_sign =
      row.contamination_sign != 0
          ? row.contamination_sign
          : (kt.true_sigma > 0 ? 1 : (kt.true_sigma < 0 ? -1 : 0));
  spec.seed = row_seed * 0x9E3779B97F4A7C15ULL + kpi_counter * 7919;
  return spec;
}

/// eval::run_known_assessments' seed for the row at `index`.
std::uint64_t row_seed_of(std::uint64_t seed, std::size_t index) {
  return seed + (index + 1) * 104729;
}

std::vector<FfaCampaign> ffa_campaigns(
    const std::vector<std::uint64_t>& seeds) {
  std::vector<FfaCampaign> out;
  const auto rows = eval::table2_rows();
  for (const std::uint64_t seed : seeds) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto& row = rows[r];
      const std::uint64_t row_seed = row_seed_of(seed, r);
      std::uint64_t kpi_counter = 0;
      for (const auto& kt : row.kpis) {
        eval::Episode ep =
            eval::simulate_episode(ffa_spec(row, kt, row_seed, ++kpi_counter));
        FfaCampaign c;
        c.name = row.change_type;
        c.kpi = ep.kpi;
        c.truth = ep.truth;
        c.episode_seed = seed;
        c.windows = std::move(ep.study_windows);
        const std::size_t n = c.windows.size();
        const std::size_t nc =
            n == 0 ? 0 : c.windows.front().control_before.size();
        for (std::size_t s = 0; s < n; ++s)
          c.study.push_back(net::ElementId{static_cast<std::uint32_t>(s + 1)});
        for (std::size_t k = 0; k < nc; ++k)
          c.controls.push_back(
              net::ElementId{static_cast<std::uint32_t>(n + k + 1)});
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

// ---- Results shared by run and replay --------------------------------------

/// A unit's outcome in comparable form: verdicts and the test statistics
/// that decide them, printed with every digit.
std::string unit_line(std::uint64_t unit, const core::ChangeAssessment& a) {
  std::ostringstream os;
  os.precision(17);
  os << unit << " " << core::to_string(a.summary.verdict) << " controls="
     << a.control_group.size();
  for (const auto& e : a.per_element)
    os << " [" << e.element.value << " " << core::to_string(e.outcome.verdict)
       << (e.outcome.degenerate ? " degenerate" : "") << " p="
       << e.outcome.p_value << " effect=" << e.outcome.effect_kpi_units << "]";
  os << "\n";
  return os.str();
}

/// Failed or degenerate: an element without a usable forecast or test, or
/// a control group under the selection policy's minimum.
bool unit_failed(const core::ChangeAssessment& a) {
  if (a.control_group.size() < core::SelectionPolicy{}.min_size) return true;
  return std::any_of(a.per_element.begin(), a.per_element.end(),
                     [](const auto& e) { return e.outcome.degenerate; });
}

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double assess_s = 0.0;  ///< the assessment calls alone
  std::size_t units = 0;
  std::size_t failed = 0;
  std::vector<double> call_ms;  ///< ffa: per campaign call
  std::string table;            ///< rendered verdict table
  std::string unit_lines;       ///< per-unit verdicts
  std::map<std::uint64_t, eval::ConfusionCounts> counts;  ///< ffa: by episode seed
  std::vector<core::Verdict> element_verdicts;  ///< ffa: every study element's
};

// ---- Sweeps ------------------------------------------------------------------

struct SweepInputs {
  net::Topology topo;
  std::unique_ptr<io::MappedStore> store;
  chg::ChangeLog log;
  std::size_t loaded = 0;
};

net::Topology load_topology(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return io::load_topology_csv(in);
}

std::unique_ptr<io::MappedStore> open_store(const std::string& path) {
  std::string why;
  auto store = io::MappedStore::open(path, &why);
  if (!store) throw std::runtime_error("cannot map " + path + ": " + why);
  return store;
}

std::size_t load_changes(const std::string& path, chg::ChangeLog& log) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return io::load_changes_csv(in, log);
}

/// The text `litmus_cli batch` prints after its timing line.
std::string batch_table(std::size_t loaded, const core::BatchReport& report,
                        const net::Topology& topo) {
  return "loaded " + std::to_string(loaded) + " change record(s)\n" +
         core::format_batch_report(report, topo);
}

void finish_sweep_pass(const core::BatchReport& report, Pass& pass) {
  pass.units = report.items.size();
  for (const auto& item : report.items) {
    pass.unit_lines += unit_line(item.record.id, item.assessment);
    if (unit_failed(item.assessment)) ++pass.failed;
  }
}

/// Setup as `litmus_cli batch` makes it: each input is loaded, then
/// fingerprinted into the run manifest (every byte read and hashed).
Pass sweep_pass(const SweepPaths& paths) {
  core::PanelCache::global().clear();  // each pass starts like a fresh process
  Pass pass;
  const std::uint64_t t0 = now_ns();
  SweepInputs in;
  obs::RunManifest manifest;
  in.topo = load_topology(paths.topology);
  manifest.add_input(paths.topology);
  in.store = open_store(paths.snapshot);
  manifest.add_input(paths.snapshot);
  in.loaded = load_changes(paths.changes, in.log);
  manifest.add_input(paths.changes);
  pass.setup_s = since_s(t0);
  const std::uint64_t t1 = now_ns();
  const core::BatchReport report = core::assess_change_log(
      in.log, in.topo, in.store->provider(), batch_config());
  pass.assess_s = since_s(t1);
  pass.table = batch_table(in.loaded, report, in.topo);
  pass.wall_s = since_s(t0);
  finish_sweep_pass(report, pass);
  return pass;
}

// ---- FFA -------------------------------------------------------------------

/// The FFA go/no-go input per campaign: go unless the vote or any study
/// element shows a degradation.
std::string ffa_row(const FfaCampaign& c, const core::ChangeAssessment& a) {
  bool go = a.summary.verdict != core::Verdict::kDegradation;
  for (const auto& e : a.per_element)
    if (e.outcome.verdict == core::Verdict::kDegradation) go = false;
  std::string name = c.name;
  name.resize(40, ' ');
  std::string kpi_name(kpi::to_string(c.kpi));
  kpi_name.resize(26, ' ');
  std::string verdict = core::to_string(a.summary.verdict);
  verdict.resize(13, ' ');
  return name + " " + kpi_name + " " + std::to_string(a.per_element.size()) +
         "\t" + verdict + " " + (go ? "go" : "no-go") + "\n";
}

std::string ffa_table(const std::vector<FfaCampaign>& campaigns,
                      const std::vector<core::ChangeAssessment>& results) {
  std::string out = "=== FFA go/no-go: " + std::to_string(campaigns.size()) +
                    " campaign(s) ===\n";
  for (std::size_t i = 0; i < campaigns.size(); ++i)
    out += ffa_row(campaigns[i], results[i]);
  return out;
}

core::SeriesProvider no_provider() {
  return [](net::ElementId, kpi::KpiId, std::int64_t,
            std::size_t) -> ts::TimeSeries {
    throw std::logic_error("ffa assessments run on in-memory windows");
  };
}

void finish_ffa_pass(const std::vector<FfaCampaign>& campaigns,
                     const std::vector<core::ChangeAssessment>& results,
                     Pass& pass) {
  pass.units = campaigns.size();
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    pass.unit_lines += unit_line(i, results[i]);
    if (unit_failed(results[i])) ++pass.failed;
    eval::ConfusionCounts& counts = pass.counts[campaigns[i].episode_seed];
    for (const auto& e : results[i].per_element) {
      counts.add(eval::label(campaigns[i].truth, e.outcome.verdict));
      pass.element_verdicts.push_back(e.outcome.verdict);
    }
  }
}

/// One go/no-go session over every campaign. Each campaign is a request
/// the tool answers with a core::Assessor of its own; building it is the
/// request's setup (its windows are already in memory), and the
/// assess_windows call is the request's latency.
Pass ffa_pass(const std::vector<FfaCampaign>& campaigns) {
  core::PanelCache::global().clear();
  Pass pass;
  const net::Topology topo;
  const std::uint64_t t0 = now_ns();
  std::vector<core::ChangeAssessment> results;
  results.reserve(campaigns.size());
  for (const FfaCampaign& c : campaigns) {
    const std::uint64_t s0 = now_ns();
    const core::Assessor assessor(topo, no_provider());
    const std::uint64_t c0 = now_ns();
    results.push_back(assessor.assess_windows(c.study, c.controls, c.windows,
                                              c.kpi, 0));
    const double call_s = since_s(c0);
    pass.setup_s += static_cast<double>(c0 - s0) / 1e9;
    pass.call_ms.push_back(call_s * 1e3);
    pass.assess_s += call_s;
  }
  pass.table = ffa_table(campaigns, results);
  pass.wall_s = since_s(t0);
  finish_ffa_pass(campaigns, results, pass);
  return pass;
}

// ---- pass and run: untraced timed passes -----------------------------------

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

void write_doubles(obs::JsonWriter& w, const char* key,
                   const std::vector<double>& xs) {
  w.key(key).begin_array();
  for (const double x : xs) w.value(x);
  w.end_array();
}

void write_counts(obs::JsonWriter& w, std::uint64_t seed,
                  const eval::ConfusionCounts& c) {
  w.key(std::to_string(seed)).begin_object();
  w.member("tp", static_cast<std::uint64_t>(c.tp))
      .member("tn", static_cast<std::uint64_t>(c.tn))
      .member("fp", static_cast<std::uint64_t>(c.fp))
      .member("fn", static_cast<std::uint64_t>(c.fn));
  w.end_object();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

void write_tables(const Options& o, const Pass& p) {
  std::string table = p.table;
  if (o.corrupt_report && !table.empty())
    table[table.size() / 2] ^= 0x01;  // self-test of the correctness gate
  write_text(o.dir + "/table.txt", table);
  write_text(o.dir + "/units.txt", p.unit_lines);
}

void write_common(obs::JsonWriter& w, const Options& o) {
  w.member("workload", o.workload)
      .member("threads", static_cast<std::uint64_t>(o.threads))
      .member("build_type", LITBENCH_BUILD_TYPE)
      .member("simd_tier", ts::simd::tier_name(ts::simd::active_tier()))
      .member("iterations", static_cast<std::uint64_t>(
                                core::SpatialRegressionParams{}.n_iterations));
}

/// A batch workload's pass in a process of its own, as each
/// `litmus_cli batch` run is: one JSON line on stdout.
int pass(const Options& o) {
  par::set_threads(o.threads);
  const Pass p = sweep_pass(SweepPaths(o.dir));
  if (o.write_tables) write_tables(o, p);
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  write_common(w, o);
  w.member("windows",
           std::to_string(kBeforeBins) + "/" + std::to_string(kAfterBins))
      .member("setup_s", p.setup_s)
      .member("wall_s", p.wall_s)
      .member("assess_s", p.assess_s)
      .member("units", static_cast<std::uint64_t>(p.units))
      .member("failed", static_cast<std::uint64_t>(p.failed))
      .member("peak_rss_mib", peak_rss_mib())
      .member("table_fnv", fnv1a(p.table))
      .member("units_fnv", fnv1a(p.unit_lines));
  w.end_object();
  std::printf("%s\n", os.str().c_str());
  return 0;
}

/// The ffa workload: one process answering campaign calls in a closed
/// loop, as an interactive go/no-go tool would.
int run_ffa(const Options& o) {
  const std::vector<FfaCampaign> campaigns =
      ffa_campaigns(ffa_episode_seeds(o));
  par::set_threads(o.threads);
  const Pass warm = ffa_pass(campaigns);  // untimed: pool, allocator
  std::vector<Pass> passes;
  bool deterministic = true;
  const std::uint64_t t0 = now_ns();
  while (passes.size() < kMinPasses || since_s(t0) < o.seconds) {
    passes.push_back(ffa_pass(campaigns));
    deterministic = deterministic && passes.back().table == warm.table &&
                    passes.back().unit_lines == warm.unit_lines;
  }

  // Rate at one thread, for parallel.speedup (not part of the timed loop).
  double one_thread_rate = 0.0;
  if (o.speedup) {
    par::set_threads(1);
    const Pass p = ffa_pass(campaigns);
    one_thread_rate = static_cast<double>(p.units) / p.assess_s;
    par::set_threads(o.threads);
  }
  write_tables(o, warm);

  write_json_file(o.dir + "/run.json", [&](obs::JsonWriter& w) {
    write_common(w, o);
    const eval::EpisodeSpec spec;
    w.member("windows", std::to_string(spec.before_bins) + "/" +
                            std::to_string(spec.after_bins))
        .member("deterministic", deterministic)
        .member("units_per_pass", static_cast<std::uint64_t>(warm.units))
        .member("failed_per_pass", static_cast<std::uint64_t>(warm.failed))
        .member("peak_rss_mib", peak_rss_mib())
        .member("one_thread_rate", one_thread_rate);
    std::vector<double> setup, wall, assess, calls;
    for (const Pass& p : passes) {
      setup.push_back(p.setup_s);
      wall.push_back(p.wall_s);
      assess.push_back(p.assess_s);
      calls.insert(calls.end(), p.call_ms.begin(), p.call_ms.end());
    }
    write_doubles(w, "setup_s", setup);
    write_doubles(w, "wall_s", wall);
    write_doubles(w, "assess_s", assess);
    write_doubles(w, "call_ms", calls);
    w.key("ffa_counts").begin_object();
    for (const auto& [seed, counts] : warm.counts) write_counts(w, seed, counts);
    w.end_object();
  });
  return 0;
}

// ---- replay: one traced pass, layer by layer -------------------------------

/// The replay's tracer. It is not obs::Tracer::global(), so the library's
/// own spans (several per sampling iteration) stay off and only the
/// replay's layer spans are recorded. Immortal, as the global one is:
/// pool workers reach it.
obs::Tracer& replay_tracer() {
  static obs::Tracer* tracer = new obs::Tracer(std::size_t{1} << 17);
  return *tracer;
}

/// A span on the replay's tracer. Spans opened inside a par:: task nest
/// under the span that submitted it (the pool carries the parent).
struct Span : obs::ScopedSpan {
  explicit Span(const char* name) : obs::ScopedSpan(name, replay_tracer()) {}
};

/// Counters the replay gathers where the work happens.
struct LayerCounts {
  std::uint64_t elements = 0;
  std::uint64_t iterations = 0;
  std::uint64_t fit_successes = 0;
  std::uint64_t candidates = 0;
  std::uint64_t controls = 0;
  std::uint64_t window_calls = 0;
  std::uint64_t window_bytes = 0;

  void add_forecast(const core::RobustSpatialRegression::Forecast& fc) {
    ++elements;
    iterations += fc.iterations_attempted;
    fit_successes += fc.successful_iterations;
  }
  void add(const LayerCounts& o) {
    elements += o.elements;
    iterations += o.iterations;
    fit_successes += o.fit_successes;
    candidates += o.candidates;
    controls += o.controls;
    window_calls += o.window_calls;
    window_bytes += o.window_bytes;
  }
};

std::uint64_t window_bytes(const core::ElementWindows& w) {
  std::uint64_t n = w.study_before.size() + w.study_after.size();
  for (const auto& s : w.control_before) n += s.size();
  for (const auto& s : w.control_after) n += s.size();
  return n * sizeof(double);
}

/// One study element through the two layer calls inside
/// RobustSpatialRegression::assess, each in its span: the forecast, then
/// the configured test on the forecast differences. The rules around them
/// (degenerate inputs, materiality floor, verdict) restate assess(); the
/// replay gate compares every element's verdict, p and effect with the
/// untraced pass, which calls assess() itself, so a change to assess()
/// that this does not follow stops the benchmark instead of skewing it.
core::AnalysisOutcome assess_element(const core::RobustSpatialRegression& algo,
                                     const core::SpatialRegressionParams& p,
                                     const core::ElementWindows& w,
                                     kpi::KpiId kpi, LayerCounts& counts) {
  core::AnalysisOutcome out;
  const double floor_kpi = p.min_effect_sigma * kpi::info(kpi).typical_noise;
  core::RobustSpatialRegression::Forecast fc;
  bool ok = false;
  {
    Span span("litmus.forecast");
    ok = algo.forecast(w, fc, floor_kpi);
  }
  counts.add_forecast(fc);
  if (!ok || fc.forecast_diff_before.observed_count() < 4 ||
      fc.forecast_diff_after.observed_count() < 4) {
    out.degenerate = true;
    return out;
  }
  ts::TestResult t;
  {
    Span span("tsmath.rank_test");
    const auto after = fc.forecast_diff_after.values();
    const auto before = fc.forecast_diff_before.values();
    t = p.test == core::ComparisonTest::kRobustRankOrder
            ? ts::robust_rank_order(after, before, p.alpha)
            : ts::wilcoxon_mann_whitney(after, before, p.alpha);
  }
  out.p_value = t.p_value;
  out.statistic = t.statistic;
  out.effect_kpi_units =
      ts::median(fc.forecast_diff_after) - ts::median(fc.forecast_diff_before);
  const bool material = std::fabs(out.effect_kpi_units) >= floor_kpi;
  out.relative = !material || t.shift == ts::Shift::kNone
                     ? core::RelativeChange::kNoChange
                     : (t.shift == ts::Shift::kIncrease
                            ? core::RelativeChange::kIncrease
                            : core::RelativeChange::kDecrease);
  out.verdict = core::verdict_from(out.relative, kpi::info(kpi).polarity);
  return out;
}

struct Replay {
  Pass pass;
  LayerCounts counts;
  std::uint64_t t0_ns = 0, t1_ns = 0;
  std::uint64_t tasks0 = 0;
  std::uint64_t tasks = 0;  ///< pool tasks submitted during the pass
  core::PanelCache::Stats cache_before, cache_after;
  double topology_rows = 0.0;
  io::MappedStore::OpenStats open_stats;
  double batch_fixed_s = 0.0;
  /// (span id, unit) of each span that opens a unit's work (change record
  /// id or campaign index); the span's descendants belong to the unit too.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> units;

  /// Starts the traced interval from a cold panel cache.
  void start() {
    core::PanelCache::global().clear();
    cache_before = core::PanelCache::global().stats();
    tasks0 = par::pool_stats().tasks_submitted;
    replay_tracer().start();
    t0_ns = now_ns();
  }
  /// Ends it where the untraced pass's clock stops: at the rendered table,
  /// before the inputs are torn down.
  void stop() {
    t1_ns = now_ns();
    replay_tracer().stop();
    tasks = par::pool_stats().tasks_submitted - tasks0;
    cache_after = core::PanelCache::global().stats();
  }
  /// Tags the innermost open span of this thread with `unit`.
  void tag(std::uint64_t unit) {
    units.emplace_back(obs::current_span_id(), unit);
  }
};

Pass traced_sweep(const SweepPaths& paths, Replay& r) {
  Pass pass;
  SweepInputs in;
  obs::RunManifest manifest;
  const auto fingerprint = [&](const std::string& path) {
    Span span("obs.fingerprint");
    manifest.add_input(path);
  };
  {
    Span span("io.topology_load");
    in.topo = load_topology(paths.topology);
  }
  fingerprint(paths.topology);
  r.topology_rows = static_cast<double>(in.topo.size());
  {
    Span span("io.store_open");
    in.store = open_store(paths.snapshot);
  }
  fingerprint(paths.snapshot);
  r.open_stats = in.store->open_stats();
  {
    Span span("io.changes_load");
    in.loaded = load_changes(paths.changes, in.log);
  }
  fingerprint(paths.changes);

  // What core::assess_change_log builds before its first record.
  const core::BatchConfig config = batch_config();
  std::unique_ptr<core::Assessor> assessor;
  std::unique_ptr<chg::ChangeIndex> conflicts;
  std::unordered_map<std::uint64_t, std::vector<net::ElementId>> groups;
  {
    Span span("litmus.assessor_init");
    assessor = std::make_unique<core::Assessor>(in.topo, in.store->provider(),
                                                config.assessment);
  }
  {
    Span span("changelog.index_build");
    conflicts = std::make_unique<chg::ChangeIndex>(in.log);
  }
  {
    Span span("litmus.candidate_index");
    for (const auto id : in.topo.all())
      groups[config.group_key(in.topo, id)].push_back(id);
  }
  const core::RobustSpatialRegression algo(config.assessment.regression);
  const auto& params = config.assessment.regression;

  const auto records = in.log.all();
  core::BatchReport report;
  report.items.resize(records.size());
  std::vector<LayerCounts> counts(records.size());
  const auto lookback = static_cast<std::int64_t>(kBeforeBins);
  const auto lookahead = static_cast<std::int64_t>(kAfterBins);
  for (std::size_t base = 0; base < records.size(); base += kBlockRecords) {
    const std::size_t n = std::min(kBlockRecords, records.size() - base);
    std::vector<core::ElementWindows> windows(n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto& record = records[base + j];
      core::BatchItem& item = report.items[base + j];
      LayerCounts& c = counts[base + j];
      Span unit_span("litmus.prepare");
      r.tag(record.id);
      item.record = record;
      {
        Span span("changelog.conflict_query");
        item.conflicts = conflicts->conflicting_changes(
            in.topo, record.element, record.bin - lookback,
            record.bin + lookahead, record.id);
      }
      item.window_clean = item.conflicts.empty();
      const std::vector<net::ElementId> study = {record.element};
      {
        Span span("litmus.selection");
        const auto it = groups.find(config.group_key(in.topo, record.element));
        const std::span<const net::ElementId> candidates =
            it == groups.end() ? std::span<const net::ElementId>{}
                               : std::span<const net::ElementId>(it->second);
        core::SelectionResult sel = core::select_control_group_among(
            in.topo, candidates, study, config.predicate, config.selection);
        c.candidates = sel.candidates_considered;
        item.assessment.control_group = std::move(sel.controls);
      }
      c.controls = item.assessment.control_group.size();
      {
        Span span("litmus.window_fetch");
        windows[j] = assessor->windows_for(record.element,
                                           item.assessment.control_group,
                                           record.target_kpi, record.bin);
      }
      c.window_calls = 1;
      c.window_bytes = window_bytes(windows[j]);
      item.assessment.kpi = record.target_kpi;
      item.assessment.change_bin = record.bin;
      item.assessment.study_group = study;
    }
    std::vector<std::uint64_t> record_spans(n);
    {
      Span fan_out("parallel.fanout");
      par::parallel_for(n, [&](std::size_t j) {
        Span span("litmus.record");
        record_spans[j] = obs::current_span_id();
        const auto& record = records[base + j];
        core::BatchItem& item = report.items[base + j];
        core::AnalysisOutcome outcome = assess_element(
            algo, params, windows[j], record.target_kpi, counts[base + j]);
        item.assessment.per_element.push_back({record.element, outcome});
        {
          Span vote_span("litmus.vote");
          item.assessment.summary = core::vote({&outcome, 1});
        }
        const core::Verdict expected =
            record.expectation == chg::Expectation::kImprovement
                ? core::Verdict::kImprovement
                : (record.expectation == chg::Expectation::kDegradation
                       ? core::Verdict::kDegradation
                       : core::Verdict::kNoImpact);
        item.met_expectation = item.assessment.summary.verdict == expected;
      });
    }
    for (std::size_t j = 0; j < n; ++j)
      r.units.emplace_back(record_spans[j], records[base + j].id);
    Span release("litmus.window_release");
    windows = {};  // the batch frees each block's windows likewise
  }
  for (const auto& item : report.items) {
    switch (item.assessment.summary.verdict) {
      case core::Verdict::kImprovement: ++report.improvements; break;
      case core::Verdict::kDegradation: ++report.degradations; break;
      case core::Verdict::kNoImpact: ++report.no_impacts; break;
    }
    if (!item.window_clean) ++report.dirty_windows;
    if (!item.met_expectation) ++report.expectation_misses;
  }
  for (const auto& c : counts) r.counts.add(c);
  {
    Span span("litmus.report_format");
    pass.table = batch_table(in.loaded, report, in.topo);
  }
  r.stop();
  finish_sweep_pass(report, pass);

  // litmus.batch_fixed_s: core::assess_change_log on a log of the first
  // record alone (on cold_start that is the whole log), after the traced
  // interval, from a cold panel cache as a one-record run starts.
  chg::ChangeLog first;
  if (!records.empty()) first.add(records.front());
  core::PanelCache::global().clear();
  const std::uint64_t f0 = now_ns();
  const core::BatchReport fixed =
      core::assess_change_log(first, in.topo, in.store->provider(), config);
  r.batch_fixed_s = since_s(f0);
  if (fixed.items.size() != first.size())
    throw std::runtime_error("one-record batch lost its record");
  return pass;
}

Pass traced_ffa(const std::vector<FfaCampaign>& campaigns, Replay& r) {
  Pass pass;
  const net::Topology topo;
  std::vector<core::ChangeAssessment> results(campaigns.size());
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const FfaCampaign& c = campaigns[i];
    Span unit_span("litmus.campaign");
    r.tag(i);
    std::unique_ptr<core::Assessor> assessor;
    {
      Span span("litmus.assessor_init");
      assessor = std::make_unique<core::Assessor>(topo, no_provider());
    }
    const auto& params = assessor->config().regression;
    const core::RobustSpatialRegression algo(params);
    core::ChangeAssessment& a = results[i];
    a.kpi = c.kpi;
    a.study_group = c.study;
    a.control_group = c.controls;
    std::vector<core::AnalysisOutcome> outcomes(c.windows.size());
    std::vector<LayerCounts> counts(c.windows.size());
    {
      Span fan_out("parallel.fanout");
      par::parallel_for(c.windows.size(), [&](std::size_t e) {
        Span span("litmus.element");
        outcomes[e] =
            assess_element(algo, params, c.windows[e], c.kpi, counts[e]);
      });
    }
    for (std::size_t e = 0; e < outcomes.size(); ++e) {
      a.per_element.push_back({c.study[e], outcomes[e]});
      r.counts.add(counts[e]);
    }
    Span vote_span("litmus.vote");
    a.summary = core::vote(outcomes);
  }
  {
    Span span("litmus.report_format");
    pass.table = ffa_table(campaigns, results);
  }
  r.stop();
  finish_ffa_pass(campaigns, results, pass);
  return pass;
}

void write_ledger(obs::JsonWriter& w, const Ledger& ledger) {
  w.key("ledger").begin_object();
  w.member("wall_s", ledger.wall_s)
      .member("unattributed_s", ledger.unattributed_s)
      .member("charged_sum_s", ledger.charged_sum_s());
  w.key("rows").begin_object();
  for (const auto& [name, row] : ledger.rows) {
    w.key(name).begin_object();
    w.member("charged_s", row.charged_s)
        .member("total_s", row.total_s)
        .member("count", row.count);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

int replay(const Options& o) {
  obs::set_thread_name("caller");
  const bool ffa = o.workload == "ffa";
  const SweepPaths paths(o.dir);
  std::vector<FfaCampaign> campaigns;
  if (ffa) campaigns = ffa_campaigns(ffa_episode_seeds(o));
  par::set_threads(o.threads);
  const Pass untraced = ffa ? ffa_pass(campaigns) : sweep_pass(paths);

  Replay r;
  r.start();
  r.pass = ffa ? traced_ffa(campaigns, r) : traced_sweep(paths, r);

  obs::Tracer& tracer = replay_tracer();
  const std::vector<obs::SpanRecord> spans = tracer.spans();
  if (spans.empty() || tracer.dropped() != 0)
    throw std::runtime_error(
        "the replay recorded " + std::to_string(spans.size()) +
        " span(s) and dropped " + std::to_string(tracer.dropped()));
  const Ledger ledger = build_ledger(spans, r.t1_ns - r.t0_ns);
  {
    std::ofstream out(o.dir + "/trace.json");
    obs::write_chrome_trace(out, spans, tracer.epoch_ns(), obs::thread_names());
    if (!out) throw std::runtime_error("cannot write trace.json");
  }
  write_json_file(o.dir + "/trace_units.json", [&](obs::JsonWriter& w) {
    w.member("about",
             "unit (change record id or campaign index) by span id of "
             "trace.json; a span's descendants belong to its unit");
    w.key("units").begin_object();
    for (const auto& [span_id, unit] : r.units)
      w.member(std::to_string(span_id), unit);
    w.end_object();
  });
  write_text(o.dir + "/replay_table.txt", r.pass.table);
  write_text(o.dir + "/replay_units.txt", r.pass.unit_lines);

  const bool agrees = r.pass.table == untraced.table &&
                      r.pass.unit_lines == untraced.unit_lines;
  const double hits =
      static_cast<double>(r.cache_after.hits - r.cache_before.hits);
  const double lookups =
      hits + static_cast<double>(r.cache_after.misses - r.cache_before.misses);
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  write_json_file(o.dir + "/replay.json", [&](obs::JsonWriter& w) {
    w.member("agrees_with_untraced", agrees)
        .member("units", static_cast<std::uint64_t>(r.pass.units))
        .member("spans", static_cast<std::uint64_t>(spans.size()))
        .member("pool_tasks", r.tasks)
        .member("topology_rows", r.topology_rows)
        .member("store_bytes", r.open_stats.bytes_mapped)
        .member("store_major_faults", r.open_stats.major_faults)
        .member("batch_fixed_s", r.batch_fixed_s)
        .member("elements", r.counts.elements)
        .member("iterations", r.counts.iterations)
        .member("fit_success_ratio",
                ratio(static_cast<double>(r.counts.fit_successes),
                      static_cast<double>(r.counts.iterations)))
        .member("candidates_per_control",
                ratio(static_cast<double>(r.counts.candidates),
                      static_cast<double>(r.counts.controls)))
        .member("window_calls", r.counts.window_calls)
        .member("window_bytes", r.counts.window_bytes)
        .member("panel_cache_hit_ratio", ratio(hits, lookups));
    write_ledger(w, ledger);
  });
  return 0;
}

// ---- ffa-counts: the committed Table-2 confusion counts --------------------

/// Prints each pool seed's Litmus confusion counts as spec.json commits
/// them, after checking every verdict against eval::row_litmus_verdicts.
int ffa_counts(const Options& o) {
  const auto rows = eval::table2_rows();
  const std::uint64_t pool = o.tiny ? 1 : kFfaSeedPool;
  par::set_threads(o.threads);
  for (std::uint64_t seed = kFfaSeedBase; seed < kFfaSeedBase + pool; ++seed) {
    std::vector<core::Verdict> oracle;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto v = eval::row_litmus_verdicts(rows[r], row_seed_of(seed, r),
                                               {});
      oracle.insert(oracle.end(), v.begin(), v.end());
    }
    const Pass p = ffa_pass(ffa_campaigns({seed}));
    if (p.element_verdicts != oracle)
      throw std::runtime_error("ffa verdicts differ from "
                               "eval::row_litmus_verdicts at seed " +
                               std::to_string(seed));
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.begin_object();
    write_counts(w, seed, p.counts.at(seed));
    w.end_object();
    std::printf("%s\n", os.str().c_str());
  }
  return 0;
}

// ---- main ------------------------------------------------------------------

Options parse(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: litbench MODE [flags]");
  Options o;
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      return argv[++i];
    };
    const auto number = [&]() {
      const std::string v = value();
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || d < 0)
        throw std::runtime_error("bad value for " + flag + ": " + v);
      return d;
    };
    if (flag == "--workload") o.workload = value();
    else if (flag == "--dir") o.dir = value();
    else if (flag == "--seed") o.seed = static_cast<std::uint64_t>(number());
    else if (flag == "--seconds") o.seconds = number();
    else if (flag == "--threads")
      o.threads = std::max<std::size_t>(1, static_cast<std::size_t>(number()));
    else if (flag == "--tiny") o.tiny = true;
    else if (flag == "--speedup") o.speedup = true;
    else if (flag == "--corrupt-report") o.corrupt_report = true;
    else if (flag == "--write-tables") o.write_tables = true;
    else throw std::runtime_error("unknown flag: " + flag);
  }
  if (o.mode != "ffa-counts" && o.workload != "cold_start" &&
      o.workload != "dense_sweep" && o.workload != "ffa")
    throw std::runtime_error("unknown --workload: " + o.workload);
  if (o.mode != "ffa-counts" && o.dir.empty())
    throw std::runtime_error("missing --dir");
  return o;
}

}  // namespace
}  // namespace litbench

int main(int argc, char** argv) {
  try {
    const litbench::Options o = litbench::parse(argc, argv);
    if (o.mode == "gen") return litbench::gen(o);
    if (o.mode == "ffa-counts") return litbench::ffa_counts(o);
    if (o.mode != "pass" && o.mode != "run" && o.mode != "replay")
      throw std::runtime_error("unknown mode: " + o.mode);
    if (o.mode != "replay" && (o.mode == "pass") == (o.workload == "ffa"))
      throw std::runtime_error(o.mode + " does not run workload " +
                               o.workload);
    if (!litbench::kOptimizedBuild) {
      std::fprintf(stderr,
                   "litbench: refusing to report from a non-optimised build "
                   "(%s)\n",
                   LITBENCH_BUILD_TYPE);
      return 2;
    }
    if (o.mode == "pass") return litbench::pass(o);
    return o.mode == "run" ? litbench::run_ffa(o) : litbench::replay(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "litbench: %s\n", e.what());
    return 1;
  }
}
