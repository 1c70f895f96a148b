// Tests for cross-run drift comparison: the golden zero-drift case on a
// byte-identical copy, seed/config/input gating, the informational status
// of thread count and wall time, verdict flips, metric tolerance, and the
// declared metric classes (measured metrics never gate).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "obs/rundiff.h"

namespace litmus::obs {
namespace {

namespace fs = std::filesystem;

class RunDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("litmus_rundiff_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Writes a minimal but complete run directory.
  std::string make_run(const std::string& name, std::uint64_t seed = 42,
                       std::size_t threads = 1,
                       const std::string& verdict = "improvement",
                       double iterations = 1000, double p50 = 0.9) {
    const fs::path dir = root_ / name;
    fs::create_directories(dir);
    std::ofstream(dir / "run_manifest.json")
        << "{\"schema\":1,\"tool\":\"litmus_cli assess\","
           "\"version\":\"0.4.0\",\"build_flags\":\"obs=on,assert=off\","
           "\"threads\":" << threads << ",\"seed\":" << seed
        << ",\"rng_scheme\":\"counter-fork-v1\","
           "\"started_at_utc\":\"2026-08-06T00:00:00Z\","
           "\"config\":{\"--kpi\":\"voice_retainability\"},"
           "\"inputs\":[{\"path\":\"demo/series.csv\",\"bytes\":10,"
           "\"hash64\":\"00000000000000aa\",\"ok\":true}]}\n";
    std::ofstream(dir / "events.jsonl")
        << "{\"v\":1,\"seq\":0,\"t_us\":0,\"type\":\"run_start\"}\n"
        << "{\"v\":1,\"seq\":1,\"t_us\":5,\"type\":\"element_assessed\","
           "\"kpi\":\"voice_retainability\",\"element\":10,\"bin\":0,"
           "\"verdict\":\"" << verdict << "\"}\n"
        << "{\"v\":1,\"seq\":2,\"t_us\":9,\"type\":\"run_end\","
           "\"wall_s\":0.5,\"status\":\"ok\"}\n";
    std::ofstream(dir / "metrics.json")
        << "{\"counters\":{\"litmus.iterations\":" << iterations
        << ",\"stage.fit.calls\":123},"
           "\"histograms\":{\"litmus.fit.r_squared\":{\"count\":10,"
           "\"p50\":" << p50 << "}}}\n";
    return dir.string();
  }

  fs::path root_;
};

TEST_F(RunDiffTest, ByteIdenticalCopyReportsZeroDrift) {
  const std::string a = make_run("a");
  const fs::path b = root_ / "b";
  fs::copy(a, b, fs::copy_options::recursive);  // the golden case
  const RunDiffReport report =
      diff_runs(load_run_dir(a), load_run_dir(b.string()));
  EXPECT_FALSE(report.drift);
  EXPECT_EQ(report.verdict_flips, 0u);
  for (const auto& line : report.manifest) EXPECT_FALSE(line.gating);
  const std::string text =
      format_run_diff(report, load_run_dir(a), load_run_dir(b.string()));
  EXPECT_NE(text.find("no drift"), std::string::npos);
}

TEST_F(RunDiffTest, SeedDeltaGates) {
  const RunData a = load_run_dir(make_run("a", /*seed=*/42));
  const RunData b = load_run_dir(make_run("b", /*seed=*/8));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_TRUE(report.drift);
  const std::string text = format_run_diff(report, a, b);
  EXPECT_NE(text.find("seed: 42 -> 8"), std::string::npos);
  EXPECT_NE(text.find("DRIFT"), std::string::npos);

  DiffThresholds ignore;
  ignore.ignore_manifest = true;
  EXPECT_FALSE(diff_runs(a, b, ignore).drift);
}

TEST_F(RunDiffTest, InputContentHashDeltaGates) {
  // Same input path and size, different content hash: the drift must be
  // read from the manifest's hash64 field and gate.
  const std::string a = make_run("a");
  const fs::path b_dir = root_ / "b";
  fs::copy(a, b_dir, fs::copy_options::recursive);
  std::string manifest;
  {
    std::ifstream in(b_dir / "run_manifest.json");
    std::getline(in, manifest);
  }
  const std::string from = "00000000000000aa";
  manifest.replace(manifest.find(from), from.size(), "00000000000000bb");
  std::ofstream(b_dir / "run_manifest.json") << manifest << "\n";

  const RunData ra = load_run_dir(a);
  const RunData rb = load_run_dir(b_dir.string());
  const RunDiffReport report = diff_runs(ra, rb);
  EXPECT_TRUE(report.drift);
  EXPECT_NE(format_run_diff(report, ra, rb)
                .find("hash64=00000000000000aa bytes=10 -> "
                      "hash64=00000000000000bb bytes=10"),
            std::string::npos)
      << format_run_diff(report, ra, rb);
}

TEST_F(RunDiffTest, ThreadCountDeltaIsInformationalOnly) {
  const RunData a = load_run_dir(make_run("a", 42, /*threads=*/1));
  const RunData b = load_run_dir(make_run("b", 42, /*threads=*/8));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_FALSE(report.drift);  // determinism contract: threads never gate
  bool mentioned = false;
  for (const auto& line : report.manifest)
    if (line.text.find("threads") != std::string::npos) {
      mentioned = true;
      EXPECT_FALSE(line.gating);
    }
  EXPECT_TRUE(mentioned);
}

TEST_F(RunDiffTest, ThreadsConfigFlagIsInformationalOnly) {
  // litmus_cli records --threads in the resolved config as well as in the
  // manifest's threads field; neither may gate, and the config line says
  // so in its text, not only by lacking the [drift] prefix.
  const std::string a = make_run("a", 42, /*threads=*/1);
  const std::string b = make_run("b", 42, /*threads=*/4);
  for (const auto& [dir, n] : {std::pair{a, "1"}, std::pair{b, "4"}}) {
    std::string manifest;
    {
      std::ifstream in(fs::path(dir) / "run_manifest.json");
      std::getline(in, manifest);
    }
    const std::string from = "\"config\":{";
    manifest.insert(manifest.find(from) + from.size(),
                    std::string("\"--threads\":\"") + n + "\",");
    std::ofstream(fs::path(dir) / "run_manifest.json") << manifest << "\n";
  }
  const RunData ra = load_run_dir(a);
  const RunData rb = load_run_dir(b);
  const RunDiffReport report = diff_runs(ra, rb);
  EXPECT_FALSE(report.drift) << format_run_diff(report, ra, rb);
  bool mentioned = false;
  for (const auto& line : report.manifest)
    if (line.text.find("config --threads: 1 -> 4") != std::string::npos) {
      mentioned = true;
      EXPECT_FALSE(line.gating);
      EXPECT_EQ(line.text, "config --threads: 1 -> 4 (informational)");
    }
  EXPECT_TRUE(mentioned) << format_run_diff(report, ra, rb);
}

TEST_F(RunDiffTest, ServeTrafficAndAddressNeverGate) {
  // Run A never served; run B ran with --serve on an ephemeral port and
  // absorbed scrapes (serve.* counters, scrape-latency histogram). The
  // plane is read-only, so the runs must diff clean.
  const std::string a = make_run("a");
  const fs::path b_dir = root_ / "b";
  fs::copy(a, b_dir, fs::copy_options::recursive);
  std::ofstream(b_dir / "run_manifest.json")
      << "{\"schema\":1,\"tool\":\"litmus_cli assess\","
         "\"version\":\"0.4.0\",\"build_flags\":\"obs=on,assert=off\","
         "\"threads\":1,\"seed\":42,"
         "\"rng_scheme\":\"counter-fork-v1\","
         "\"started_at_utc\":\"2026-08-06T00:00:00Z\","
         "\"config\":{\"--kpi\":\"voice_retainability\","
         "\"--serve\":\"127.0.0.1:0\",\"--ready-stale-ms\":\"500\","
         "\"serve.addr\":\"127.0.0.1:40441\"},"
         "\"inputs\":[{\"path\":\"demo/series.csv\",\"bytes\":10,"
         "\"hash64\":\"00000000000000aa\",\"ok\":true}]}\n";
  std::ofstream(b_dir / "metrics.json")
      << "{\"counters\":{\"litmus.iterations\":1000,"
         "\"stage.fit.calls\":123,\"serve.requests\":17,"
         "\"serve.requests.metrics\":9},"
         "\"histograms\":{\"litmus.fit.r_squared\":{\"count\":10,"
         "\"p50\":0.9},\"serve.scrape_us\":{\"count\":9,\"p50\":120}},"
         "\"classes\":{\"serve.requests\":\"measured\","
         "\"serve.requests.metrics\":\"measured\","
         "\"serve.scrape_us\":\"measured\"}}\n";

  const RunData ra = load_run_dir(a);
  const RunData rb = load_run_dir(b_dir.string());
  const RunDiffReport report = diff_runs(ra, rb);
  EXPECT_FALSE(report.drift) << format_run_diff(report, ra, rb);
  for (const auto& line : report.metrics)
    if (line.text.find("serve.") != std::string::npos)
      EXPECT_FALSE(line.gating) << line.text;
  for (const auto& line : report.manifest)
    if (line.text.find("serve") != std::string::npos)
      EXPECT_FALSE(line.gating) << line.text;
}

TEST_F(RunDiffTest, VerdictFlipGatesAndMaxFlipsRaisesTheBar) {
  const RunData a = load_run_dir(make_run("a", 42, 1, "improvement"));
  const RunData b = load_run_dir(make_run("b", 42, 1, "degradation"));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_TRUE(report.drift);
  EXPECT_EQ(report.verdict_flips, 1u);
  EXPECT_EQ(report.verdicts_compared, 1u);

  DiffThresholds lenient;
  lenient.max_verdict_flips = 1;
  EXPECT_FALSE(diff_runs(a, b, lenient).drift);
}

TEST_F(RunDiffTest, DeterministicCounterDeltaGatesExactly) {
  const RunData a = load_run_dir(make_run("a", 42, 1, "improvement", 1000));
  const RunData b = load_run_dir(make_run("b", 42, 1, "improvement", 1001));
  EXPECT_TRUE(diff_runs(a, b).drift);  // deterministic counters: exact
}

/// Replaces a run's metrics.json with one that declares metric classes,
/// as the registry writes it.
void write_classed_metrics(const std::string& dir,
                           const std::string& counters,
                           const std::string& histograms,
                           const std::string& classes) {
  std::ofstream(fs::path(dir) / "metrics.json")
      << "{\"counters\":{" << counters << "},\"histograms\":{"
      << histograms << "},\"classes\":{" << classes << "}}\n";
}

TEST_F(RunDiffTest, MeasuredCounterAndHistogramNeverGate) {
  // Two same-seed runs that differ only in pool timings: the measured
  // counter and histogram differ far beyond any tolerance, and one
  // measured histogram exists only in run B. None of it may gate.
  const std::string a = make_run("a");
  const std::string b = make_run("b");
  write_classed_metrics(
      a, "\"litmus.iterations\":1000,\"parallel.pool.tasks\":12",
      "\"litmus.fit.r_squared\":{\"count\":10,\"p50\":0.9},"
      "\"pool.task_run_us\":{\"count\":12,\"p50\":400}",
      "\"litmus.iterations\":\"deterministic\","
      "\"litmus.fit.r_squared\":\"deterministic\","
      "\"parallel.pool.tasks\":\"measured\","
      "\"pool.task_run_us\":\"measured\"");
  write_classed_metrics(
      b, "\"litmus.iterations\":1000,\"parallel.pool.tasks\":37",
      "\"litmus.fit.r_squared\":{\"count\":10,\"p50\":0.9},"
      "\"pool.task_run_us\":{\"count\":37,\"p50\":76},"
      "\"pool.task_wait_us\":{\"count\":37,\"p50\":1088}",
      "\"litmus.iterations\":\"deterministic\","
      "\"litmus.fit.r_squared\":\"deterministic\","
      "\"parallel.pool.tasks\":\"measured\","
      "\"pool.task_run_us\":\"measured\","
      "\"pool.task_wait_us\":\"measured\"");
  const RunData ra = load_run_dir(a);
  const RunData rb = load_run_dir(b);
  const RunDiffReport report = diff_runs(ra, rb);
  EXPECT_FALSE(report.drift) << format_run_diff(report, ra, rb);
  for (const auto& line : report.metrics)
    EXPECT_FALSE(line.gating) << line.text;

  // One side's declaration is enough: a run written before the metric
  // was classified (no "classes" entry) still compares clean against one
  // that declares it measured.
  write_classed_metrics(
      a, "\"litmus.iterations\":1000,\"parallel.pool.tasks\":12",
      "\"litmus.fit.r_squared\":{\"count\":10,\"p50\":0.9},"
      "\"pool.task_run_us\":{\"count\":12,\"p50\":400}",
      "");
  const RunData old_a = load_run_dir(a);
  EXPECT_FALSE(diff_runs(old_a, rb).drift)
      << format_run_diff(diff_runs(old_a, rb), old_a, rb);
}

TEST_F(RunDiffTest, UnclassedAndDeterministicMetricsStillGate) {
  // The class defaults to deterministic: a counter or histogram that no
  // "classes" entry declares measured gates exactly as before, next to
  // measured metrics that do not.
  const std::string a = make_run("a");
  const std::string b = make_run("b");
  const std::string classes =
      "\"litmus.iterations\":\"deterministic\","
      "\"pool.task_run_us\":\"measured\"";
  write_classed_metrics(
      a, "\"litmus.iterations\":1000,\"assess.elements\":4",
      "\"litmus.fit.r_squared\":{\"count\":10,\"p50\":0.9},"
      "\"pool.task_run_us\":{\"count\":12,\"p50\":400}",
      classes);
  write_classed_metrics(
      b, "\"litmus.iterations\":1001,\"assess.elements\":4",
      "\"litmus.fit.r_squared\":{\"count\":10,\"p50\":0.9},"
      "\"pool.task_run_us\":{\"count\":12,\"p50\":76}",
      classes);
  RunData ra = load_run_dir(a);
  RunData rb = load_run_dir(b);
  RunDiffReport report = diff_runs(ra, rb);
  EXPECT_TRUE(report.drift);  // declared deterministic: exact
  // The measured histogram's 400 -> 76 swing is not listed at all.
  ASSERT_EQ(report.metrics.size(), 1u) << format_run_diff(report, ra, rb);
  EXPECT_NE(report.metrics[0].text.find("counter litmus.iterations"),
            std::string::npos);
  EXPECT_TRUE(report.metrics[0].gating);

  // Unclassed counter and unclassed histogram: both gate.
  write_classed_metrics(
      b, "\"litmus.iterations\":1000,\"assess.elements\":5",
      "\"litmus.fit.r_squared\":{\"count\":10,\"p50\":0.5},"
      "\"pool.task_run_us\":{\"count\":12,\"p50\":76}",
      classes);
  rb = load_run_dir(b);
  report = diff_runs(ra, rb);
  EXPECT_TRUE(report.drift);
  bool counter_gates = false, histogram_gates = false;
  for (const auto& line : report.metrics) {
    EXPECT_EQ(line.text.find("pool."), std::string::npos) << line.text;
    if (line.text.find("counter assess.elements: 4 -> 5") !=
        std::string::npos)
      counter_gates = line.gating;
    if (line.text.find("histogram litmus.fit.r_squared") != std::string::npos)
      histogram_gates = line.gating;
  }
  EXPECT_TRUE(counter_gates) << format_run_diff(report, ra, rb);
  EXPECT_TRUE(histogram_gates) << format_run_diff(report, ra, rb);
}

TEST_F(RunDiffTest, HistogramDriftRespectsRelativeTolerance) {
  const RunData a =
      load_run_dir(make_run("a", 42, 1, "improvement", 1000, /*p50=*/0.90));
  const RunData b =
      load_run_dir(make_run("b", 42, 1, "improvement", 1000, /*p50=*/0.99));
  EXPECT_FALSE(diff_runs(a, b).drift);  // 10% < default 25% tolerance

  DiffThresholds tight;
  tight.metric_rel_tolerance = 0.05;
  EXPECT_TRUE(diff_runs(a, b, tight).drift);
}

TEST_F(RunDiffTest, LoadRejectsRunsWithUnparsableEventLines) {
  const std::string a = make_run("a");
  std::ofstream(fs::path(a) / "events.jsonl", std::ios::app)
      << "{\"v\":1,\"seq\":3,truncated\n";
  EXPECT_THROW(load_run_dir(a), std::runtime_error);
}

TEST_F(RunDiffTest, LoadRequiresManifestAndEvents) {
  const fs::path dir = root_ / "empty";
  fs::create_directories(dir);
  EXPECT_THROW(load_run_dir(dir.string()), std::runtime_error);
}

/// A run dir with explicit adaptive-sampling config flags and metrics, as
/// `litmus_cli ... --adaptive-sampling on` records them.
std::string make_adaptive_run(const fs::path& root, const std::string& name,
                              const std::string& adaptive,
                              double iterations, double rank_calls,
                              double stopped_early) {
  const fs::path dir = root / name;
  fs::create_directories(dir);
  std::ofstream(dir / "run_manifest.json")
      << "{\"schema\":1,\"tool\":\"litmus_cli assess\","
         "\"version\":\"0.4.0\",\"build_flags\":\"obs=on,assert=off\","
         "\"threads\":1,\"seed\":42,"
         "\"rng_scheme\":\"counter-fork-v1\","
         "\"started_at_utc\":\"2026-08-06T00:00:00Z\","
         "\"config\":{\"--kpi\":\"voice_retainability\","
         "\"--adaptive-sampling\":\"" << adaptive << "\","
         "\"--min-iterations\":\"8\",\"--stability-rounds\":\"2\"},"
         "\"inputs\":[{\"path\":\"demo/series.csv\",\"bytes\":10,"
         "\"hash64\":\"00000000000000aa\",\"ok\":true}]}\n";
  std::ofstream(dir / "events.jsonl")
      << "{\"v\":1,\"seq\":0,\"t_us\":0,\"type\":\"run_start\"}\n"
      << "{\"v\":1,\"seq\":1,\"t_us\":5,\"type\":\"element_assessed\","
         "\"kpi\":\"voice_retainability\",\"element\":10,\"bin\":0,"
         "\"verdict\":\"improvement\"}\n"
      << "{\"v\":1,\"seq\":2,\"t_us\":9,\"type\":\"run_end\","
         "\"wall_s\":0.5,\"status\":\"ok\"}\n";
  std::ofstream metrics(dir / "metrics.json");
  metrics << "{\"counters\":{\"litmus.iterations\":" << iterations
          << ",\"rank_test.fp.calls\":" << rank_calls;
  if (adaptive == "on")
    metrics << ",\"litmus.adaptive.stopped_early\":" << stopped_early
            << ",\"litmus.adaptive.iterations_saved\":13";
  metrics << "},\"histograms\":{\"litmus.fit.r_squared\":{\"count\":10,"
             "\"p50\":0.9}}}\n";
  return dir.string();
}

TEST_F(RunDiffTest, AdaptiveConfigGatesAndVolumeMetricsTurnInformational) {
  // Adaptive-off vs adaptive-on: the config flag gates (the runs are not
  // interchangeable), but the volume-of-computation metrics — iteration
  // counts, fit telemetry, rank-test call counts — differ by construction
  // and must not gate; the verdict set carries the signal.
  const RunData a = load_run_dir(
      make_adaptive_run(root_, "a", "off", 1000, 40, 0));
  const RunData b = load_run_dir(
      make_adaptive_run(root_, "b", "on", 600, 130, 25));
  const RunDiffReport gated = diff_runs(a, b);
  EXPECT_TRUE(gated.drift);
  bool config_gates = false;
  for (const auto& line : gated.manifest)
    if (line.text.find("--adaptive-sampling") != std::string::npos)
      config_gates = line.gating;
  EXPECT_TRUE(config_gates);

  DiffThresholds ignore;
  ignore.ignore_manifest = true;
  const RunDiffReport report = diff_runs(a, b, ignore);
  EXPECT_FALSE(report.drift) << format_run_diff(report, a, b);
  EXPECT_EQ(report.verdict_flips, 0u);
  for (const auto& line : report.metrics) {
    EXPECT_FALSE(line.gating) << line.text;
    if (line.text.find("litmus.iterations") != std::string::npos ||
        line.text.find("rank_test.") != std::string::npos)
      EXPECT_NE(line.text.find("informational"), std::string::npos)
          << line.text;
  }
}

TEST_F(RunDiffTest, AdaptiveDiagnosticsNeverGate) {
  // Same adaptive config, different budget-spend diagnostics (e.g. two
  // code versions stopping at different checkpoints): litmus.adaptive.*
  // describes how the budget was spent, never gates.
  const RunData a = load_run_dir(
      make_adaptive_run(root_, "a", "on", 600, 130, 25));
  const RunData b = load_run_dir(
      make_adaptive_run(root_, "b", "on", 600, 130, 20));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_FALSE(report.drift) << format_run_diff(report, a, b);
  bool mentioned = false;
  for (const auto& line : report.metrics)
    if (line.text.find("litmus.adaptive.") != std::string::npos) {
      mentioned = true;
      EXPECT_FALSE(line.gating) << line.text;
    }
  EXPECT_TRUE(mentioned);
}

TEST_F(RunDiffTest, SameAdaptiveConfigKeepsIterationVolumeGating) {
  // Two runs under the SAME adaptive config are deterministic, so an
  // iteration-count delta is real drift, exactly as adaptive-off.
  const RunData a = load_run_dir(
      make_adaptive_run(root_, "a", "on", 600, 130, 25));
  const RunData b = load_run_dir(
      make_adaptive_run(root_, "b", "on", 601, 130, 25));
  EXPECT_TRUE(diff_runs(a, b).drift);
}

/// A sharded run dir: the parent stream holds only the run bracket, the
/// verdicts live in shard-NN/events.jsonl exactly as `litmus_cli batch
/// --shards N` writes them.
std::string make_sharded_run(const fs::path& root, const std::string& name,
                             const std::string& v1, const std::string& v2) {
  const fs::path dir = root / name;
  fs::create_directories(dir / "shard-00");
  fs::create_directories(dir / "shard-01");
  std::ofstream(dir / "run_manifest.json")
      << "{\"schema\":1,\"tool\":\"litmus_cli batch\","
         "\"version\":\"0.9.0\",\"build_flags\":\"obs=on,assert=off\","
         "\"threads\":1,\"seed\":42,"
         "\"rng_scheme\":\"counter-fork-v1\","
         "\"started_at_utc\":\"2026-08-06T00:00:00Z\","
         "\"config\":{\"--shards\":\"2\"},\"inputs\":[]}\n";
  std::ofstream(dir / "events.jsonl")
      << "{\"v\":1,\"seq\":0,\"t_us\":0,\"type\":\"run_start\"}\n"
      << "{\"v\":1,\"seq\":1,\"t_us\":9,\"type\":\"run_end\","
         "\"wall_s\":0.5,\"status\":\"ok\"}\n";
  std::ofstream(dir / "shard-00" / "events.jsonl")
      << "{\"v\":1,\"seq\":0,\"t_us\":0,\"type\":\"run_start\","
         "\"shard\":0}\n"
      << "{\"v\":1,\"seq\":1,\"t_us\":2,\"type\":\"element_assessed\","
         "\"kpi\":\"voice_retainability\",\"element\":10,\"bin\":0,"
         "\"verdict\":\"" << v1 << "\"}\n"
      << "{\"v\":1,\"seq\":2,\"t_us\":3,\"type\":\"run_end\","
         "\"shard\":0,\"wall_s\":0.2,\"status\":\"ok\"}\n";
  std::ofstream(dir / "shard-01" / "events.jsonl")
      << "{\"v\":1,\"seq\":0,\"t_us\":0,\"type\":\"run_start\","
         "\"shard\":1}\n"
      << "{\"v\":1,\"seq\":1,\"t_us\":2,\"type\":\"element_assessed\","
         "\"kpi\":\"voice_retainability\",\"element\":11,\"bin\":0,"
         "\"verdict\":\"" << v2 << "\"}\n"
      << "{\"v\":1,\"seq\":2,\"t_us\":3,\"type\":\"run_end\","
         "\"shard\":1,\"wall_s\":0.2,\"status\":\"ok\"}\n";
  return dir.string();
}

TEST_F(RunDiffTest, ShardedRunStitchesVerdictsFromShardStreams) {
  const RunData r = load_run_dir(
      make_sharded_run(root_, "sharded", "improvement", "no_impact"));
  // Both shard verdicts merged into one map; the parent bracket still
  // provides run_start/run_end and the wall clock.
  EXPECT_EQ(r.verdicts.size(), 2u);
  EXPECT_TRUE(r.has_run_start);
  EXPECT_TRUE(r.has_run_end);
  EXPECT_DOUBLE_EQ(r.wall_seconds, 0.5);
}

TEST_F(RunDiffTest, ShardedVsUnshardedEquivalentRunDiffsClean) {
  // The same two verdicts, once written flat by an unsharded batch and
  // once split across shard dirs: diff-runs must see zero drift, with
  // --shards informational.
  const fs::path flat = root_ / "flat";
  fs::create_directories(flat);
  std::ofstream(flat / "run_manifest.json")
      << "{\"schema\":1,\"tool\":\"litmus_cli batch\","
         "\"version\":\"0.9.0\",\"build_flags\":\"obs=on,assert=off\","
         "\"threads\":1,\"seed\":42,"
         "\"rng_scheme\":\"counter-fork-v1\","
         "\"started_at_utc\":\"2026-08-06T00:00:00Z\","
         "\"config\":{\"--shards\":\"1\"},\"inputs\":[]}\n";
  std::ofstream(flat / "events.jsonl")
      << "{\"v\":1,\"seq\":0,\"t_us\":0,\"type\":\"run_start\"}\n"
      << "{\"v\":1,\"seq\":1,\"t_us\":2,\"type\":\"element_assessed\","
         "\"kpi\":\"voice_retainability\",\"element\":10,\"bin\":0,"
         "\"verdict\":\"improvement\"}\n"
      << "{\"v\":1,\"seq\":2,\"t_us\":3,\"type\":\"element_assessed\","
         "\"kpi\":\"voice_retainability\",\"element\":11,\"bin\":0,"
         "\"verdict\":\"no_impact\"}\n"
      << "{\"v\":1,\"seq\":3,\"t_us\":9,\"type\":\"run_end\","
         "\"wall_s\":0.5,\"status\":\"ok\"}\n";

  const RunData a = load_run_dir(flat.string());
  const RunData b = load_run_dir(
      make_sharded_run(root_, "sharded", "improvement", "no_impact"));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_FALSE(report.drift) << format_run_diff(report, a, b);
  EXPECT_EQ(report.verdicts_compared, 2u);
  EXPECT_EQ(report.verdict_flips, 0u);
}

TEST_F(RunDiffTest, ShardVerdictFlipStillGates) {
  const RunData a = load_run_dir(
      make_sharded_run(root_, "a", "improvement", "no_impact"));
  const RunData b = load_run_dir(
      make_sharded_run(root_, "b", "improvement", "degradation"));
  const RunDiffReport report = diff_runs(a, b);
  EXPECT_TRUE(report.drift);
  EXPECT_EQ(report.verdict_flips, 1u);
}

}  // namespace
}  // namespace litmus::obs
