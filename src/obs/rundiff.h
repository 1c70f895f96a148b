// Cross-run drift comparison: loads two persisted runs (the directory
// --events-jsonl writes into: run_manifest.json + events.jsonl +
// metrics.json) and reports what changed between them —
//
//   * manifest deltas: version, build flags, seed, RNG scheme, resolved
//     config, input fingerprints. Thread count and wall-clock timestamp
//     are reported but never gate: results are bit-identical at any
//     thread count (DESIGN.md §8) and timestamps always differ.
//   * verdict flips: every element_assessed / kpi_verdict event keyed by
//     (kpi, element, bin); a changed verdict, or a verdict present on only
//     one side, is a flip.
//   * metric drift: deterministic counters compared exactly and value
//     histograms (fit R², rank-test statistic, ...) compared at p50 within
//     a relative tolerance. A metric that either run's metrics.json
//     "classes" object declares measured (timing, scheduling, cache, I/O;
//     see obs::MetricClass) never gates, and gauges are not compared.
//     Wall time is compared only when a wall tolerance is configured —
//     machine noise should not fail a reproducibility audit by default.
//
// litmus_cli `diff-runs A/ B/` maps a gating finding to a nonzero exit
// code, turning tools/check_bench_regression.py's idea into a first-class
// capability that covers correctness as well as speed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace litmus::obs {

/// One run's persisted artifacts, as diff-runs consumes them.
struct RunData {
  std::string dir;
  JsonValue manifest;  ///< run_manifest.json (required)
  JsonValue metrics;   ///< metrics.json (kind == kNull when absent)
  /// Verdict by stable key, extracted from the event stream.
  std::map<std::string, std::string> verdicts;
  std::uint64_t event_count = 0;
  bool has_run_start = false;
  bool has_run_end = false;
  double wall_seconds = -1.0;  ///< from run_end; -1 when absent
};

/// Loads dir/{run_manifest.json,events.jsonl,metrics.json}. The manifest
/// and event stream are required and every event line must parse; throws
/// std::runtime_error with a path-qualified message otherwise.
/// metrics.json is optional.
RunData load_run_dir(const std::string& dir);

struct DiffThresholds {
  std::size_t max_verdict_flips = 0;
  /// Relative tolerance on deterministic histogram quantiles.
  double metric_rel_tolerance = 0.25;
  /// Relative tolerance on run_end wall time; <= 0 disables the gate
  /// (wall time is then reported but never fails the diff).
  double wall_rel_tolerance = 0.0;
  /// Report manifest deltas without gating on them.
  bool ignore_manifest = false;
};

struct DiffLine {
  std::string text;
  bool gating = false;
};

struct RunDiffReport {
  std::vector<DiffLine> manifest;
  std::vector<DiffLine> verdicts;
  std::vector<DiffLine> metrics;
  std::size_t verdicts_compared = 0;
  std::size_t verdict_flips = 0;
  bool drift = false;  ///< any gating finding (incl. flips > max)
};

RunDiffReport diff_runs(const RunData& a, const RunData& b,
                        const DiffThresholds& thresholds = {});

std::string format_run_diff(const RunDiffReport& report, const RunData& a,
                            const RunData& b);

}  // namespace litmus::obs
