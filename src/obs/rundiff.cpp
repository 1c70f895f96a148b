#include "obs/rundiff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace litmus::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

JsonValue parse_file(const std::string& path) {
  std::string error;
  auto v = parse_json(read_file(path), &error);
  if (!v) throw std::runtime_error(path + ": " + error);
  return std::move(*v);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Integers render exactly (seeds, counts must never collide after
/// rounding); reals compactly.
std::string fmt_exact(double v) {
  if (v == std::floor(v) && std::fabs(v) < 9.2e18)
    return std::to_string(static_cast<long long>(v));
  return fmt(v);
}

std::string scalar_to_string(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kString: return v.string;
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber: return fmt_exact(v.number);
    default: return "<non-scalar>";
  }
}

std::string num_key(const JsonValue& event, const char* field) {
  const JsonValue* v = event.find(field);
  if (!v || v->kind != JsonValue::Kind::kNumber) return "?";
  return std::to_string(static_cast<long long>(v->number));
}

/// Stable identity of a verdict-bearing event across runs.
std::string verdict_key(const JsonValue& event, const std::string& type) {
  std::string key;
  if (type == "element_assessed") {
    key = "element " + event.member_string("kpi", "?") + " #" +
          num_key(event, "element") + " @" + num_key(event, "bin");
  } else {  // kpi_verdict
    key = "kpi " + event.member_string("kpi", "?") + " @" +
          num_key(event, "bin");
    // Monitor readings re-assess the same (kpi, bin) per element and
    // window; element id and data horizon keep each reading's verdict
    // separately comparable.
    if (event.find("element")) key += " #" + num_key(event, "element");
    if (event.find("up_to"))
      key += " up_to " + num_key(event, "up_to");
  }
  return key;
}

double rel_delta(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) / scale;
}

std::string manifest_str(const JsonValue& m, const char* key) {
  const JsonValue* v = m.find(key);
  return v ? scalar_to_string(*v) : "<absent>";
}

void compare_scalar(std::vector<DiffLine>& out, const JsonValue& a,
                    const JsonValue& b, const char* key, bool gating) {
  const std::string va = manifest_str(a, key);
  const std::string vb = manifest_str(b, key);
  if (va == vb) return;
  out.push_back({std::string(key) + ": " + va + " -> " + vb +
                     (gating ? "" : " (informational)"),
                 gating});
}

std::map<std::string, std::string> object_as_map(const JsonValue* obj) {
  std::map<std::string, std::string> out;
  if (!obj || !obj->is_object()) return out;
  for (const auto& [k, v] : obj->object) out[k] = scalar_to_string(v);
  return out;
}

void compare_maps(std::vector<DiffLine>& out,
                  const std::map<std::string, std::string>& a,
                  const std::map<std::string, std::string>& b,
                  const std::string& what, bool gating) {
  std::set<std::string> keys;
  for (const auto& [k, _] : a) keys.insert(k);
  for (const auto& [k, _] : b) keys.insert(k);
  for (const std::string& k : keys) {
    const auto ia = a.find(k);
    const auto ib = b.find(k);
    if (ia == a.end()) {
      out.push_back({what + " " + k + ": only in B (" + ib->second + ")",
                     gating});
    } else if (ib == b.end()) {
      out.push_back({what + " " + k + ": only in A (" + ia->second + ")",
                     gating});
    } else if (ia->second != ib->second) {
      out.push_back({what + " " + k + ": " + ia->second + " -> " +
                         ib->second,
                     gating});
    }
  }
}

/// inputs array -> path -> "hash64=... bytes=...[ UNREAD]"
std::map<std::string, std::string> inputs_as_map(const JsonValue& m) {
  std::map<std::string, std::string> out;
  const JsonValue* inputs = m.find("inputs");
  if (!inputs || !inputs->is_array()) return out;
  for (const JsonValue& fp : inputs->array) {
    // Keyed by basename: the same input copied to a different directory
    // is the same input; a changed fingerprint is the drift that matters.
    const std::string path = fp.member_string("path", "?");
    const std::string base =
        std::filesystem::path(path).filename().string();
    const JsonValue* bytes = fp.find("bytes");
    out[base] = "hash64=" + fp.member_string("hash64", "?") + " bytes=" +
                (bytes ? scalar_to_string(*bytes) : "?") +
                (fp.find("ok") && fp.find("ok")->boolean ? "" : " UNREAD");
  }
  return out;
}

/// Names a metrics.json "classes" object declares measured (timing,
/// scheduling, cache or I/O). A name it does not list is deterministic,
/// so a metrics.json written before classes existed gates everything.
std::set<std::string> measured_metrics(const JsonValue& metrics) {
  std::set<std::string> out;
  const JsonValue* classes = metrics.find("classes");
  if (!classes || !classes->is_object()) return out;
  for (const auto& [name, v] : classes->object)
    if (v.kind == JsonValue::Kind::kString &&
        v.string == metric_class_name(MetricClass::kMeasured))
      out.insert(name);
  return out;
}

/// Flattens one metrics.json section ("counters" -> value, "histograms"
/// -> chosen field) into name -> number.
std::map<std::string, double> metrics_section(const JsonValue& metrics,
                                              const char* section,
                                              const char* field) {
  std::map<std::string, double> out;
  const JsonValue* sec = metrics.find(section);
  if (!sec || !sec->is_object()) return out;
  for (const auto& [name, v] : sec->object) {
    if (field == nullptr) {
      if (v.kind == JsonValue::Kind::kNumber) out[name] = v.number;
    } else if (const JsonValue* f = v.find(field)) {
      if (f->kind == JsonValue::Kind::kNumber) out[name] = f->number;
    }
  }
  return out;
}

}  // namespace

namespace {

/// Scans one events.jsonl into `run`. Top-level streams own the
/// run_start..run_end bracket and the wall clock; shard sub-streams
/// (is_shard) only contribute their verdict events — their own bracket
/// describes the shard, not the run.
void scan_events(const std::string& events_path, RunData& run,
                 bool is_shard) {
  std::ifstream events(events_path);
  if (!events) throw std::runtime_error("cannot open " + events_path);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(events, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string error;
    auto event = parse_json(line, &error);
    if (!event)
      throw std::runtime_error(events_path + " line " +
                               std::to_string(line_no) + ": " + error);
    ++run.event_count;
    const std::string type = event->member_string("type", "");
    if (type == "run_start") {
      if (!is_shard) run.has_run_start = true;
    } else if (type == "run_end") {
      if (!is_shard) {
        run.has_run_end = true;
        run.wall_seconds = event->member_number("wall_s", -1.0);
      }
    } else if (type == "element_assessed" || type == "kpi_verdict") {
      run.verdicts[verdict_key(*event, type)] =
          event->member_string("verdict", "?");
    }
  }
}

}  // namespace

RunData load_run_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  RunData run;
  run.dir = dir;
  run.manifest = parse_file((fs::path(dir) / "run_manifest.json").string());

  scan_events((fs::path(dir) / "events.jsonl").string(), run,
              /*is_shard=*/false);

  // A sharded run persists its assessment events per shard
  // (shard-NN/events.jsonl). Stitching them back in makes the loaded
  // verdict set identical to an unsharded run's, so diff-runs compares
  // sharded and unsharded runs directly.
  std::vector<std::string> shard_events;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_directory()) continue;
    if (entry.path().filename().string().rfind("shard-", 0) != 0) continue;
    const fs::path p = entry.path() / "events.jsonl";
    if (fs::exists(p)) shard_events.push_back(p.string());
  }
  std::sort(shard_events.begin(), shard_events.end());
  for (const std::string& path : shard_events)
    scan_events(path, run, /*is_shard=*/true);

  const std::string metrics_path = (fs::path(dir) / "metrics.json").string();
  if (fs::exists(metrics_path)) run.metrics = parse_file(metrics_path);
  return run;
}

RunDiffReport diff_runs(const RunData& a, const RunData& b,
                        const DiffThresholds& thresholds) {
  RunDiffReport report;
  const bool gate_manifest = !thresholds.ignore_manifest;
  // Set while comparing the manifests, consumed by the metric comparison:
  // when the two runs sampled under different adaptive configurations, the
  // volume-of-computation metrics (litmus.iterations, litmus.fit.*,
  // rank_test.*) differ by construction — the verdict set is the signal
  // there, so those metrics turn informational. The adaptive config flags
  // themselves stay GATING (an adaptive-on run is not interchangeable
  // with an adaptive-off run), and litmus.adaptive.* diagnostics never
  // gate: they describe how the budget was spent, not what was concluded.
  bool adaptive_cfg_differs = false;

  // --- manifest ---------------------------------------------------------
  compare_scalar(report.manifest, a.manifest, b.manifest, "tool",
                 gate_manifest);
  compare_scalar(report.manifest, a.manifest, b.manifest, "version",
                 gate_manifest);
  compare_scalar(report.manifest, a.manifest, b.manifest, "build_flags",
                 gate_manifest);
  compare_scalar(report.manifest, a.manifest, b.manifest, "seed",
                 gate_manifest);
  compare_scalar(report.manifest, a.manifest, b.manifest, "rng_scheme",
                 gate_manifest);
  compare_scalar(report.manifest, a.manifest, b.manifest, "threads",
                 /*gating=*/false);
  // Dispatch tier is like the thread count: the default kernels are
  // bit-identical across tiers (DESIGN.md §13), so a scalar run and an
  // AVX-512 run of the same inputs are equivalent. fast_math gates — the
  // reassociated kernels may round differently.
  compare_scalar(report.manifest, a.manifest, b.manifest, "simd_detected",
                 /*gating=*/false);
  compare_scalar(report.manifest, a.manifest, b.manifest, "simd_dispatch",
                 /*gating=*/false);
  compare_scalar(report.manifest, a.manifest, b.manifest, "fast_math",
                 gate_manifest);
  {
    // Flags that cannot change results are reported but never gate:
    // output destinations differ between any two runs by construction
    // (each run writes its own directory), the panel-cache budget only
    // trades rebuild time for memory (DESIGN.md §10), and the snapshot
    // cache plus the ingest.* source notes only change how the input was
    // *loaded* — a snapshot-loaded store is bit-identical to the parsed
    // one (DESIGN.md §11).
    auto cfg_a = object_as_map(a.manifest.find("config"));
    auto cfg_b = object_as_map(b.manifest.find("config"));
    // Adaptive-sampling signature, defaults filled in for absent flags so
    // an old run (no adaptive flags recorded) compares as adaptive-off.
    const auto adaptive_sig = [](const std::map<std::string, std::string>& c) {
      const auto get = [&](const char* k, const char* dflt) {
        const auto it = c.find(k);
        return it == c.end() ? std::string(dflt) : it->second;
      };
      return get("--adaptive-sampling", "off") + "/" +
             get("--min-iterations", "8") + "/" +
             get("--stability-rounds", "2");
    };
    adaptive_cfg_differs = adaptive_sig(cfg_a) != adaptive_sig(cfg_b);
    // The live observability plane is read-only: whether a run served
    // scrapes (and on which ephemeral port) cannot change its results,
    // so --serve and the recorded serve.addr never gate.
    // --threads never gates: output is bit-identical at any thread count
    // (DESIGN.md §8). --shards / --store / --series-snap are
    // informational for the same reason: the mapped store serves
    // bit-identical windows and any shard count merges to the same
    // verdicts (DESIGN.md §15).
    // Window/iteration flags (--before-bins, --after-bins, --iterations)
    // stay gating — they change what is computed.
    const auto informational = [](const std::string& k) {
      for (const char* name :
           {"--events-jsonl", "--metrics-json", "--trace-json",
            "--panel-cache-mb", "--snapshot-cache", "--simd", "--serve",
            "--ready-stale-ms", "--profile-json", "--profile-sample",
            "--threads", "--shards", "--store", "--series-snap", "--series"})
        if (k == name) return true;
      return k.starts_with("ingest.") || k.starts_with("serve.") ||
             k.starts_with("shard.") || k.starts_with("store.");
    };
    std::map<std::string, std::string> sink_a, sink_b;
    for (auto it = cfg_a.begin(); it != cfg_a.end();) {
      if (informational(it->first)) {
        sink_a[it->first] = it->second;
        it = cfg_a.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = cfg_b.begin(); it != cfg_b.end();) {
      if (informational(it->first)) {
        sink_b[it->first] = it->second;
        it = cfg_b.erase(it);
      } else {
        ++it;
      }
    }
    compare_maps(report.manifest, cfg_a, cfg_b, "config", gate_manifest);
    compare_maps(report.manifest, sink_a, sink_b, "config",
                 /*gating=*/false);
  }
  compare_maps(report.manifest, inputs_as_map(a.manifest),
               inputs_as_map(b.manifest), "input", gate_manifest);

  // --- verdicts ---------------------------------------------------------
  const std::pair<const char*, const RunData*> sides[] = {{"A", &a},
                                                          {"B", &b}};
  for (const auto& [side, run] : sides) {
    if (!run->has_run_start || !run->has_run_end)
      report.verdicts.push_back(
          {std::string("run ") + side +
               ": event stream lacks the run_start..run_end bracket",
           false});
  }
  {
    std::set<std::string> keys;
    for (const auto& [k, _] : a.verdicts) keys.insert(k);
    for (const auto& [k, _] : b.verdicts) keys.insert(k);
    report.verdicts_compared = keys.size();
    for (const std::string& k : keys) {
      const auto ia = a.verdicts.find(k);
      const auto ib = b.verdicts.find(k);
      if (ia == a.verdicts.end()) {
        ++report.verdict_flips;
        report.verdicts.push_back(
            {k + ": only in B (" + ib->second + ")", true});
      } else if (ib == b.verdicts.end()) {
        ++report.verdict_flips;
        report.verdicts.push_back(
            {k + ": only in A (" + ia->second + ")", true});
      } else if (ia->second != ib->second) {
        ++report.verdict_flips;
        report.verdicts.push_back(
            {k + ": " + ia->second + " -> " + ib->second, true});
      }
    }
  }

  // --- metrics ----------------------------------------------------------
  // litmus.adaptive.* diagnostics describe how the sampling budget was
  // spent, not what was concluded — they never gate. The volume-of-
  // computation metrics (litmus.iterations, litmus.fit.*, and the
  // rank_test.* call counters/distributions, which also count the
  // stability checkpoints' diagnostic tests) gate only while the two runs
  // sampled under the same adaptive configuration; across configs they
  // differ by construction and the verdict set carries the signal.
  const auto metric_informational = [&](const std::string& n) {
    if (n.starts_with("litmus.adaptive.")) return true;
    return adaptive_cfg_differs &&
           (n == "litmus.iterations" || n.starts_with("litmus.fit.") ||
            n.starts_with("rank_test."));
  };
  if (a.metrics.is_object() && b.metrics.is_object()) {
    // A measured metric differs between same-seed runs by nature; it
    // never gates, whichever run declared it so.
    std::set<std::string> measured = measured_metrics(a.metrics);
    measured.merge(measured_metrics(b.metrics));
    const auto ca = metrics_section(a.metrics, "counters", nullptr);
    const auto cb = metrics_section(b.metrics, "counters", nullptr);
    std::set<std::string> names;
    for (const auto& [n, _] : ca) names.insert(n);
    for (const auto& [n, _] : cb) names.insert(n);
    for (const std::string& n : names) {
      if (measured.contains(n)) continue;
      const double va = ca.contains(n) ? ca.at(n) : -1.0;
      const double vb = cb.contains(n) ? cb.at(n) : -1.0;
      if (va != vb) {
        const bool gate = !metric_informational(n);
        report.metrics.push_back({"counter " + n + ": " + fmt_exact(va) +
                                      " -> " + fmt_exact(vb) +
                                      (gate ? "" : " (informational)"),
                                  gate});
      }
    }

    const auto ha = metrics_section(a.metrics, "histograms", "p50");
    const auto hb = metrics_section(b.metrics, "histograms", "p50");
    names.clear();
    for (const auto& [n, _] : ha) names.insert(n);
    for (const auto& [n, _] : hb) names.insert(n);
    for (const std::string& n : names) {
      if (measured.contains(n)) continue;
      const bool gate = !metric_informational(n);
      if (!ha.contains(n) || !hb.contains(n)) {
        report.metrics.push_back(
            {"histogram " + n + ": only in " +
                 (ha.contains(n) ? "A" : "B") +
                 (gate ? "" : " (informational)"),
             gate});
        continue;
      }
      const double d = rel_delta(ha.at(n), hb.at(n));
      if (d > thresholds.metric_rel_tolerance)
        report.metrics.push_back(
            {"histogram " + n + " p50: " + fmt(ha.at(n)) + " -> " +
                 fmt(hb.at(n)) + " (" + fmt(d * 100.0) + "% > " +
                 fmt(thresholds.metric_rel_tolerance * 100.0) + "%" +
                 (gate ? "" : ", informational") + ")",
             gate});
    }
  }
  if (a.wall_seconds >= 0.0 && b.wall_seconds >= 0.0) {
    const double d = rel_delta(a.wall_seconds, b.wall_seconds);
    const bool gate = thresholds.wall_rel_tolerance > 0.0 &&
                      d > thresholds.wall_rel_tolerance;
    if (gate || d > 0.0)
      report.metrics.push_back(
          {"wall_s: " + fmt(a.wall_seconds) + " -> " +
               fmt(b.wall_seconds) + " (" + fmt(d * 100.0) + "%" +
               (gate ? "" : ", informational") + ")",
           gate});
  }

  const auto any_gating = [](const std::vector<DiffLine>& lines) {
    for (const DiffLine& l : lines)
      if (l.gating) return true;
    return false;
  };
  report.drift = any_gating(report.manifest) ||
                 any_gating(report.metrics) ||
                 report.verdict_flips > thresholds.max_verdict_flips;
  return report;
}

std::string format_run_diff(const RunDiffReport& report, const RunData& a,
                            const RunData& b) {
  std::ostringstream os;
  os << "=== diff-runs: " << a.dir << " vs " << b.dir << " ===\n";
  const auto section = [&](const char* name,
                           const std::vector<DiffLine>& lines) {
    os << name << ":";
    if (lines.empty()) {
      os << " identical\n";
      return;
    }
    os << '\n';
    for (const DiffLine& l : lines)
      os << "  " << (l.gating ? "[drift] " : "") << l.text << '\n';
  };
  section("manifest", report.manifest);
  section("verdicts", report.verdicts);
  os << "  (" << report.verdicts_compared << " verdict(s) compared, "
     << report.verdict_flips << " flip(s))\n";
  section("metrics", report.metrics);
  os << "result: "
     << (report.drift ? "DRIFT — runs are not equivalent"
                      : "no drift — runs are equivalent")
     << '\n';
  return os.str();
}

}  // namespace litmus::obs
