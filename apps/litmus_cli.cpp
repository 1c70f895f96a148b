// litmus_cli — run a Litmus assessment from CSV files.
//
//   litmus_cli export-demo <dir>
//       writes demo topology.csv / series.csv (a simulated region with a
//       real +1.5-sigma change at the first RNC at bin 0) so the tool can
//       be tried end-to-end without any carrier data.
//
//   litmus_cli assess --topology topo.csv --series series.csv
//                     --study 2[,5,...] --kpi voice_retainability
//                     --change-bin 0
//                     [--controls 3,4,...]          explicit control group
//                     [--select region|msc|zip]     or predicate selection
//                     [--before-days 14] [--after-days 14] [--seed N]
//                     [--explain]                   per-verdict audit trail
//                     [--snapshot-cache DIR]        binary ingest cache
//                     [--metrics-json FILE] [--trace-json FILE]
//                     [--events-jsonl FILE]
//       prints the per-element verdicts, the vote, and the baselines'
//       reads for comparison. The observability flags enable the obs layer
//       for the run and dump the metrics registry / span trace as JSON.
//       --events-jsonl additionally streams structured run events to FILE
//       and persists the run's provenance (run_manifest.json, metrics.json)
//       into FILE's directory so the run can be audited and diffed later.
//
//   litmus_cli diff-runs A/ B/
//       compares two persisted runs (manifest, verdict set, metrics) and
//       exits 0 when equivalent, 3 on drift.
//
//   litmus_cli profile <run-dir|trace.json>
//       summarizes a profile trace (--profile-json output, a --trace-json
//       span dump, or a run directory containing either) into a per-stage
//       table: count, total, exact p50/p99, % of wall, slowest spans.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cellnet/builder.h"
#include "io/changes.h"
#include "io/csv.h"
#include "io/ingest.h"
#include "io/mapped_store.h"
#include "io/store.h"
#include "litmus/batch.h"
#include "litmus/did.h"
#include "litmus/monitor.h"
#include "litmus/report.h"
#include "litmus/study_only.h"
#include "obs/chrometrace.h"
#include "obs/events.h"
#include "obs/http.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/rundiff.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "parallel/pool.h"
#include "simkit/generator.h"
#include "tsmath/simd/dispatch.h"
#include "simkit/network_events.h"
#include "simkit/scale.h"
#include "simkit/seasonality.h"

using namespace litmus;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  litmus_cli export-demo <dir>\n"
               "  litmus_cli assess --topology FILE --series FILE --study "
               "IDS --kpi NAME --change-bin N\n"
               "              [--controls IDS | --select region|msc|zip]\n"
               "              [--before-days N] [--after-days N] [--seed N] "
               "[--explain]\n"
               "              [--adaptive-sampling on|off] "
               "[--min-iterations N] [--stability-rounds N]\n"
               "              [--threads N] [--snapshot-cache DIR]\n"
               "              [--simd scalar|sse2|avx2|avx512|neon] "
               "[--fast-math-kernels]\n"
               "              [--metrics-json FILE] [--trace-json FILE] "
               "[--events-jsonl FILE]\n"
               "              [--profile-json FILE] [--profile-sample N]\n"
               "  litmus_cli batch --topology FILE --changes FILE\n"
               "              (--series FILE [--store heap|mmap] | "
               "--series-snap SNAP)\n"
               "              [--select region|msc|zip] [--shards N]\n"
               "              [--before-bins N] [--after-bins N] "
               "[--iterations N]\n"
               "              [--adaptive-sampling on|off] "
               "[--min-iterations N] [--stability-rounds N]\n"
               "              [--threads N] [--snapshot-cache DIR] "
               "[--seed N]\n"
               "              [--simd TIER] [--fast-math-kernels]\n"
               "              [--metrics-json FILE] [--trace-json FILE] "
               "[--events-jsonl FILE]\n"
               "              [--profile-json FILE] [--profile-sample N]\n"
               "  litmus_cli gen-corpus <dir> [--elements N] "
               "[--cluster-size N]\n"
               "              [--change-stride N] [--improve-stride N] "
               "[--before-bins N]\n"
               "              [--after-bins N] [--shift-sigma F] [--seed N]\n"
               "  litmus_cli monitor --topology FILE --series FILE --study "
               "IDS --kpi NAME --change-bin N\n"
               "              [--controls IDS | --select region|msc|zip]\n"
               "              [--before-days N] [--window-days N] "
               "[--step-hours N] [--confirm N]\n"
               "              [--tick-ms N] [--linger-ms N] "
               "[plus the shared assess/batch flags]\n"
               "  litmus_cli diff-runs A_DIR B_DIR [--max-flips N]\n"
               "              [--metric-tolerance F] [--wall-tolerance F] "
               "[--ignore-manifest]\n"
               "  litmus_cli profile RUN_DIR|TRACE.json [--top N]\n"
               "  litmus_cli --version\n"
               "\n"
               "--threads N (or LITMUS_THREADS): worker threads for the\n"
               "sampling/batch fan-out; results are identical at any count.\n"
               "--snapshot-cache DIR (or LITMUS_SNAPSHOT_CACHE): binary\n"
               "series-ingest cache keyed by the CSV's fingerprint; repeated\n"
               "runs over an unchanged export skip parsing entirely and are\n"
               "bit-identical to a parsed run.\n"
               "batch --store mmap serves the series from the snapshot via\n"
               "mmap (read-only shared pages, zero-copy); --series-snap SNAP\n"
               "maps a .litmus-snap directly with no CSV at all. batch\n"
               "--shards N (or LITMUS_SHARDS) partitions records by element\n"
               "into shards run one after another; with --events-jsonl each\n"
               "shard persists shard-NN/{run_manifest.json,events.jsonl}.\n"
               "All three stores and any shard count are bit-identical.\n"
               "gen-corpus streams a zip-clustered synthetic corpus\n"
               "(topology/changes CSV + series snapshot) at any element\n"
               "count with bounded memory.\n"
               "--adaptive-sampling on|off: sequential early stopping of\n"
               "the robustness iterations — sample in geometric rounds\n"
               "(first checkpoint --min-iterations, default 8) and stop\n"
               "after --stability-rounds (default 2) consecutive checkpoints\n"
               "where the verdict is insensitive to further rounds under a\n"
               "jackknife perturbation of the median forecast. Deterministic\n"
               "at any thread/shard count; borderline elements spend the\n"
               "full --iterations budget. Default off (pre-adaptive bits).\n"
               "--simd TIER (or LITMUS_SIMD): force the SIMD kernel tier\n"
               "instead of the detected best; results are bit-identical at\n"
               "any tier. --fast-math-kernels enables reassociated (FMA)\n"
               "kernels — faster, but results may differ in the last bits;\n"
               "recorded in the manifest and GATING for diff-runs.\n"
               "--events-jsonl FILE: structured JSONL event stream; also\n"
               "writes run_manifest.json + metrics.json into FILE's\n"
               "directory, the layout diff-runs consumes.\n"
               "--profile-json FILE: cross-thread span timeline as Chrome\n"
               "trace_event JSON (open in chrome://tracing or Perfetto);\n"
               "--profile-sample N records 1 span in N (default: all).\n"
               "`profile` summarizes such a file — or a run directory\n"
               "holding profile.json/trace.json — as a p50/p99 stage table.\n"
               "--serve [ADDR:]PORT (or LITMUS_SERVE): embedded read-only\n"
               "HTTP plane while the run is in flight — Prometheus /metrics,\n"
               "/healthz, /readyz (503 when heartbeats go stale; tune with\n"
               "--ready-stale-ms, default 30000), JSON /status, and\n"
               "/events?since=SEQ. Port 0 picks an ephemeral port; the bound\n"
               "address is printed and recorded in the run manifest. All\n"
               "serve.* metrics are informational to diff-runs.\n"
               "`monitor` replays stored bins through the sliding-window\n"
               "state machines (DESIGN.md §12); --tick-ms paces the replay,\n"
               "--linger-ms keeps the HTTP plane up after the last step.\n"
               "diff-runs exit codes: 0 no drift, 3 drift, 1 error.\n");
  return 2;
}

// Observability flags shared by assess and batch: turn collection on
// before the pipeline runs, dump the requested JSON files after.
//
// With --events-jsonl the session becomes a *persisted run*: a RunManifest
// (version, build flags, threads, seed, resolved config, input
// fingerprints) is written as run_manifest.json into the event file's
// directory, a structured JSONL event stream brackets the pipeline with
// run_start..run_end, and metrics.json lands in the same directory — the
// exact layout `litmus_cli diff-runs` consumes. The manifest is also
// embedded in every JSON artifact the session writes.
//
// Output files are never silently overwritten: an existing file rotates to
// "<path>.old" (then ".old.1", ".old.2", ...) with a warning, and missing
// parent directories are created (obs::open_output_file).
class ObsSession {
 public:
  ObsSession(const std::string& command,
             const std::map<std::string, std::string>& args) {
    if (const auto it = args.find("metrics-json"); it != args.end())
      metrics_path_ = it->second;
    if (const auto it = args.find("trace-json"); it != args.end())
      trace_path_ = it->second;
    if (const auto it = args.find("events-jsonl"); it != args.end())
      events_path_ = it->second;
    if (const auto it = args.find("profile-json"); it != args.end())
      profile_path_ = it->second;
    if (const auto it = args.find("serve"); it != args.end())
      serve_spec_ = it->second;
    else if (const char* env = std::getenv("LITMUS_SERVE"))
      serve_spec_ = env;
    if (const auto it = args.find("ready-stale-ms"); it != args.end()) {
      const auto v = io::parse_int(it->second);
      if (!v || *v <= 0)
        throw std::runtime_error("bad --ready-stale-ms: " + it->second);
      ready_stale_ms_ = static_cast<std::uint64_t>(*v);
    }

    manifest_.tool = "litmus_cli " + command;
    manifest_.build_flags = obs::build_flags_string();
    manifest_.threads = par::threads();
    manifest_.simd_detected = ts::simd::tier_name(ts::simd::detected_tier());
    manifest_.simd_dispatch = ts::simd::tier_name(ts::simd::active_tier());
    manifest_.fast_math = ts::simd::fast_math();
    manifest_.started_at_utc = obs::utc_timestamp_now();
    for (const auto& [key, value] : args)
      manifest_.add_config("--" + key, value);

    if (!metrics_path_.empty() || !events_path_.empty() ||
        !serve_spec_.empty())
      obs::set_enabled(true);
    if (!trace_path_.empty() || !profile_path_.empty()) {
      obs::set_thread_name("main");
      obs::TraceConfig config;
      if (const auto it = args.find("profile-sample"); it != args.end()) {
        const auto v = io::parse_int(it->second);
        if (!v || *v <= 0)
          throw std::runtime_error("bad --profile-sample: " + it->second);
        if (*v > 1) {
          config.mode = obs::TraceMode::kSampled;
          config.sample_every = static_cast<std::uint32_t>(*v);
        }
      }
      obs::Tracer::global().start(config);
    }
  }

  ~ObsSession() { obs::set_events(nullptr); }

  /// Fingerprints an input file into the manifest (call for every CSV the
  /// command loads, before start()).
  void add_input(const std::string& path) { manifest_.add_input(path); }
  /// Records an input whose fingerprint the ingest layer already computed.
  void add_input(const std::string& path, std::uint64_t bytes,
                 std::uint64_t hash) {
    manifest_.add_input(path, bytes, hash);
  }
  /// Adds a resolved-config note (e.g. parsed-vs-snapshot per input);
  /// "ingest."-prefixed keys are informational in diff-runs.
  void note(std::string key, std::string value) {
    manifest_.add_config(std::move(key), std::move(value));
  }
  void set_seed(std::uint64_t seed) { manifest_.seed = seed; }

  /// Registers extra /status members (pool stats are always included;
  /// this adds command-specific rows, e.g. monitor state machines).
  /// Call before start().
  void set_status_fn(obs::HttpServer::StatusFn fn) {
    status_fn_ = std::move(fn);
  }
  bool serving() const noexcept { return server_.running(); }

  /// Run directory (the --events-jsonl file's parent); empty when the run
  /// is not persisted. Valid after start().
  const std::string& run_dir() const noexcept { return run_dir_; }

  /// Writes a copy of the run manifest into a shard directory with the
  /// shard's identity appended, so each shard-NN/ is itself a loadable
  /// run directory and diff-runs can stitch the pieces back together.
  void write_shard_manifest(const std::string& dir, std::size_t shard,
                            std::size_t records) const {
    obs::RunManifest m = manifest_;
    m.add_config("shard.index", std::to_string(shard));
    m.add_config("shard.records", std::to_string(records));
    m.write_file(dir + "/run_manifest.json");
  }

  /// Freezes the manifest, persists it, and opens the event stream; call
  /// after inputs are registered and before the pipeline runs. With
  /// --serve the HTTP plane comes up first so the bound address lands in
  /// the manifest (and thus in run_manifest.json and every artifact).
  void start() {
    if (!serve_spec_.empty()) {
      const auto addr = obs::parse_serve_addr(serve_spec_);
      if (!addr)
        throw std::runtime_error(
            "bad --serve (want PORT or ADDR:PORT): " + serve_spec_);
      obs::ServeOptions opts;
      opts.host = addr->first;
      opts.port = addr->second;
      opts.ready_stale_after_ms = ready_stale_ms_;
      server_.set_manifest(&manifest_);
      server_.set_status_fn([fn = status_fn_](obs::JsonWriter& w) {
        const par::PoolStats pool = par::pool_stats();
        w.key("pool").begin_object();
        w.member("workers", static_cast<std::uint64_t>(pool.workers))
            .member("queue_depth",
                    static_cast<std::uint64_t>(pool.queue_depth))
            .member("tasks_submitted", pool.tasks_submitted)
            .member("tasks_completed", pool.tasks_completed);
        w.end_object();
        if (fn) fn(w);
      });
      const std::string bound = server_.start(opts);
      manifest_.add_config("serve.addr", bound);
      std::printf("serving on http://%s  (/metrics /healthz /readyz "
                  "/status /events)\n",
                  bound.c_str());
      std::fflush(stdout);  // CI polls stdout for the bound port
    }
    if (!events_path_.empty()) {
      run_dir_ = std::filesystem::path(events_path_).parent_path().string();
      if (run_dir_.empty()) run_dir_ = ".";
      manifest_.write_file(run_dir_ + "/run_manifest.json");
      events_ = obs::EventLog::open(events_path_);
    } else if (server_.running()) {
      // No JSONL file requested, but /events needs something to page:
      // keep a ring-only log in memory.
      events_ = std::make_unique<obs::EventLog>();
    }
    if (events_) {
      obs::set_events(events_.get());
      events_->emit(obs::EventType::kRunStart, [&](obs::JsonWriter& w) {
        w.member("tool", manifest_.tool)
            .member("version", manifest_.version)
            .member("seed", manifest_.seed)
            .member("threads",
                    static_cast<std::uint64_t>(manifest_.threads));
      });
    }
    run_t0_ns_ = obs::now_ns();
  }

  /// Writes the requested dumps; throws on unwritable paths.
  void finish() {
    // The plane goes down with the run: stop before the final dumps so a
    // scrape can never observe a half-written end state.
    server_.stop();
    if (events_) {
      const double wall_s =
          static_cast<double>(obs::now_ns() - run_t0_ns_) / 1e9;
      events_->emit(obs::EventType::kRunEnd, [&](obs::JsonWriter& w) {
        w.member("wall_s", wall_s).member("status", "ok");
      });
      obs::set_events(nullptr);
      const std::uint64_t n = events_->events_written();
      events_.reset();  // flush + close
      if (!events_path_.empty())
        std::printf("wrote %llu event(s) to %s\n",
                    static_cast<unsigned long long>(n),
                    events_path_.c_str());
    }
    if (!trace_path_.empty() || !profile_path_.empty()) {
      obs::Tracer::global().stop();
      const auto spans = obs::Tracer::global().spans();
      const std::uint64_t dropped = obs::Tracer::global().dropped();
      if (dropped > 0)
        std::fprintf(stderr,
                     "warning: %llu span(s) dropped (ring wrap); the trace "
                     "keeps the most recent window\n",
                     static_cast<unsigned long long>(dropped));
      if (!trace_path_.empty()) {
        std::ofstream out = obs::open_output_file(trace_path_);
        obs::write_trace_json(out, spans, obs::Tracer::global().epoch_ns(),
                              &manifest_);
        if (!out)
          throw std::runtime_error("cannot write trace json: " +
                                   trace_path_);
        std::printf("wrote %zu span(s) to %s\n", spans.size(),
                    trace_path_.c_str());
      }
      if (!profile_path_.empty()) {
        std::ofstream out = obs::open_output_file(profile_path_);
        const auto names = obs::thread_names();
        obs::write_chrome_trace(out, spans,
                                obs::Tracer::global().epoch_ns(), names,
                                dropped, &manifest_);
        if (!out)
          throw std::runtime_error("cannot write profile json: " +
                                   profile_path_);
        std::printf("wrote %zu span(s), %zu named thread(s) to %s\n",
                    spans.size(), names.size(), profile_path_.c_str());
      }
    }
    if (!metrics_path_.empty() || !run_dir_.empty()) {
      obs::set_enabled(false);
      const auto snapshot = obs::Registry::global().snapshot();
      std::vector<std::string> paths;
      if (!metrics_path_.empty()) paths.push_back(metrics_path_);
      if (!run_dir_.empty()) {
        const std::string run_metrics = run_dir_ + "/metrics.json";
        if (metrics_path_.empty() ||
            std::filesystem::path(metrics_path_) !=
                std::filesystem::path(run_metrics))
          paths.push_back(run_metrics);
      }
      for (const std::string& path : paths) {
        std::ofstream out = obs::open_output_file(path);
        obs::write_metrics_json(out, snapshot, &manifest_);
        if (!out)
          throw std::runtime_error("cannot write metrics json: " + path);
        std::printf("wrote metrics to %s\n", path.c_str());
      }
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  std::string events_path_;
  std::string profile_path_;
  std::string run_dir_;
  std::string serve_spec_;
  std::uint64_t ready_stale_ms_ = 30000;
  obs::HttpServer::StatusFn status_fn_;
  obs::RunManifest manifest_;
  std::unique_ptr<obs::EventLog> events_;
  std::uint64_t run_t0_ns_ = 0;
  // Declared last: destroyed first, so the serving thread joins before
  // the manifest and event log it reads go away.
  obs::HttpServer server_;
};

// --threads N overrides the worker count (else LITMUS_THREADS, else
// hardware concurrency); verdicts are bit-identical at any setting.
void apply_threads_flag(const std::map<std::string, std::string>& args) {
  const auto it = args.find("threads");
  if (it == args.end()) return;
  const auto v = io::parse_int(it->second);
  if (!v || *v <= 0) throw std::runtime_error("bad --threads: " + it->second);
  par::set_threads(static_cast<std::size_t>(*v));
}

// --simd TIER forces the kernel dispatch tier (else LITMUS_SIMD, else the
// best the host supports); default-mode results are bit-identical at any
// tier (DESIGN.md §13). --fast-math-kernels switches the dot/Gram kernels
// to their reassociated FMA variants: faster, but the last bits may move,
// so the manifest records it and diff-runs gates on it.
void apply_simd_flags(const std::map<std::string, std::string>& args) {
  if (const auto it = args.find("simd"); it != args.end()) {
    const auto tier = ts::simd::parse_tier(it->second);
    if (!tier)
      throw std::runtime_error(
          "bad --simd: " + it->second +
          " (want scalar|sse2|avx2|avx512|neon)");
    if (!ts::simd::set_active_tier(*tier))
      throw std::runtime_error("--simd " + it->second +
                               " is not supported on this host/build (" +
                               ts::simd::describe() + ")");
  }
  if (args.contains("fast-math-kernels")) ts::simd::set_fast_math(true);
}

// --adaptive-sampling on|off toggles sequential early stopping of the
// robustness iterations (DESIGN.md §16); --min-iterations N sets the first
// stability checkpoint and --stability-rounds N the consecutive stable
// checkpoints required to stop. Off (default) preserves pre-adaptive
// output bit-for-bit; on changes iterations-used (and therefore forecast
// bits) but is CI-validated to flip no Table-2 verdict. The manifest
// records all three, and diff-runs gates when they differ across runs.
void apply_adaptive_flags(const std::map<std::string, std::string>& args,
                          core::SpatialRegressionParams& params) {
  if (const auto it = args.find("adaptive-sampling"); it != args.end()) {
    if (it->second == "on")
      params.adaptive_sampling = true;
    else if (it->second == "off")
      params.adaptive_sampling = false;
    else
      throw std::runtime_error("bad --adaptive-sampling: " + it->second +
                               " (want on|off)");
  }
  const auto count_flag = [&](const char* key, std::size_t& out) {
    const auto it = args.find(key);
    if (it == args.end()) return;
    const auto v = io::parse_int(it->second);
    if (!v || *v <= 0)
      throw std::runtime_error(std::string("bad --") + key + ": " +
                               it->second);
    out = static_cast<std::size_t>(*v);
  };
  count_flag("min-iterations", params.min_iterations);
  count_flag("stability-rounds", params.stability_rounds);
}

// --snapshot-cache DIR (else LITMUS_SNAPSHOT_CACHE) enables the binary
// series-ingest cache (DESIGN.md §11); loaded results are bit-identical
// to parsing, so the setting never gates diff-runs.
std::string resolve_snapshot_dir(
    const std::map<std::string, std::string>& args) {
  if (const auto it = args.find("snapshot-cache"); it != args.end())
    return it->second;
  if (const char* env = std::getenv("LITMUS_SNAPSHOT_CACHE")) return env;
  return "";
}

// Loads the series CSV through the high-throughput ingest layer and
// registers provenance: the source CSV's fingerprint (identical whether
// the bytes were parsed or snapshot-loaded) plus a parsed-vs-snapshot
// note per input.
io::IngestReport load_series_input(const std::string& path,
                                   io::SeriesStore& store,
                                   const std::map<std::string, std::string>&
                                       args,
                                   ObsSession& session) {
  io::IngestOptions opts;
  opts.snapshot_dir = resolve_snapshot_dir(args);
  const io::IngestReport rep = io::ingest_series_file(path, store, opts);
  session.add_input(path, rep.bytes, rep.fingerprint);
  session.note("ingest.series",
               rep.from_snapshot ? "snapshot" : "csv");
  return rep;
}

// --select mode -> control predicate, shared by assess/monitor/batch. The
// batch driver additionally gets a conservative equivalence-group key
// (BatchConfig::group_key) for each mode, so candidate enumeration scales
// with the group size instead of the network size: every element the
// predicate could accept shares the study element's key (the predicate
// still runs per candidate, so the key only has to be conservative).
struct SelectionMode {
  core::ControlPredicate predicate;
  std::function<std::uint64_t(const net::Topology&, net::ElementId)>
      group_key;
};

SelectionMode make_selection_mode(const std::string& mode) {
  SelectionMode out;
  if (mode == "region") {
    out.predicate =
        core::all_of({core::same_region(), core::same_technology()});
    out.group_key = [](const net::Topology& t, net::ElementId id) {
      const auto& e = t.get(id);
      return static_cast<std::uint64_t>(e.region) * 8 +
             static_cast<std::uint64_t>(e.technology);
    };
  } else if (mode == "msc") {
    out.predicate =
        core::all_of({core::same_upstream(net::ElementKind::kMsc),
                      core::same_technology()});
    out.group_key = [](const net::Topology& t, net::ElementId id) {
      const auto up = t.ancestor_of_kind(id, net::ElementKind::kMsc);
      const std::uint64_t msc = up ? up->value + 1ull : 0ull;
      return msc * 8 + static_cast<std::uint64_t>(t.get(id).technology);
    };
  } else if (mode == "zip") {
    out.predicate = core::all_of({core::same_zip(), core::same_technology()});
    out.group_key = [](const net::Topology& t, net::ElementId id) {
      const auto& e = t.get(id);
      return static_cast<std::uint64_t>(e.zip.value) * 8 +
             static_cast<std::uint64_t>(e.technology);
    };
  } else {
    throw std::runtime_error("unknown --select mode: " + mode);
  }
  return out;
}

std::vector<net::ElementId> parse_ids(const std::string& csv) {
  std::vector<net::ElementId> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const auto v = io::parse_int(tok);
    if (!v || *v <= 0) throw std::runtime_error("bad element id: " + tok);
    out.push_back(net::ElementId{static_cast<std::uint32_t>(*v)});
  }
  return out;
}

int export_demo(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  net::Topology topo =
      net::build_small_region(net::Region::kNortheast, 20130209, 5, 6);
  const auto rncs = topo.of_kind(net::ElementKind::kRnc);

  sim::UpstreamEvent change;
  change.source = rncs[0];
  change.start_bin = 0;
  change.sigma_shift = +1.5;
  sim::KpiGenerator gen(topo, {.seed = 20130209});
  gen.add_factor(std::make_shared<sim::DiurnalLoadFactor>());
  gen.add_factor(std::make_shared<sim::FoliageFactor>());
  gen.add_factor(std::make_shared<sim::NetworkEventFactor>(
      topo, std::vector<sim::UpstreamEvent>{change}));

  {
    std::ofstream out(dir + "/topology.csv");
    if (!out) {
      std::fprintf(stderr, "cannot write %s/topology.csv\n", dir.c_str());
      return 1;
    }
    io::save_topology_csv(out, topo);
  }
  {
    std::ofstream out(dir + "/series.csv");
    for (const auto rnc : rncs) {
      for (const auto kpi_id : {kpi::KpiId::kVoiceRetainability,
                                kpi::KpiId::kDataRetainability}) {
        const ts::TimeSeries s =
            gen.kpi_series(rnc, kpi_id, -14 * 24, 28 * 24);
        io::save_series_csv(out, rnc, kpi_id, s);
      }
    }
  }
  {
    std::ofstream out(dir + "/changes.csv");
    chg::ChangeLog log;
    chg::ChangeRecord record;
    record.element = rncs[0];
    record.type = chg::ChangeType::kFeatureActivation;
    record.bin = 0;
    record.expectation = chg::Expectation::kImprovement;
    record.target_kpi = kpi::KpiId::kVoiceRetainability;
    record.parameter = "son=on";
    record.description = "demo feature activation";
    log.add(record);
    io::save_changes_csv(out, log);
  }
  std::printf("wrote %s/{topology,series,changes}.csv\n", dir.c_str());
  std::printf("try: litmus_cli assess --topology %s/topology.csv --series "
              "%s/series.csv --study %u --kpi voice_retainability "
              "--change-bin 0 --select msc\n",
              dir.c_str(), dir.c_str(), rncs[0].value);
  return 0;
}

int assess(const std::map<std::string, std::string>& args) {
  const auto need = [&](const char* key) -> const std::string& {
    const auto it = args.find(key);
    if (it == args.end())
      throw std::runtime_error(std::string("missing --") + key);
    return it->second;
  };

  apply_threads_flag(args);  // validate before the expensive loads
  apply_simd_flags(args);

  // The session opens before the loads so the ingest layer's counters and
  // throughput gauges land in --metrics-json.
  ObsSession obs_session("assess", args);

  std::ifstream topo_in(need("topology"));
  if (!topo_in) throw std::runtime_error("cannot open topology file");
  const net::Topology topo = io::load_topology_csv(topo_in);
  obs_session.add_input(need("topology"));

  io::SeriesStore store;
  const io::IngestReport ing =
      load_series_input(need("series"), store, args, obs_session);
  std::printf("loaded %zu elements, %zu series (%llu rows, %s)\n",
              topo.size(), store.size(),
              static_cast<unsigned long long>(ing.rows),
              ing.from_snapshot ? "snapshot" : "csv");

  const std::vector<net::ElementId> study = parse_ids(need("study"));
  const auto kpi_id = kpi::parse_kpi(need("kpi"));
  if (!kpi_id) throw std::runtime_error("unknown KPI name");
  const auto change_bin = io::parse_int(need("change-bin"));
  if (!change_bin) throw std::runtime_error("bad --change-bin");

  core::AssessmentConfig cfg;
  if (const auto it = args.find("before-days"); it != args.end())
    cfg.before_bins = static_cast<std::size_t>(std::stoi(it->second)) * 24;
  if (const auto it = args.find("after-days"); it != args.end())
    cfg.after_bins = static_cast<std::size_t>(std::stoi(it->second)) * 24;
  if (const auto it = args.find("seed"); it != args.end()) {
    const auto v = io::parse_int(it->second);
    if (!v || *v < 0) throw std::runtime_error("bad --seed: " + it->second);
    cfg.regression.seed = static_cast<std::uint64_t>(*v);
  }
  apply_adaptive_flags(args, cfg.regression);
  core::Assessor assessor(topo, store.provider(), cfg);

  obs_session.set_seed(cfg.regression.seed);
  obs_session.start();
  core::ChangeAssessment a;
  if (const auto it = args.find("controls"); it != args.end()) {
    a = assessor.assess(study, parse_ids(it->second), *kpi_id, *change_bin);
  } else {
    std::string mode = "region";
    if (const auto sel = args.find("select"); sel != args.end())
      mode = sel->second;
    a = assessor.assess_with_selection(
        study, make_selection_mode(mode).predicate, *kpi_id, *change_bin);
  }

  const bool explain = args.contains("explain");
  std::printf("%s\n", core::format_assessment(a, topo, explain).c_str());

  // Baselines, for context.
  const core::StudyOnlyAnalyzer so;
  const core::DiDAnalyzer did;
  std::printf("baseline reads (first study element):\n");
  const core::ElementWindows w =
      assessor.windows_for(study[0], a.control_group, *kpi_id, *change_bin);
  std::printf("  study-only: %s, DiD: %s\n",
              to_string(so.assess(w, *kpi_id).verdict),
              to_string(did.assess(w, *kpi_id).verdict));
  obs_session.finish();
  return 0;
}

// --shards N (else LITMUS_SHARDS, else 1) runs the batch shard by shard:
// deterministic element partition, per-shard run artifacts. Results are
// bit-identical to an unsharded run over the same inputs.
std::size_t resolve_shards(const std::map<std::string, std::string>& args) {
  std::string spec;
  if (const auto it = args.find("shards"); it != args.end())
    spec = it->second;
  else if (const char* env = std::getenv("LITMUS_SHARDS"))
    spec = env;
  if (spec.empty()) return 1;
  const auto v = io::parse_int(spec);
  if (!v || *v <= 0) throw std::runtime_error("bad --shards: " + spec);
  return static_cast<std::size_t>(*v);
}

int batch(const std::map<std::string, std::string>& args) {
  const auto need = [&](const char* key) -> const std::string& {
    const auto it = args.find(key);
    if (it == args.end())
      throw std::runtime_error(std::string("missing --") + key);
    return it->second;
  };

  apply_threads_flag(args);  // validate before the expensive loads
  apply_simd_flags(args);
  const std::size_t n_shards = resolve_shards(args);

  ObsSession obs_session("batch", args);

  std::ifstream topo_in(need("topology"));
  if (!topo_in) throw std::runtime_error("cannot open topology file");
  const net::Topology topo = io::load_topology_csv(topo_in);
  obs_session.add_input(need("topology"));

  // Series source: a snapshot mapped in place (--series-snap, the
  // million-element path — series stay on shared read-only pages), a CSV
  // served through the mapped snapshot cache (--store mmap), or the heap
  // store (--store heap, the default for --series). All three providers
  // produce bit-identical windows.
  std::shared_ptr<const io::MappedStore> mapped;
  io::SeriesStore heap_store;  // unused on the mapped paths
  core::SeriesProvider provider;
  const std::string store_mode =
      args.contains("store") ? args.at("store") : "";
  if (const auto it = args.find("series-snap"); it != args.end()) {
    if (args.contains("series"))
      throw std::runtime_error("--series and --series-snap are exclusive");
    std::string why;
    mapped = io::MappedStore::open(it->second, &why);
    if (!mapped)
      throw std::runtime_error("cannot map snapshot " + it->second + ": " +
                               why);
    provider = mapped->provider();
    obs_session.add_input(it->second);
    obs_session.note("ingest.series", "mapped-snapshot");
    std::printf("mapped %zu series (%.1f MiB) from %s in %.0f ms\n",
                mapped->size(),
                static_cast<double>(mapped->bytes_mapped()) / (1 << 20),
                it->second.c_str(), mapped->open_stats().seconds * 1e3);
  } else if (store_mode == "mmap") {
    io::IngestOptions opts;
    opts.snapshot_dir = resolve_snapshot_dir(args);
    if (opts.snapshot_dir.empty())
      throw std::runtime_error(
          "--store mmap needs --snapshot-cache DIR (or "
          "LITMUS_SNAPSHOT_CACHE)");
    const io::MappedIngest mi =
        io::ingest_series_file_mapped(need("series"), opts);
    mapped = mi.store;
    provider = mapped->provider();
    obs_session.add_input(need("series"), mi.report.bytes,
                          mi.report.fingerprint);
    obs_session.note("ingest.series", mi.report.from_snapshot
                                          ? "snapshot-mapped"
                                          : "parsed+snapshot-mapped");
    std::printf("mapped %zu series (%.1f MiB, %s)\n", mapped->size(),
                static_cast<double>(mapped->bytes_mapped()) / (1 << 20),
                mi.report.from_snapshot ? "snapshot hit" : "parsed once");
  } else if (store_mode.empty() || store_mode == "heap") {
    load_series_input(need("series"), heap_store, args, obs_session);
    provider = heap_store.provider();
  } else {
    throw std::runtime_error("unknown --store mode: " + store_mode +
                             " (want heap|mmap)");
  }

  std::ifstream changes_in(need("changes"));
  if (!changes_in) throw std::runtime_error("cannot open changes file");
  chg::ChangeLog log;
  const std::size_t n = io::load_changes_csv(changes_in, log);
  obs_session.add_input(need("changes"));
  std::printf("loaded %zu change record(s)\n", n);

  core::BatchConfig config;
  if (const auto it = args.find("seed"); it != args.end()) {
    const auto v = io::parse_int(it->second);
    if (!v || *v < 0) throw std::runtime_error("bad --seed: " + it->second);
    config.assessment.regression.seed = static_cast<std::uint64_t>(*v);
  }
  const auto bins_flag = [&](const char* key, std::size_t& out) {
    const auto it = args.find(key);
    if (it == args.end()) return;
    const auto v = io::parse_int(it->second);
    if (!v || *v <= 0)
      throw std::runtime_error(std::string("bad --") + key + ": " +
                               it->second);
    out = static_cast<std::size_t>(*v);
  };
  bins_flag("before-bins", config.assessment.before_bins);
  bins_flag("after-bins", config.assessment.after_bins);
  std::size_t iterations = config.assessment.regression.n_iterations;
  bins_flag("iterations", iterations);
  config.assessment.regression.n_iterations = iterations;
  apply_adaptive_flags(args, config.assessment.regression);
  if (const auto it = args.find("select"); it != args.end()) {
    SelectionMode mode = make_selection_mode(it->second);
    config.predicate = std::move(mode.predicate);
    config.group_key = std::move(mode.group_key);
  }

  // Live shard progress for /status while the sweep runs.
  const auto live_shard = std::make_shared<std::atomic<long long>>(-1);
  if (n_shards > 1) {
    const auto total_shards = n_shards;
    obs_session.set_status_fn([live_shard, total_shards](obs::JsonWriter& w) {
      w.key("batch").begin_object();
      w.member("shards", static_cast<std::uint64_t>(total_shards))
          .member("current_shard",
                  static_cast<std::int64_t>(live_shard->load()));
      w.end_object();
    });
  }

  obs_session.set_seed(config.assessment.regression.seed);
  obs_session.start();

  if (n_shards <= 1) {
    const core::BatchReport report =
        core::assess_change_log(log, topo, provider, config);
    std::printf("%s", core::format_batch_report(report, topo).c_str());
    obs_session.finish();
    return 0;
  }

  // Sharded run: when the run is persisted, each shard gets its own run
  // directory (shard-NN/run_manifest.json + events.jsonl). The driver
  // swaps the process event sink to the shard's log in on_start and back
  // in on_finish — both run on this thread while no worker is in flight —
  // so assessment events land with their shard while run_start/run_end
  // stay in the parent stream. diff-runs stitches shard-*/events.jsonl
  // back into one verdict set.
  std::unique_ptr<obs::EventLog> shard_log;
  obs::EventLog* parent_log = nullptr;
  core::ShardCallbacks cb;
  cb.on_start = [&](std::size_t s, std::size_t records) {
    live_shard->store(static_cast<long long>(s));
    if (obs_session.run_dir().empty()) return;
    char name[16];
    std::snprintf(name, sizeof name, "shard-%02zu", s);
    const std::string sdir = obs_session.run_dir() + "/" + name;
    obs_session.write_shard_manifest(sdir, s, records);
    shard_log = obs::EventLog::open(sdir + "/events.jsonl");
    parent_log = obs::events();
    obs::set_events(shard_log.get());
    shard_log->emit(obs::EventType::kRunStart, [&](obs::JsonWriter& w) {
      w.member("shard", static_cast<std::uint64_t>(s))
          .member("records", static_cast<std::uint64_t>(records));
    });
  };
  cb.on_finish = [&](const core::ShardSummary& sum) {
    if (shard_log) {
      shard_log->emit(obs::EventType::kRunEnd, [&](obs::JsonWriter& w) {
        w.member("shard", static_cast<std::uint64_t>(sum.shard))
            .member("records", static_cast<std::uint64_t>(sum.records))
            .member("wall_s", sum.seconds)
            .member("status", "ok");
      });
      obs::set_events(parent_log);
      shard_log.reset();  // flush + close
      parent_log = nullptr;
    }
  };

  const core::ShardedBatchReport sharded =
      core::assess_change_log_sharded(log, topo, provider, n_shards, config,
                                      cb);
  std::printf("%s", core::format_batch_report(sharded.merged, topo).c_str());
  std::printf("shards: %zu\n", sharded.shards.size());
  const bool adaptive = config.assessment.regression.adaptive_sampling;
  std::printf("shard  records  seconds%s\n",
              adaptive ? "  early-stops  iters-used/budget" : "");
  for (const auto& s : sharded.shards) {
    std::printf("%5zu  %7zu  %7.2f", s.shard, s.records, s.seconds);
    if (adaptive)
      std::printf("  %11zu  %llu/%llu", s.adaptive_stopped_early,
                  static_cast<unsigned long long>(s.adaptive_iterations_used),
                  static_cast<unsigned long long>(
                      s.adaptive_iterations_budget));
    std::printf("\n");
  }
  obs_session.finish();
  return 0;
}

// gen-corpus: stream a large synthetic corpus (topology.csv, changes.csv,
// series.litmus-snap) to disk with bounded memory — the workload generator
// for the mapped-store scale path (DESIGN.md §15).
int gen_corpus(const std::string& dir,
               const std::map<std::string, std::string>& args) {
  sim::ScaleCorpusConfig cfg;
  const auto size_flag = [&](const char* key, std::size_t& out) {
    const auto it = args.find(key);
    if (it == args.end()) return;
    const auto v = io::parse_int(it->second);
    if (!v || *v <= 0)
      throw std::runtime_error(std::string("bad --") + key + ": " +
                               it->second);
    out = static_cast<std::size_t>(*v);
  };
  size_flag("elements", cfg.elements);
  size_flag("cluster-size", cfg.cluster_size);
  size_flag("change-stride", cfg.change_stride);
  size_flag("improve-stride", cfg.improve_stride);
  size_flag("before-bins", cfg.before_bins);
  size_flag("after-bins", cfg.after_bins);
  if (const auto it = args.find("shift-sigma"); it != args.end()) {
    const auto v = io::parse_double(it->second);
    if (!v) throw std::runtime_error("bad --shift-sigma: " + it->second);
    cfg.shift_sigma = *v;
  }
  if (const auto it = args.find("seed"); it != args.end()) {
    const auto v = io::parse_int(it->second);
    if (!v || *v < 0) throw std::runtime_error("bad --seed: " + it->second);
    cfg.seed = static_cast<std::uint64_t>(*v);
  }

  const std::uint64_t t0 = obs::now_ns();
  const sim::ScaleCorpusReport rep = sim::write_scale_corpus(dir, cfg);
  const double secs = static_cast<double>(obs::now_ns() - t0) / 1e9;
  std::printf("wrote %s: %zu elements (%zu NodeBs in %zu clusters), "
              "%zu change(s), %llu series (%.1f MiB payload) in %.1fs\n",
              dir.c_str(), rep.elements, rep.nodebs, rep.clusters,
              rep.changes, static_cast<unsigned long long>(rep.series),
              static_cast<double>(rep.snapshot_payload_bytes) / (1 << 20),
              secs);
  std::printf("try: litmus_cli batch --topology %s/topology.csv "
              "--series-snap %s/series.litmus-snap --changes %s/changes.csv "
              "--select zip --before-bins %zu --after-bins %zu --shards 4\n",
              dir.c_str(), dir.c_str(), dir.c_str(), cfg.before_bins,
              cfg.after_bins);
  return 0;
}

// monitor: the paper's "confirm over multiple time-intervals" workflow as
// a long-running loop — replays stored bins through ChangeMonitor state
// machines at --step-hours granularity, printing each completed window.
// This is the daemon mode the live observability plane is built for:
// --serve exposes per-element monitor state on /status while the loop
// runs, --tick-ms slows the replay to wall-clock time, and --linger-ms
// keeps the plane up after the last heartbeat so /readyz demonstrably
// flips to 503 on staleness.
int monitor_cmd(const std::map<std::string, std::string>& args) {
  const auto need = [&](const char* key) -> const std::string& {
    const auto it = args.find(key);
    if (it == args.end())
      throw std::runtime_error(std::string("missing --") + key);
    return it->second;
  };

  apply_threads_flag(args);
  apply_simd_flags(args);

  ObsSession obs_session("monitor", args);

  std::ifstream topo_in(need("topology"));
  if (!topo_in) throw std::runtime_error("cannot open topology file");
  const net::Topology topo = io::load_topology_csv(topo_in);
  obs_session.add_input(need("topology"));

  io::SeriesStore store;
  load_series_input(need("series"), store, args, obs_session);

  const std::vector<net::ElementId> study = parse_ids(need("study"));
  const auto kpi_id = kpi::parse_kpi(need("kpi"));
  if (!kpi_id) throw std::runtime_error("unknown KPI name");
  const auto change_bin = io::parse_int(need("change-bin"));
  if (!change_bin) throw std::runtime_error("bad --change-bin");

  core::MonitorConfig mcfg;
  if (const auto it = args.find("before-days"); it != args.end())
    mcfg.before_bins = static_cast<std::size_t>(std::stoi(it->second)) * 24;
  if (const auto it = args.find("window-days"); it != args.end())
    mcfg.window_bins = static_cast<std::size_t>(std::stoi(it->second)) * 24;
  if (const auto it = args.find("step-hours"); it != args.end())
    mcfg.step_bins = static_cast<std::size_t>(std::stoi(it->second));
  if (const auto it = args.find("confirm"); it != args.end())
    mcfg.confirm_windows = static_cast<std::size_t>(std::stoi(it->second));
  if (const auto it = args.find("seed"); it != args.end()) {
    const auto v = io::parse_int(it->second);
    if (!v || *v < 0) throw std::runtime_error("bad --seed: " + it->second);
    mcfg.regression.seed = static_cast<std::uint64_t>(*v);
  }
  apply_adaptive_flags(args, mcfg.regression);

  const auto parse_ms = [&](const char* key) -> std::uint64_t {
    const auto it = args.find(key);
    if (it == args.end()) return 0;
    const auto v = io::parse_int(it->second);
    if (!v || *v < 0)
      throw std::runtime_error(std::string("bad --") + key + ": " +
                               it->second);
    return static_cast<std::uint64_t>(*v);
  };
  const std::uint64_t tick_ms = parse_ms("tick-ms");
  const std::uint64_t linger_ms = parse_ms("linger-ms");

  std::vector<net::ElementId> controls;
  if (const auto it = args.find("controls"); it != args.end()) {
    controls = parse_ids(it->second);
  } else {
    std::string mode = "region";
    if (const auto sel = args.find("select"); sel != args.end())
      mode = sel->second;
    const core::SelectionResult sel = core::select_control_group(
        topo, study, make_selection_mode(mode).predicate);
    if (!sel.meets_min_size)
      throw std::runtime_error(
          "control selection too small; pass --controls explicitly");
    controls = sel.controls;
    obs_session.note("monitor.controls_selected",
                     std::to_string(controls.size()));
  }

  // Data horizon: the last bin any study series reaches for this KPI.
  std::int64_t horizon = *change_bin;
  for (const auto e : study)
    if (store.contains(e, *kpi_id))
      horizon = std::max(horizon, store.get(e, *kpi_id).end_bin());
  if (horizon == *change_bin)
    throw std::runtime_error("no stored series for the study/KPI pair");

  // Live monitor state shared with the /status handler (server thread).
  struct LiveRow {
    std::uint32_t element;
    const char* state;
    std::int64_t up_to;
    std::uint64_t windows;
  };
  const auto live_mu = std::make_shared<std::mutex>();
  const auto live = std::make_shared<std::vector<LiveRow>>();
  for (const auto e : study)
    live->push_back({e.value, core::to_string(core::MonitorState::kWarmup),
                     *change_bin, 0});
  const std::string kpi_name = need("kpi");
  obs_session.set_status_fn([live_mu, live, kpi_name](obs::JsonWriter& w) {
    w.key("monitors").begin_array();
    const std::lock_guard<std::mutex> lock(*live_mu);
    for (const auto& row : *live) {
      w.begin_object();
      w.member("element", static_cast<std::uint64_t>(row.element))
          .member("kpi", kpi_name)
          .member("state", row.state)
          .member("up_to_bin", row.up_to)
          .member("windows", row.windows);
      w.end_object();
    }
    w.end_array();
  });

  obs_session.set_seed(mcfg.regression.seed);
  obs_session.start();

  std::vector<core::ChangeMonitor> monitors;
  monitors.reserve(study.size());
  for (const auto e : study)
    monitors.emplace_back(store.provider(), e, controls, *kpi_id,
                          *change_bin, mcfg);

  std::printf("monitoring %zu element(s) vs %zu control(s), "
              "bins %lld..%lld (step %zuh)\n",
              study.size(), controls.size(),
              static_cast<long long>(*change_bin),
              static_cast<long long>(horizon), mcfg.step_bins);

  // Replay clock: a daemon waking up once per step, but over recorded
  // bins; --tick-ms stretches it toward real time for demos and CI.
  std::int64_t now_bin =
      *change_bin + static_cast<std::int64_t>(mcfg.window_bins);
  while (true) {
    if (now_bin > horizon) now_bin = horizon;
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      const auto readings = monitors[i].advance(now_bin);
      for (const auto& r : readings)
        std::printf("bin %lld  element %u  verdict=%s  state=%s\n",
                    static_cast<long long>(r.up_to_bin), study[i].value,
                    to_string(r.outcome.verdict),
                    core::to_string(r.state));
      const std::lock_guard<std::mutex> lock(*live_mu);
      auto& row = (*live)[i];
      row.state = core::to_string(monitors[i].state());
      if (!readings.empty()) row.up_to = readings.back().up_to_bin;
      row.windows = monitors[i].history().size();
    }
    std::fflush(stdout);
    if (now_bin >= horizon) break;
    if (tick_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(tick_ms));
    now_bin += static_cast<std::int64_t>(mcfg.step_bins);
  }

  for (std::size_t i = 0; i < monitors.size(); ++i)
    std::printf("element %u final state: %s (%zu window(s))\n",
                study[i].value, core::to_string(monitors[i].state()),
                monitors[i].history().size());

  // Heartbeats have stopped; lingering keeps the plane answering so a
  // probe can watch /readyz flip to 503 once the watermark goes stale.
  if (linger_ms > 0 && obs_session.serving()) {
    std::printf("lingering %llu ms before shutdown\n",
                static_cast<unsigned long long>(linger_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }

  obs_session.finish();
  return 0;
}

// diff-runs: load two persisted run directories and report drift.
// Exit codes: 0 equivalent, 3 drift (errors throw -> 1).
int diff_runs_cmd(const std::string& dir_a, const std::string& dir_b,
                  const std::map<std::string, std::string>& args) {
  obs::DiffThresholds thresholds;
  if (const auto it = args.find("max-flips"); it != args.end()) {
    const auto v = io::parse_int(it->second);
    if (!v || *v < 0)
      throw std::runtime_error("bad --max-flips: " + it->second);
    thresholds.max_verdict_flips = static_cast<std::size_t>(*v);
  }
  if (const auto it = args.find("metric-tolerance"); it != args.end()) {
    const auto v = io::parse_double(it->second);
    if (!v || *v < 0)
      throw std::runtime_error("bad --metric-tolerance: " + it->second);
    thresholds.metric_rel_tolerance = *v;
  }
  if (const auto it = args.find("wall-tolerance"); it != args.end()) {
    const auto v = io::parse_double(it->second);
    if (!v || *v < 0)
      throw std::runtime_error("bad --wall-tolerance: " + it->second);
    thresholds.wall_rel_tolerance = *v;
  }
  thresholds.ignore_manifest = args.contains("ignore-manifest");

  const obs::RunData a = obs::load_run_dir(dir_a);
  const obs::RunData b = obs::load_run_dir(dir_b);
  const obs::RunDiffReport report = obs::diff_runs(a, b, thresholds);
  std::printf("%s", obs::format_run_diff(report, a, b).c_str());
  return report.drift ? 3 : 0;
}

// profile: summarize a trace file (or a run directory holding one) into a
// per-stage table, no browser required.
/// Prints the per-shard summary table of a sharded run directory (from
/// each shard-NN/events.jsonl run_end event). Returns false when the
/// directory holds no shard sub-runs.
bool print_shard_summaries(const std::string& run_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> shard_dirs;
  for (const auto& entry : fs::directory_iterator(run_dir, ec)) {
    if (ec) break;
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("shard-", 0) == 0)
      shard_dirs.push_back(entry.path().string());
  }
  std::sort(shard_dirs.begin(), shard_dirs.end());
  if (shard_dirs.empty()) return false;
  std::printf("shards:\n  dir        records  seconds\n");
  for (const std::string& sd : shard_dirs) {
    std::ifstream ev(sd + "/events.jsonl");
    std::string line, last_end;
    while (std::getline(ev, line))
      if (line.find("\"type\":\"run_end\"") != std::string::npos)
        last_end = line;
    const std::string label = fs::path(sd).filename().string();
    if (last_end.empty()) {
      std::printf("  %-9s  (no run_end event)\n", label.c_str());
      continue;
    }
    const auto doc = obs::parse_json(last_end, nullptr);
    if (!doc) continue;
    std::printf("  %-9s  %7.0f  %7.2f\n", label.c_str(),
                doc->member_number("records", 0),
                doc->member_number("wall_s", 0));
  }
  return true;
}

int profile_cmd(const std::string& target,
                const std::map<std::string, std::string>& args) {
  namespace fs = std::filesystem;
  std::string path = target;
  std::string run_dir;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    run_dir = path;
    // A run directory: prefer the chrome trace, fall back to the span dump.
    std::string found;
    for (const char* candidate : {"profile.json", "trace.json"}) {
      const std::string p = path + "/" + candidate;
      if (fs::exists(p, ec)) {
        found = p;
        break;
      }
    }
    if (found.empty()) {
      // A sharded run dir is still summarizable without any trace: the
      // shard-NN event streams carry records and wall time per shard.
      std::printf("%s\n", run_dir.c_str());
      if (print_shard_summaries(run_dir)) return 0;
      throw std::runtime_error(
          "no profile.json or trace.json in directory: " + path);
    }
    path = found;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();

  std::string error;
  const auto doc = obs::parse_json(buf.str(), &error);
  if (!doc) throw std::runtime_error(path + ": " + error);
  const auto parsed = obs::parse_trace_events(*doc, &error);
  if (!parsed) throw std::runtime_error(path + ": " + error);

  std::size_t top_n = 10;
  if (const auto it = args.find("top"); it != args.end()) {
    const auto v = io::parse_int(it->second);
    if (!v || *v < 0) throw std::runtime_error("bad --top: " + it->second);
    top_n = static_cast<std::size_t>(*v);
  }

  std::printf("%s", path.c_str());
  if (const obs::JsonValue* other = doc->find("otherData")) {
    const auto dropped =
        static_cast<std::uint64_t>(other->member_number("dropped_spans", 0));
    if (dropped > 0)
      std::printf(" (%llu span(s) dropped at record time)",
                  static_cast<unsigned long long>(dropped));
  }
  std::printf("\n%s",
              obs::format_profile_report(
                  obs::summarize_trace(parsed->events, top_n))
                  .c_str());
  if (!parsed->thread_names.empty()) {
    std::printf("threads:\n");
    for (const auto& [tid, name] : parsed->thread_names)
      std::printf("  %3u  %s\n", tid, name.c_str());
  }

  // A sharded run directory: summarize each shard-NN/ sub-run from its
  // run_end event (records, wall time).
  if (!run_dir.empty()) (void)print_shard_summaries(run_dir);
  return 0;
}

}  // namespace

// Parses "--flag value" pairs (and valueless boolean flags) starting at
// argv[first], rejecting anything outside the per-command whitelist so a
// typo fails loudly instead of being silently ignored.
int parse_flags(int argc, char** argv, const std::set<std::string>& valued,
                const std::set<std::string>& boolean,
                std::map<std::string, std::string>& out, int first = 2) {
  for (int i = first; i < argc;) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return usage();
    }
    const std::string name = argv[i] + 2;
    if (boolean.contains(name)) {
      out[name] = "1";
      ++i;
      continue;
    }
    if (!valued.contains(name)) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      return usage();
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for --%s\n", name.c_str());
      return usage();
    }
    out[name] = argv[i + 1];
    i += 2;
  }
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    const std::string cmd = argv[1];
    if (cmd == "--version" || cmd == "version") {
      std::printf("litmus_cli %s\n", obs::kLitmusVersion);
      std::printf("simd: %s\n", ts::simd::describe().c_str());
      return 0;
    }
    if (cmd == "--help" || cmd == "help") {
      usage();
      return 0;
    }
    if (cmd == "export-demo") {
      if (argc != 3) return usage();
      return export_demo(argv[2]);
    }
    if (cmd == "gen-corpus") {
      if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
        std::fprintf(stderr, "gen-corpus needs an output directory\n");
        return usage();
      }
      static const std::set<std::string> kValued = {
          "elements",     "cluster-size", "change-stride",
          "improve-stride", "before-bins", "after-bins",
          "shift-sigma",  "seed"};
      std::map<std::string, std::string> args;
      if (const int rc = parse_flags(argc, argv, kValued, {}, args,
                                     /*first=*/3);
          rc != 0)
        return rc;
      return gen_corpus(argv[2], args);
    }
    if (cmd == "assess" || cmd == "batch") {
      static const std::set<std::string> kSharedFlags = {
          "metrics-json",   "trace-json",     "threads",
          "seed",           "events-jsonl",   "snapshot-cache",
          "profile-json",   "profile-sample", "simd",
          "serve",          "ready-stale-ms",
          "adaptive-sampling", "min-iterations", "stability-rounds"};
      std::set<std::string> valued = kSharedFlags;
      std::set<std::string> boolean = {"fast-math-kernels"};
      if (cmd == "assess") {
        valued.insert({"topology", "series", "study", "kpi", "change-bin",
                       "controls", "select", "before-days", "after-days"});
        boolean.insert("explain");
      } else {
        valued.insert({"topology", "series", "series-snap", "changes",
                       "select", "store", "shards", "before-bins",
                       "after-bins", "iterations"});
      }
      std::map<std::string, std::string> args;
      if (const int rc = parse_flags(argc, argv, valued, boolean, args);
          rc != 0)
        return rc;
      return cmd == "assess" ? assess(args) : batch(args);
    }
    if (cmd == "monitor") {
      static const std::set<std::string> kValued = {
          "topology",       "series",       "study",
          "kpi",            "change-bin",   "controls",
          "select",         "before-days",  "window-days",
          "step-hours",     "confirm",      "tick-ms",
          "linger-ms",      "metrics-json", "trace-json",
          "threads",        "seed",         "events-jsonl",
          "snapshot-cache", "profile-json", "profile-sample",
          "simd",           "serve",        "ready-stale-ms",
          "adaptive-sampling", "min-iterations", "stability-rounds"};
      static const std::set<std::string> kBoolean = {"fast-math-kernels"};
      std::map<std::string, std::string> args;
      if (const int rc = parse_flags(argc, argv, kValued, kBoolean, args);
          rc != 0)
        return rc;
      return monitor_cmd(args);
    }
    if (cmd == "profile") {
      if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
        std::fprintf(stderr,
                     "profile needs a run directory or trace file\n");
        return usage();
      }
      static const std::set<std::string> kValued = {"top"};
      std::map<std::string, std::string> args;
      if (const int rc = parse_flags(argc, argv, kValued, {}, args,
                                     /*first=*/3);
          rc != 0)
        return rc;
      return profile_cmd(argv[2], args);
    }
    if (cmd == "diff-runs") {
      if (argc < 4 || std::strncmp(argv[2], "--", 2) == 0 ||
          std::strncmp(argv[3], "--", 2) == 0) {
        std::fprintf(stderr, "diff-runs needs two run directories\n");
        return usage();
      }
      static const std::set<std::string> kValued = {
          "max-flips", "metric-tolerance", "wall-tolerance"};
      static const std::set<std::string> kBoolean = {"ignore-manifest"};
      std::map<std::string, std::string> args;
      if (const int rc = parse_flags(argc, argv, kValued, kBoolean, args,
                                     /*first=*/4);
          rc != 0)
        return rc;
      return diff_runs_cmd(argv[2], argv[3], args);
    }
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
