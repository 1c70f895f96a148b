#!/usr/bin/env python3
"""End-to-end Litmus benchmark.

    python3 litbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 litbench/run.py --self-test

Run from the repository root. The first run builds litbench/ (its own CMake
package over the repository's sources) into .bench_build/ as a Release
build; inputs are generated into .bench_work/, keyed by (workload, seed),
once per key and off the clock.

--trace 0 prints every end-to-end metric of BENCHMARK.json, measured with
tracing off: a batch workload runs each pass in a process of its own, as
each `litmus_cli batch` run is; ffa answers campaign calls in a loop in one
process. litbench/spec.json defines each metric. --trace 1 also replays one
pass with an obs::ScopedSpan around each call into a layer, writes the
spans with obs::write_chrome_trace (trace.json, plus the unit of each span
in trace_units.json), prints the wall-time ledger and every per-layer
metric.

Correctness gates, run once per invocation and off the clock: a batch
workload's verdict table must equal `litmus_cli batch` stdout after its
timing line, byte for byte; the ffa confusion counts must equal the ones
committed in litbench/spec.json; every timed pass must render the same
table; the traced replay's per-unit verdicts must equal the untraced
pass's. Any mismatch exits 1 and prints no result. The last line of stdout
is the result JSON.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
SPEC = HERE / "spec.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("cold_start", "dense_sweep", "ffa")
SWEEPS = ("cold_start", "dense_sweep")
RUN_TIMEOUT_S = 170
MIN_PASSES = 3
BUILD_TIMEOUT_S = 850


class GateError(Exception):
    """A correctness gate failed: report nothing."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def threads():
    return min(4, os.cpu_count() or 1)


def call(cmd, timeout, capture=False):
    """Runs cmd to completion (killed on timeout); raises on failure."""
    out = subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                         stdout=subprocess.PIPE if capture else sys.stderr,
                         stderr=sys.stderr)
    if out.returncode != 0:
        raise GateError(f"{' '.join(map(str, cmd))} exited {out.returncode}")
    return out.stdout


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise GateError("no Litmus sources next to litbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             BUILD_TIMEOUT_S)
    cache = (BUILD / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        raise GateError("refusing to report from a non-Release build")
    call(["cmake", "--build", BUILD, "-j", str(threads()),
          "--target", "litbench", "litmus_cli"], BUILD_TIMEOUT_S)


def inputs(workload, seed, tiny):
    """The (workload, seed) input directory, generated on first use.
    Other seeds' inputs of the workload are evicted to bound disk use."""
    key = f"{workload}-{seed}" + ("-tiny" if tiny else "")
    d = WORK / key
    if (d / "ready").is_file():
        return d
    WORK.mkdir(exist_ok=True)
    for old in WORK.glob(f"{workload}-*"):
        shutil.rmtree(old, ignore_errors=True)
    tmp = WORK / (key + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    if workload in SWEEPS:
        call([BUILD / "litbench", "gen", "--workload", workload, "--seed",
              str(seed), "--dir", tmp] + (["--tiny"] if tiny else []),
             RUN_TIMEOUT_S)
    (tmp / "ready").write_text("")
    tmp.rename(d)
    return d


def cli_gate(d):
    """litmus_cli batch on the same inputs must print the same table."""
    out = call([BUILD / "litmus_cli", "batch",
                "--topology", d / "topology.csv",
                "--series-snap", d / "series.litmus-snap",
                "--changes", d / "changes.csv",
                "--select", "zip", "--before-bins", "48", "--after-bins", "24",
                "--threads", str(threads())], RUN_TIMEOUT_S, capture=True)
    timing, _, rest = out.partition("\n")
    if not timing.startswith("mapped "):
        raise GateError(f"unexpected litmus_cli timing line: {timing!r}")
    if rest != (d / "table.txt").read_text():
        raise GateError("verdict table differs from litmus_cli batch stdout")


def ffa_gate(run, spec):
    for seed, counts in run["ffa_counts"].items():
        if counts != spec["ffa_confusion_counts"][seed]:
            raise GateError(f"ffa confusion counts for episode seed {seed} "
                            f"are {counts}, committed "
                            f"{spec['ffa_confusion_counts'][seed]}")


def p95(xs):
    """95th percentile, interpolated between the samples around it."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=20, method="inclusive")[18]


def end_to_end(run):
    post = [run["units_per_pass"] / (w - s)
            for w, s in zip(run["wall_s"], run["setup_s"])]
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "wall_s": statistics.median(run["wall_s"]),
        "records_per_s": statistics.median(post),
        "assess_p50_ms": statistics.median(run["call_ms"]),
        "assess_p95_ms": p95(run["call_ms"]),
        "peak_rss_mb": run["peak_rss_mib"],
    }


def per_call_us(rows, name):
    row = rows.get(name)
    return row["total_s"] / row["count"] * 1e6 if row else 0.0


def span_s(rows, name):
    row = rows.get(name)
    return row["total_s"] if row else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(run, rep):
    rows = rep["ledger"]["rows"]
    topo_s = span_s(rows, "io.topology_load")
    open_s = span_s(rows, "io.store_open")
    rate_n = statistics.median(run["units_per_pass"] / a
                               for a in run["assess_s"])
    return {
        "io.topology_load_s": topo_s,
        "io.topology_rows_per_s": ratio(rep["topology_rows"], topo_s),
        "io.store_open_s": open_s,
        "io.store_open_mb_per_s": ratio(rep["store_bytes"] / 2**20, open_s),
        "io.store_major_faults": rep["store_major_faults"],
        "io.changes_load_s": span_s(rows, "io.changes_load"),
        "obs.fingerprint_s": span_s(rows, "obs.fingerprint"),
        "changelog.index_build_s": span_s(rows, "changelog.index_build"),
        "changelog.conflict_query_us":
            per_call_us(rows, "changelog.conflict_query"),
        "litmus.batch_fixed_s": rep["batch_fixed_s"],
        "litmus.selection_us": per_call_us(rows, "litmus.selection"),
        "litmus.selection_candidates_per_control":
            rep["candidates_per_control"],
        "litmus.window_fetch_us": per_call_us(rows, "litmus.window_fetch"),
        "litmus.window_bytes": ratio(rep["window_bytes"],
                                     rep["window_calls"]),
        "litmus.forecast_us": per_call_us(rows, "litmus.forecast"),
        "litmus.iterations_per_element": ratio(rep["iterations"],
                                               rep["elements"]),
        "litmus.fit_success_ratio": rep["fit_success_ratio"],
        "litmus.panel_cache_hit_ratio": rep["panel_cache_hit_ratio"],
        "litmus.report_format_s": span_s(rows, "litmus.report_format"),
        "tsmath.rank_test_us": per_call_us(rows, "tsmath.rank_test"),
        "parallel.tasks_per_record": ratio(rep["pool_tasks"], rep["units"]),
        "parallel.speedup": ratio(rate_n, run["one_thread_rate"]),
        "trace.unattributed_share": ratio(rep["ledger"]["unattributed_s"],
                                          rep["ledger"]["wall_s"]),
        "trace.overhead_share": ratio(rep["ledger"]["wall_s"],
                                      statistics.median(run["wall_s"])),
    }


def print_ledger(ledger, units):
    wall = ledger["wall_s"]
    log(f"ledger: traced wall {wall * 1e3:.1f} ms over {units} unit(s)")
    log(f"  {'layer span':28} {'ms':>10} {'% wall':>7} {'count':>7} "
        f"{'us/unit':>9}")
    rows = sorted(ledger["rows"].items(), key=lambda kv: -kv[1]["charged_s"])
    for name, row in rows + [("unattributed",
                              {"charged_s": ledger["unattributed_s"],
                               "count": 0})]:
        log(f"  {name:28} {row['charged_s'] * 1e3:10.3f} "
            f"{100 * row['charged_s'] / wall:7.2f} {row['count']:7} "
            f"{row['charged_s'] / max(units, 1) * 1e6:9.2f}")
    closes = abs(ledger["charged_sum_s"] + ledger["unattributed_s"] - wall)
    if closes > 1e-6 * wall:
        raise GateError("ledger does not account for the traced wall time")


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def source_digest():
    """sha1 over the program's sources, which identifies the code even
    where the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in ("src", "apps"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def provenance(args, d, run, spec):
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "why": spec["workloads"][args.workload],
        "threads": run["threads"],
        "build_type": run["build_type"],
        "simd_tier": run["simd_tier"],
        "git_commit": git_commit(),
        "source_sha1": source_digest(),
        "windows": run["windows"],
        "iteration_budget": run["iterations"],
        "page_cache": spec["page_cache"],
        "timed_passes": len(run["wall_s"]),
        "latency_samples": len(run["call_ms"]),
        "samples_beyond_p95": sum(x > p95(run["call_ms"])
                                  for x in run["call_ms"]),
        "failed_share": ratio(run["failed_per_pass"], run["units_per_pass"]),
    }
    if args.workload in SWEEPS:
        corpus = json.loads((d / "corpus.json").read_text())
        prov.update(elements=corpus["elements"], records=corpus["records"],
                    series=corpus["series"],
                    payload_mib=corpus["payload_mib"])
    else:
        prov.update(campaigns=run["units_per_pass"],
                    episode_seeds=sorted(run["ffa_counts"]))
    return prov


def sweep_run(args, common):
    """Batch passes, one process each, as each `litmus_cli batch` run is:
    an untimed warm-up, then timed passes until --seconds have elapsed.
    A sweep's call, for the latency metrics, is one whole batch run."""
    def one(extra):
        out = call([BUILD / "litbench", "pass"] + common + extra,
                   RUN_TIMEOUT_S, capture=True)
        return json.loads(out.strip().splitlines()[-1])

    warm = one(["--write-tables"]
               + (["--corrupt-report"] if args.corrupt_report else []))
    passes = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t0 < args.seconds:
        p = one([])
        if (p["table_fnv"], p["units_fnv"]) != \
                (warm["table_fnv"], warm["units_fnv"]):
            raise GateError("a timed pass rendered a different verdict table")
        passes.append(p)
    one_thread_rate = 0.0
    if args.trace:
        p = one(["--threads", "1"])
        one_thread_rate = p["units"] / p["assess_s"]
    run = {k: warm[k] for k in
           ("threads", "build_type", "simd_tier", "iterations", "windows")}
    run.update(
        units_per_pass=warm["units"],
        failed_per_pass=warm["failed"], one_thread_rate=one_thread_rate,
        peak_rss_mib=statistics.median(p["peak_rss_mib"] for p in passes),
        setup_s=[p["setup_s"] for p in passes],
        wall_s=[p["wall_s"] for p in passes],
        assess_s=[p["assess_s"] for p in passes],
        call_ms=[p["wall_s"] * 1e3 for p in passes])
    return run


def measure(args):
    spec = json.loads(SPEC.read_text())
    bench = json.loads(BENCHMARK.read_text())
    build()
    d = inputs(args.workload, args.seed, args.tiny)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", d, "--threads", str(threads())]
    if args.tiny:
        common.append("--tiny")
    if args.workload in SWEEPS:
        run = sweep_run(args, common)
        (d / "run.json").write_text(json.dumps(run) + "\n")
        cli_gate(d)
    else:
        call([BUILD / "litbench", "run", "--seconds", str(args.seconds)]
             + common + (["--speedup"] if args.trace else [])
             + (["--corrupt-report"] if args.corrupt_report else []),
             RUN_TIMEOUT_S)
        run = json.loads((d / "run.json").read_text())
        if not run["deterministic"]:
            raise GateError("timed passes rendered different verdict tables")
        ffa_gate(run, spec)

    if args.trace:
        call([BUILD / "litbench", "replay"] + common, RUN_TIMEOUT_S)
        rep = json.loads((d / "replay.json").read_text())
        if not rep["agrees_with_untraced"]:
            raise GateError("traced replay's verdicts differ from untraced")
        for name in ("units.txt", "table.txt"):
            if (d / f"replay_{name}").read_text() != (d / name).read_text():
                raise GateError(f"traced replay's {name} differs from run's")
        print_ledger(rep["ledger"], rep["units"])
        values = per_layer(run, rep)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        log(f"trace: {d / 'trace.json'} ({rep['spans']} spans)")
    else:
        values = end_to_end(run)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    prov = provenance(args, d, run, spec)
    (d / "provenance.json").write_text(json.dumps(prov, indent=1) + "\n")
    print("provenance: " + json.dumps(prov))
    passes = len(run["wall_s"])
    return {
        "correct": True,
        "attempted": run["units_per_pass"] * passes,
        "failed": run["failed_per_pass"] * passes,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


# ---- self-test ---------------------------------------------------------------

def check_benchmark_json(bench, spec):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, set(bench)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} for w in bench["workloads"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in bench["per_layer"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert set(spec["layers"]) == {m["name"] for m in bench["per_layer"]}, \
        "spec.json must say what each per-layer metric moves"
    assert set(spec["workloads"]) == set(WORKLOADS)
    assert set(spec["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}


def self_test():
    """Runs every workload on a tiny seed with tracing off and on, checks
    each named metric and its unit, and checks that an altered report byte
    trips the correctness gate."""
    bench = json.loads(BENCHMARK.read_text())
    spec = json.loads(SPEC.read_text())
    check_benchmark_json(bench, spec)
    me = [sys.executable, Path(__file__).resolve()]
    for workload in WORKLOADS:
        for trace, metrics in ((0, bench["end_to_end"]),
                               (1, bench["per_layer"])):
            out = subprocess.run(
                me + ["--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=RUN_TIMEOUT_S)
            assert out.returncode == 0, (workload, trace, out.stderr[-2000:])
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in metrics}
            assert got == want, (workload, trace, got, want)
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            if trace:
                trace_json = WORK / f"{workload}-7-tiny" / "trace.json"
                out = subprocess.run(
                    [BUILD / "litmus_cli", "profile", trace_json],
                    capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
                assert out.returncode == 0 and "litmus.forecast" in out.stdout, \
                    ("litmus_cli profile cannot read the trace", out.stderr)
            log(f"self-test: {workload} trace={trace} ok")
    for workload in SWEEPS:
        out = subprocess.run(
            me + ["--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", "0", "--tiny", "--corrupt-report"],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        assert out.returncode != 0, "altered report byte passed the gate"
        assert '"metrics"' not in out.stdout, "a failed gate printed numbers"
        assert "differs from litmus_cli batch" in out.stderr, out.stderr
        log(f"self-test: {workload} altered report byte trips the gate")
    log("self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    # Self-test only: tiny inputs, and a flipped report byte.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-report", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    try:
        if args.self_test:
            build()
            self_test()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args)
    except (GateError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError, AssertionError) as e:
        log(f"litbench: {type(e).__name__}: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
