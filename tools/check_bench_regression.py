#!/usr/bin/env python3
"""Guard against perf regressions in the calibrated benchmark pair.

Compares a fresh google-benchmark JSON export (BENCH_perf.json or
BENCH_kernels.json) against the committed baseline. Raw nanoseconds are not
comparable across machines, so the check is *calibrated*: both runs are
normalized by a CPU-bound primitive measured in the same process, and only
the ratio

    key_time / calibration_time

is compared. The build fails when the current ratio exceeds the baseline
ratio by more than the tolerance (default 25%).

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--tolerance 0.25]
        [--key BM_LitmusAssess_Controls/16] [--calibration BM_OlsFit/16]

--key/--calibration select which benchmark pair to gate, so the same script
guards BENCH_perf.json (default pair) and BENCH_kernels.json (e.g.
--key BM_MultiElementSweep --calibration BM_GramBuildCold/64).

A second mode gates an *absolute* speedup within one run — machine-
independent because both rows come from the same process:

    check_bench_regression.py RESULTS.json --min-speedup 1.5 \
        --slow "BM_GramAccumulate/64/0" --fast "BM_GramAccumulate/64/1"

fails unless slow_time / fast_time >= the floor (used to assert the SIMD
tiers actually beat the scalar kernels where they claim to).

Exit status: 0 OK, 1 regression/floor miss, 2 malformed input.
"""

import argparse
import json
import sys

# The guarded benchmark: one assessment at the default production shape.
DEFAULT_KEY = "BM_LitmusAssess_Controls/16"
# Calibration primitive: scales with raw CPU speed, not with the algorithmic
# changes this check is meant to catch.
DEFAULT_CALIBRATION = "BM_OlsFit/16"


def load_doc(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_times(doc):
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        name = b.get("name")
        t = b.get("real_time")
        if name is not None and t is not None:
            times[name] = float(t)
    return times


# Manifest fields whose mismatch makes a perf comparison apples-to-oranges.
MANIFEST_FIELDS = ("version", "build_flags", "threads", "seed", "rng_scheme")


def debug_markers(doc):
    """Returns the reasons a run looks like an unoptimized build.

    The authoritative signal is our manifest's build_flags, which carries
    opt=on/off from __OPTIMIZE__ — the compiler's view of the code actually
    being timed. google-benchmark's context.library_build_type only
    describes how the benchmark *library* was built (a preinstalled debug
    library under a Release build of ours is common), so it is consulted
    only when the manifest predates the opt marker.
    """
    flags = (doc.get("manifest") or {}).get("build_flags", "")
    if "opt=off" in flags:
        return [f"manifest build_flags={flags!r}"]
    if "opt=on" in flags:
        return []
    if (doc.get("context") or {}).get("library_build_type") == "debug":
        return ["benchmark library_build_type=debug "
                "(no opt marker in manifest)"]
    return []


def warn_on_debug_build(base_doc, cur_doc):
    for side, doc in (("baseline", base_doc), ("current", cur_doc)):
        reasons = debug_markers(doc)
        if reasons:
            print("*" * 72, file=sys.stderr)
            print(f"* WARNING: the {side} run was produced by a DEBUG build",
                  file=sys.stderr)
            for r in reasons:
                print(f"*   {r}", file=sys.stderr)
            print("* Debug timings are meaningless for perf tracking —",
                  file=sys.stderr)
            print("* re-record with -DCMAKE_BUILD_TYPE=Release.",
                  file=sys.stderr)
            print("*" * 72, file=sys.stderr)


def warn_on_manifest_mismatch(base_doc, cur_doc):
    """Warns (never fails) when the two runs' provenance differs.

    Older baselines predate the manifest block; that is reported once and
    tolerated so refreshing a baseline is never blocked by its own age.
    """
    base_m = base_doc.get("manifest")
    cur_m = cur_doc.get("manifest")
    if not base_m or not cur_m:
        missing = "baseline" if not base_m else "current"
        print(f"warning: {missing} run has no manifest block; "
              "provenance not comparable", file=sys.stderr)
        return
    for field in MANIFEST_FIELDS:
        bv, cv = base_m.get(field), cur_m.get(field)
        if bv != cv:
            print(f"warning: manifest mismatch on {field}: "
                  f"baseline={bv!r} current={cv!r} — the perf comparison "
                  "may be apples-to-oranges", file=sys.stderr)


def pick(times, name, path):
    if name not in times:
        print(f"error: {path} has no benchmark named {name}", file=sys.stderr)
        sys.exit(2)
    if times[name] <= 0:
        print(f"error: {path}: {name} reports non-positive time",
              file=sys.stderr)
        sys.exit(2)
    return times[name]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative slowdown (default 0.25 = 25%%)")
    ap.add_argument("--key", default=DEFAULT_KEY,
                    help=f"benchmark to gate (default {DEFAULT_KEY})")
    ap.add_argument("--calibration", default=DEFAULT_CALIBRATION,
                    help="CPU-speed normalizer benchmark "
                         f"(default {DEFAULT_CALIBRATION})")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="single-file mode: require --slow to be at least "
                         "this many times slower than --fast")
    ap.add_argument("--slow", help="slow row for --min-speedup")
    ap.add_argument("--fast", help="fast row for --min-speedup")
    args = ap.parse_args()

    if args.min_speedup is not None:
        if not args.slow or not args.fast:
            print("error: --min-speedup needs --slow and --fast",
                  file=sys.stderr)
            sys.exit(2)
        path = args.current or args.baseline
        doc = load_doc(path)
        if markers := debug_markers(doc):
            print(f"warning: {path} looks like a debug build: "
                  f"{'; '.join(markers)}", file=sys.stderr)
        times = load_times(doc)
        speedup = pick(times, args.slow, path) / pick(times, args.fast, path)
        print(f"{args.fast} vs {args.slow}: speedup {speedup:.2f}x"
              f"  floor {args.min_speedup:.2f}x")
        if speedup < args.min_speedup:
            print("FAIL: speedup below the required floor", file=sys.stderr)
            sys.exit(1)
        print("OK")
        return

    if args.current is None:
        print("error: need BASELINE and CURRENT (or --min-speedup)",
              file=sys.stderr)
        sys.exit(2)
    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    warn_on_debug_build(base_doc, cur_doc)
    warn_on_manifest_mismatch(base_doc, cur_doc)
    base = load_times(base_doc)
    cur = load_times(cur_doc)

    base_ratio = (pick(base, args.key, args.baseline) /
                  pick(base, args.calibration, args.baseline))
    cur_ratio = (pick(cur, args.key, args.current) /
                 pick(cur, args.calibration, args.current))

    change = cur_ratio / base_ratio - 1.0
    print(f"{args.key} (normalized by {args.calibration}):")
    print(f"  baseline ratio {base_ratio:.3f}  current ratio {cur_ratio:.3f}"
          f"  change {change:+.1%}  tolerance +{args.tolerance:.0%}")

    if change > args.tolerance:
        print("FAIL: key benchmark regressed beyond tolerance",
              file=sys.stderr)
        sys.exit(1)
    print("OK")


if __name__ == "__main__":
    main()
