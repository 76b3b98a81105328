#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_*.json files.

Compares freshly recorded benchmark results against the committed
baselines in bench-results/ and fails (exit 1) when a benchmark's median
slowdown exceeds the threshold (default: >25%).

Metric extraction per BENCH_<name>.json, most-specific first:
  1. google-benchmark table rows in "output"
       BM_Foo/1    12345 ns    12340 ns    56  -> entry per BM_ name
  2. stable "RESULT <entry> <seconds>" lines emitted by our hand-rolled
     drivers (e.g. bench_trainer_ssp)
  3. fallback: the whole-run "wall_seconds" as a single entry (only when
     it is at least --min-seconds; shorter runs are pure noise)
  4. a perfbench contract result (BENCH_perfbench_<workload>.json: the
     last stdout line of `perfbench/run.py --trace 1`), gated below

Per benchmark the gate compares entries present in both files and takes
the MEDIAN ratio fresh/baseline, so a single noisy entry cannot fail the
build. Benchmarks matching an --allow pattern (fnmatch, also matchable
against individual entry names) only warn. Labeled result files
(BENCH_<name>_<label>.json, e.g. the *_scalar-baseline snapshots) are
historical pins, not baselines, and are skipped. Results whose
"sanitizer" field is set (run_benchmarks.sh records AGL_SANITIZE from the
build tree) are likewise skipped on BOTH sides: a TSan/ASan binary runs
5-20x slower, so its timings are meaningless as fresh numbers and
poisonous as baselines. The same goes for results whose "failpoints" field
is set (AGL_FAILPOINTS was armed during the run): they time the
retry/backoff/recovery machinery, not the steady-state path.

To refresh a baseline intentionally (after an accepted perf change):
    OUT_DIR=bench-results scripts/run_benchmarks.sh bench_<name>
and commit the updated JSON alongside the change that explains it. A
perfbench baseline is the CI smoke step's command with its output sent
to bench-results/BENCH_perfbench_<workload>.json.

Usage:
    scripts/check_bench_regression.py --fresh bench-fresh \
        [--baseline bench-results] [--threshold 1.25] [--allow PATTERN]...
"""

import argparse
import fnmatch
import json
import math
import pathlib
import re
import statistics
import sys

# Benchmarks whose headline number measures machine parallelism or is
# otherwise dominated by scheduler noise; they report but never fail.
DEFAULT_ALLOWLIST = [
    "fig8_speedup",   # measures thread-level speedup of the host
]

# A perfbench result fails unless "correct" is true. Its per-layer metrics
# that took over from benches folded into perfbench are grouped by the bench
# they replace; each group is judged on its own median ratio, turned by the
# metric's "better" in BENCHMARK.json so that > 1 is worse.
PERFBENCH_GATED = {
    "pipeline_procs": {
        "infer_batch": ["infer.evals", "infer.hit_ratio"],
        "distributed": ["exchange.bytes", "ps.wire_bytes"],
        "graphflat_shards": ["mr.max_reduce_task_records", "flat.wall_s"],
    },
    "serve_read": {"serve": ["store.hit_ratio", "serve.pass_ms"]},
    "serve_mutate": {"serve": ["store.hit_ratio", "serve.pass_ms"]},
}
BENCHMARK_SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

GBENCH_ROW = re.compile(
    r"^(BM_\S+)\s+([0-9.]+)\s+(ns|us|ms|s)\b")
RESULT_ROW = re.compile(r"^RESULT\s+(\S+)\s+([0-9.eE+-]+)\s*$")
UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load(path):
    with open(path) as f:
        return json.load(f)


def extract_entries(doc, min_seconds):
    """Returns ({entry_name: seconds}, kind)."""
    entries = {}
    kind = "wall"
    for line in doc.get("output", []):
        m = GBENCH_ROW.match(line.strip())
        if m:
            # Keep the first occurrence (report order: mean before
            # median/stddev rows, which carry _mean/_median suffixes and
            # thus distinct names anyway).
            entries.setdefault(m.group(1),
                              float(m.group(2)) * UNIT_SECONDS[m.group(3)])
            kind = "gbench"
            continue
        m = RESULT_ROW.match(line.strip())
        if m:
            entries.setdefault(m.group(1), float(m.group(2)))
            kind = "result"
    if not entries:
        wall = float(doc.get("wall_seconds", 0.0))
        if wall >= min_seconds:
            entries["wall_seconds"] = wall
    return entries, kind


def perfbench_failures(name, fresh, base_path, threshold):
    """Failure messages for one perfbench contract result."""
    if fresh.get("correct") is not True:
        return [f"{name}: perfbench run is not correct"]
    groups = PERFBENCH_GATED.get(name.removeprefix("perfbench_"), {})
    if not groups or not base_path.exists():
        print(f"-- {name}: correct; no gated metrics or no committed baseline")
        return []
    better = {m["name"]: m["better"] for m in load(BENCHMARK_SPEC)["per_layer"]}
    fresh_m, base_m = fresh["metrics"], load(base_path)["metrics"]
    failures = []
    for group, metrics in groups.items():
        ratios = {}
        for m in metrics:
            if m not in fresh_m or m not in base_m:
                failures.append(f"{name}/{group}: no {m} (run --trace 1)")
                continue
            new, old = fresh_m[m]["value"], base_m[m]["value"]
            new, old = (old, new) if better[m] == "higher" else (new, old)
            ratios[m] = new / old if old > 0 else (math.inf if new > 0 else 1.0)
        median = statistics.median(ratios.values() or [1.0])
        detail = ", ".join(f"{m} x{r:.3f}" for m, r in ratios.items())
        ok = median <= threshold
        print(f"{'ok' if ok else '!!'} {name}/{group}: median x{median:.3f} "
              f"({detail})")
        if not ok:
            failures.append(f"{name}/{group}: median x{median:.3f} "
                            f"> x{threshold:.2f}")
    return failures


def is_unusable_baseline(path):
    """Labeled pins (non-null 'label'), sanitizer-built results (non-null
    'sanitizer') and fault-injected runs (non-null 'failpoints') must never
    serve as the comparison baseline."""
    try:
        doc = load(path)
        return (bool(doc.get("label")) or bool(doc.get("sanitizer")) or
                bool(doc.get("failpoints")))
    except (OSError, ValueError):
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True,
                    help="directory with freshly recorded BENCH_*.json")
    ap.add_argument("--baseline", default="bench-results",
                    help="directory with committed baseline BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="max allowed median fresh/baseline ratio")
    ap.add_argument("--min-seconds", type=float, default=0.05,
                    help="ignore wall-clock-only benches shorter than this")
    ap.add_argument("--allow", action="append", default=[],
                    help="fnmatch pattern (bench or entry name) that only "
                         "warns; repeatable")
    args = ap.parse_args()

    allow = DEFAULT_ALLOWLIST + args.allow

    def allowed(name):
        return any(fnmatch.fnmatch(name, pat) for pat in allow)

    fresh_dir = pathlib.Path(args.fresh)
    base_dir = pathlib.Path(args.baseline)
    fresh_files = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"error: no BENCH_*.json under {fresh_dir}", file=sys.stderr)
        return 2

    failures = []
    for fresh_path in fresh_files:
        name = fresh_path.stem.removeprefix("BENCH_")
        fresh = load(fresh_path)
        if "metrics" in fresh:  # a perfbench contract result
            failures += perfbench_failures(name, fresh,
                                           base_dir / fresh_path.name,
                                           args.threshold)
            continue
        if fresh.get("label"):
            print(f"-- {name}: labeled snapshot, skipped")
            continue
        if fresh.get("sanitizer"):
            print(f"-- {name}: {fresh['sanitizer']}-sanitized build, "
                  f"skipped (sanitizer timings are not perf data)")
            continue
        if fresh.get("failpoints"):
            print(f"-- {name}: recorded under AGL_FAILPOINTS="
                  f"'{fresh['failpoints']}', skipped (fault-injected "
                  f"timings are not perf data)")
            continue
        # A crashed bench fails regardless of whether it is gated yet.
        if fresh.get("exit_code", 0) != 0:
            msg = f"{name}: fresh run exited {fresh['exit_code']}"
            if allowed(name):
                print(f"!! {msg} (allowlisted, warning only)")
            else:
                failures.append(msg)
            continue
        base_path = base_dir / fresh_path.name
        if not base_path.exists() or is_unusable_baseline(base_path):
            print(f"-- {name}: no committed baseline (new benchmark?) — "
                  f"passing; commit {base_path} to start gating it")
            continue
        base = load(base_path)

        fresh_entries, kind = extract_entries(fresh, args.min_seconds)
        base_entries, _ = extract_entries(base, args.min_seconds)
        shared = sorted(set(fresh_entries) & set(base_entries))
        ratios = []
        worst = None
        for entry in shared:
            if base_entries[entry] <= 0:
                continue
            ratio = fresh_entries[entry] / base_entries[entry]
            if allowed(entry):
                print(f"   {name}/{entry}: x{ratio:.3f} (allowlisted entry)")
                continue
            ratios.append(ratio)
            if worst is None or ratio > worst[1]:
                worst = (entry, ratio)
        if not ratios:
            print(f"-- {name}: no comparable entries, skipped")
            continue
        median = statistics.median(ratios)
        verdict = "OK" if median <= args.threshold else "REGRESSION"
        print(f"{'ok' if verdict == 'OK' else '!!'} {name} [{kind}]: "
              f"median x{median:.3f} over {len(ratios)} entries "
              f"(worst {worst[0]} x{worst[1]:.3f}) -> {verdict}")
        if verdict != "OK":
            msg = (f"{name}: median slowdown x{median:.3f} "
                   f"> x{args.threshold:.2f}")
            if allowed(name):
                print(f"!! {msg} (allowlisted, warning only)")
            else:
                failures.append(msg)

    if failures:
        print("\nperf-regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        print("  (intentional? refresh the baseline as this script's "
              "docstring says and commit)",
              file=sys.stderr)
        return 1
    print("\nperf-regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
