#!/usr/bin/env bash
# Runs the paper's table/figure benchmark drivers and records one
# BENCH_<name>.json per bench (wall time, exit code, captured output) so
# the perf trajectory is machine-readable across PRs.
#
# Usage:
#   scripts/run_benchmarks.sh [bench ...]
#
# With no arguments, runs the default table/figure set. Environment:
#   BUILD_DIR    build tree to use (default: build; configured+built if missing)
#   OUT_DIR      where BENCH_*.json land (default: bench-fresh). The
#                committed CI baselines live in bench-results; refreshing
#                one takes an explicit OUT_DIR=bench-results
#   BENCH_LABEL  optional tag (e.g. "scalar-baseline"): suffixes the output
#                file name and is recorded in the JSON, so before/after
#                pairs of the same bench can sit side by side in OUT_DIR
#   BENCH_EXTRA_ARGS  optional extra argv passed to every requested bench
#                (e.g. "--benchmark_repetitions=5" for google-benchmark
#                drivers on noisy hosts — then read the *_min rows)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
out_dir="${OUT_DIR:-$repo_root/bench-fresh}"

default_benches=(
  bench_table2_datasets
  bench_table3_effectiveness
  bench_table4_efficiency
  bench_table5_inference
  bench_analytics
  bench_fig7_convergence
  bench_fig8_speedup
  bench_trainer_ssp
  bench_graphflat_scale
  bench_kernels
)

benches=("${@:-${default_benches[@]}}")

# Configure once if needed, then an incremental build (a no-op when the
# tree is current). Benches gated on optional deps stay absent and are
# skipped below rather than retriggering configure every run.
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  echo "== configuring $build_dir"
  cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" -j"$(nproc)"

# Record which sanitizer (if any) the build tree was configured with:
# check_bench_regression.py refuses sanitizer-built numbers (a TSan binary
# is 5-20x slower; its timings must never become, or be judged against, a
# perf baseline).
sanitizer="$(sed -n 's/^AGL_SANITIZE:[^=]*=//p' "$build_dir/CMakeCache.txt" |
             head -n1)"
case "${sanitizer:-OFF}" in
  OFF|"") sanitizer="" ;;
esac
if [[ -n "$sanitizer" ]]; then
  echo "== note: $build_dir is an AGL_SANITIZE=$sanitizer build;" \
       "results will be marked and excluded from regression gating"
fi

# Same treatment for fault injection: with AGL_FAILPOINTS armed the benches
# measure the retry/recovery machinery, not the steady-state path, so the
# spec is recorded and the gate skips these results on both sides.
failpoints="${AGL_FAILPOINTS:-}"
if [[ -n "$failpoints" ]]; then
  echo "== note: AGL_FAILPOINTS is set ('$failpoints');" \
       "results will be marked and excluded from regression gating"
fi

mkdir -p "$out_dir"

ran=0
for bench in "${benches[@]}"; do
  exe="$build_dir/bench/$bench"
  if [[ ! -x "$exe" ]]; then
    echo "== skipping $bench (not built; optional dependency missing?)"
    continue
  fi
  echo "== running $bench"
  out_file="$(mktemp)"
  start_ns=$(date +%s%N)
  rc=0
  # shellcheck disable=SC2086 — BENCH_EXTRA_ARGS is intentionally split.
  "$exe" ${BENCH_EXTRA_ARGS:-} >"$out_file" 2>&1 || rc=$?
  end_ns=$(date +%s%N)

  git_rev="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
  out_name="BENCH_${bench#bench_}${BENCH_LABEL:+_$BENCH_LABEL}.json"
  BENCH_NAME="$bench" BENCH_RC="$rc" BENCH_NS="$((end_ns - start_ns))" \
  BENCH_OUT="$out_file" BENCH_GIT_REV="$git_rev" \
  BENCH_LABEL="${BENCH_LABEL:-}" BENCH_SANITIZER="$sanitizer" \
  BENCH_FAILPOINTS="$failpoints" \
  python3 - >"$out_dir/$out_name" <<'PY'
import json, os, subprocess, sys

with open(os.environ["BENCH_OUT"]) as f:
    lines = f.read().splitlines()

git_rev = os.environ["BENCH_GIT_REV"]

json.dump(
    {
        "bench": os.environ["BENCH_NAME"],
        "label": os.environ.get("BENCH_LABEL") or None,
        "sanitizer": os.environ.get("BENCH_SANITIZER") or None,
        "failpoints": os.environ.get("BENCH_FAILPOINTS") or None,
        "git_rev": git_rev,
        "utc": subprocess.check_output(
            ["date", "-u", "+%Y-%m-%dT%H:%M:%SZ"], text=True).strip(),
        "exit_code": int(os.environ["BENCH_RC"]),
        "wall_seconds": int(os.environ["BENCH_NS"]) / 1e9,
        "output": lines,
    },
    sys.stdout,
    indent=2,
)
PY
  rm -f "$out_file"
  ran=$((ran + 1))
  echo "   -> $out_dir/$out_name (rc=$rc)"
done

if [[ "$ran" -eq 0 ]]; then
  echo "== error: none of the requested benches exist" >&2
  exit 1
fi
echo "== done: $ran result file(s) written to $out_dir"
