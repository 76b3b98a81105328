#!/usr/bin/env python3
"""Self-test of the CI perf gate's perfbench extractor.

Runs scripts/check_bench_regression.py on synthetic fresh and baseline
directories of BENCH_perfbench_<workload>.json results and checks its exit
code: a gated metric 1.6x worse fails, an incorrect run fails, an ungated
metric 10x worse passes, identical results pass.

    python3 tests/bench_gate_test.py <repo root>
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
GATE = ROOT / "scripts" / "check_bench_regression.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["per_layer"]}
UNGATED = ["host.steal_pct", "store.evictions", "train.val_auc"]
WORKLOADS = {  # what PERFBENCH_GATED must cover, per workload
    "pipeline_procs": ["infer.evals", "infer.hit_ratio", "exchange.bytes",
                       "ps.wire_bytes", "mr.max_reduce_task_records",
                       "flat.wall_s"],
    "serve_read": ["store.hit_ratio", "serve.pass_ms"],
    "serve_mutate": ["store.hit_ratio", "serve.pass_ms"],
}


def result():
    """A correct --trace 1 result with every per-layer metric set."""
    metrics = {m["name"]: {"value": 0.5 if m["unit"] in ("ratio", "auc")
                           else 100.0, "unit": m["unit"]}
               for m in SPEC["per_layer"]}
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}


def worse(doc, metric, factor):
    doc = copy.deepcopy(doc)
    value = doc["metrics"][metric]["value"]
    doc["metrics"][metric]["value"] = (
        value / factor if BETTER[metric] == "higher" else value * factor)
    return doc


def gate(workload, fresh, base):
    with tempfile.TemporaryDirectory() as tmp:
        fresh_dir, base_dir = pathlib.Path(tmp, "fresh"), pathlib.Path(tmp, "base")
        for d, doc in ((fresh_dir, fresh), (base_dir, base)):
            d.mkdir()
            (d / f"BENCH_perfbench_{workload}.json").write_text(json.dumps(doc))
        run = subprocess.run(
            [sys.executable, str(GATE), "--baseline", str(base_dir),
             "--fresh", str(fresh_dir)], capture_output=True, text=True)
        return run.returncode, run.stdout + run.stderr


def main():
    base = result()
    cases = []
    for workload, gated in WORKLOADS.items():
        cases.append((workload, "identical", base, 0))
        for metric in gated:
            cases.append((workload, f"{metric} x1.6", worse(base, metric, 1.6), 1))
        for metric in UNGATED:
            cases.append((workload, f"ungated {metric} x10",
                          worse(base, metric, 10), 0))
        incorrect = copy.deepcopy(base)
        incorrect["correct"] = False
        cases.append((workload, "correct: false", incorrect, 1))
    failed = 0
    for workload, what, fresh, want in cases:
        code, out = gate(workload, fresh, base)
        if code != want:
            failed += 1
            print(f"FAIL {workload}, {what}: exit {code}, want {want}\n{out}")
        else:
            print(f"ok   {workload}, {what}: exit {code}")
    print(f"{len(cases) - failed}/{len(cases)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
