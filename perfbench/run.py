#!/usr/bin/env python3
"""Builds the AGL benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (a CMake project that compiles the repository's src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Every file the run writes stays under that directory.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric BENCHMARK.json names (--trace 0) or every
per-layer metric (--trace 1). A per-layer metric of a layer the workload
does not exercise reads 0; perfbench/METRICS.md says which layers each
workload exercises. Any other failure exits non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("pipeline", "pipeline_procs", "serve_read", "serve_mutate")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(root, build_dir, env):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: no src/ in this checkout; nothing to build")
        return None
    binary = os.path.join(build_dir, "agl_perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "agl_perfbench",
           "--parallel", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return binary


def run(binary, args, work_dir, env):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    # Its own session, so a timeout can stop the worker processes too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run timed out")
        return None
    if proc.returncode != 0:
        log(f"perfbench: agl_perfbench exited {proc.returncode}")
        return None
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    binary = build(root, build_dir, env)
    if binary is None:
        return 1
    print("# stamp " + json.dumps({
        "git_rev": git_rev(root), "src_digest": source_digest(root),
        "nproc": os.cpu_count(), "workload": args.workload,
        "seed": args.seed, "trace": args.trace}))
    result = run(binary, args,
                 os.path.join(build_dir, "work", args.workload), env)
    if result is None:
        return 1

    measured = result["metrics"]
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - declared)
    if unknown:
        log(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
        return 1
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                log(f"perfbench: end-to-end metric {m['name']} not measured")
                return 1
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"perfbench: {m['name']} unit {got['unit']} != {m['unit']}")
            return 1
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
