#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the harness and the
ntw_serve daemon from the checkout's sources into .bench_build/ (the first
run compiles everything), runs the workload, and prints the harness's
info line followed, as the last line, by the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1. A per-layer metric of a
layer the workload never calls is reported as 0 and listed under
"not_exercised" on the info line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-state")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources:" + digest.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench",
              "ntw_serve_bin"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)))
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no repository sources at %s; nothing to benchmark" % ROOT)
        return 2
    if not build():
        return 1

    os.makedirs(STATE_DIR, exist_ok=True)
    command = [
        os.path.join(BUILD_DIR, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--work-dir", os.path.join(ROOT, ".bench_build", "perfbench-work"),
        "--state-dir", STATE_DIR,
        "--serve-bin", os.path.join(BUILD_DIR, "ntw_serve"),
        "--source-id", source_id(),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the harness did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        log("the harness failed (exit %d)" % run.returncode)
        return 1
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])

    # The reported metrics must be exactly the declared ones, units included.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    for name, metric in metrics.items():
        match = [d for d in declared if d["name"] == name]
        if not match or match[0]["unit"] != metric["unit"]:
            log("undeclared metric or unit: %s [%s]" % (name, metric["unit"]))
            return 1
    missing = [d for d in declared if d["name"] not in metrics]
    if missing and not args.trace:
        log("missing end-to-end metrics: " + ", ".join(d["name"] for d in missing))
        return 1
    ordered = {}
    for d in declared:
        ordered[d["name"]] = metrics.get(d["name"], {"value": 0, "unit": d["unit"]})
    result["metrics"] = ordered
    info["perfbench_info"]["not_exercised"] = [d["name"] for d in missing]

    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
