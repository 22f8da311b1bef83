#!/usr/bin/env python3
"""Repository benchmark for ECoST: build the harness, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench (the C++ harness in this directory, which compiles the
library from ../src) into .bench_build/, runs the workload for about S
seconds, prints the harness's summary and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics (a
layer the workload does not exercise reads 0). The full report, with the
host block, exact simulated counts and digests, is saved under
.bench_build/reports/; on a workload's default seed its counts are
cross-checked against perfbench/baseline/ (see compare.py).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REPORTS = os.path.join(ROOT, ".bench_build", "reports")
WORKLOADS = ("train_sweep", "policy_r1024", "serve_r1024", "serve_burst16")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150

sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source tree clean
import compare  # noqa: E402


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds the harness; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the library sources (src/) are not in this checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                 stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if res.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def contract_metrics(report, trace, spec, errors):
    """The metrics BENCHMARK.json names for this mode, checked."""
    group = "per_layer" if trace else "end_to_end"
    measured = report.get(group, {})
    out = {}
    for m in spec[group]:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None and trace:
            got = {"value": 0.0, "unit": unit}  # layer not exercised
        if got is None:
            errors.append(f"metric {name} was not measured")
            continue
        value = got["value"]
        if got["unit"] != unit:
            errors.append(f"metric {name} has unit {got['unit']}, not {unit}")
        if value is None or not math.isfinite(value):
            errors.append(f"metric {name} is not finite")
            continue
        if not trace and value == 0:
            errors.append(f"metric {name} is zero")
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        log("perfbench: BENCHMARK.json is missing")
        return 2
    with open(bench_json) as f:
        spec = json.load(f)
    if not build():
        return 1

    os.makedirs(REPORTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed if args.seed is not None else 'default'}-trace{args.trace}"
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(REPORTS, tag + ".trace.json")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log("perfbench: the harness timed out")
        return 1
    lines = res.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(res.stdout)
        log(f"perfbench: the harness exited {res.returncode} without a report")
        return 1
    for line in lines[:-1]:
        print(line)
    with open(os.path.join(REPORTS, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    errors = list(report.get("errors", []))
    metrics = contract_metrics(report, args.trace, spec, errors)
    baseline = os.path.join(HERE, "baseline", args.workload + ".json")
    if os.path.isfile(baseline):
        with open(baseline) as f:
            base = json.load(f)
        if base.get("seed") == report.get("seed"):
            problems, notes = compare.compare(base, report)
            for n in notes:
                print(f"  crosscheck: {n}")
            for p in problems:
                print(f"  crosscheck MISMATCH vs baseline: {p}")
    for e in errors:
        print(f"  ERROR: {e}")

    correct = not errors and report.get("correct") is True
    print(json.dumps({"correct": correct,
                      "attempted": int(report.get("attempted", 0)),
                      "failed": int(report.get("failed", 0)),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
