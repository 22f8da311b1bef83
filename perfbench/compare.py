#!/usr/bin/env python3
"""Compare two perfbench reports of the same workload and seed.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Reports are the files run.py saves under .bench_build/reports/ (and the
recorded ones under perfbench/baseline/). The cross-host contract:

* simulated counts (decisions by kind, events, net recomputes, rows) must
  be equal on every host and build;
* simulated values (energy, makespan, waits, STP error) and artefact
  digests must be equal when the build matches (cpu, SIMD ISA, build type,
  compiler); across builds values must agree to a relative 1e-9 and
  digests are not compared;
* host metrics (wall clock, memory) are printed as deltas only when the
  host matches, and never fail a comparison: one run is not a median.

Exits 1 when the reports disagree, 0 otherwise.
"""

import json
import sys

BUILD_KEYS = ("cpu", "simd_isa", "build_type", "compiler")
HOST_KEYS = BUILD_KEYS + ("nproc", "pool")
HOST_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
CROSS_BUILD_RTOL = 1e-9


def compare(base, new):
    """Returns (problems, notes) for `new` checked against `base`."""
    problems, notes = [], []
    if base.get("workload") != new.get("workload") or \
            base.get("seed") != new.get("seed"):
        return ["reports are of different workloads or seeds"], notes

    bc, nc = base.get("counts", {}), new.get("counts", {})
    for k in sorted(bc):
        if nc.get(k) != bc[k]:
            problems.append(f"count {k}: {bc[k]} -> {nc.get(k)}")
    if not problems:
        notes.append(f"{len(bc)} simulated counts equal")

    bh, nh = base.get("host", {}), new.get("host", {})
    same_build = all(bh.get(k) == nh.get(k) for k in BUILD_KEYS)
    bs, ns = base.get("sim", {}), new.get("sim", {})
    for k in sorted(bs):
        a, b = bs[k], ns.get(k)
        if b is None:
            problems.append(f"sim {k} missing")
        elif same_build and a != b:
            problems.append(f"sim {k}: {a!r} -> {b!r}")
        elif abs(a - b) > CROSS_BUILD_RTOL * max(abs(a), abs(b)):
            problems.append(f"sim {k}: {a!r} -> {b!r} (beyond 1e-9)")
    if same_build:
        bd, nd = base.get("digests", {}), new.get("digests", {})
        for k in sorted(bd):
            if nd.get(k) != bd[k]:
                problems.append(f"digest {k}: {bd[k]} -> {nd.get(k)}")
    else:
        notes.append("different build: sim values compared to 1e-9, "
                     "digests skipped")

    if all(bh.get(k) == nh.get(k) for k in HOST_KEYS):
        be, ne = base.get("end_to_end", {}), new.get("end_to_end", {})
        for k in HOST_METRICS:
            if k in be and k in ne and be[k]["value"]:
                d = ne[k]["value"] / be[k]["value"] - 1.0
                notes.append(f"{k} {d:+.1%} vs baseline (one run, not gated)")
    else:
        notes.append("different host: host metrics not compared")
    return problems, notes


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    problems, notes = compare(base, new)
    for n in notes:
        print(f"note: {n}")
    for p in problems:
        print(f"MISMATCH: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
