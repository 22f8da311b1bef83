#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root: python3 perfbench/test_perfbench.py

* Decorator parity: on each workload the traced run (timing decorators,
  and for serve the self-assembled SubmitQueue + StreamDispatcher +
  ClusterEngine) reports the same simulated counts, values and digests as
  the untraced run through the public entry points (ServeDaemon::run_trace
  for serve). Inside one traced run the harness also checks every traced
  pass against the untraced pass that follows it.
* The comparer applies the cross-host contract described in compare.py.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source tree clean
import compare  # noqa: E402

REPORTS = os.path.join(ROOT, ".bench_build", "reports")


def run(workload, trace):
    """One short run through run.py; returns (contract line, full report)."""
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    line = json.loads(res.stdout.strip().splitlines()[-1])
    with open(os.path.join(REPORTS,
                           f"{workload}-seeddefault-trace{trace}.json")) as f:
        return line, json.load(f)


class TracedMatchesUntraced(unittest.TestCase):
    def check(self, workload):
        line0, untraced = run(workload, 0)
        line1, traced = run(workload, 1)
        self.assertTrue(line0["correct"], untraced.get("errors"))
        self.assertTrue(line1["correct"], traced.get("errors"))
        self.assertEqual(line0["failed"], 0)
        self.assertEqual(line1["failed"], 0)
        problems, _ = compare.compare(untraced, traced)
        self.assertEqual(problems, [])
        return traced

    def test_serve_r1024(self):
        traced = self.check("serve_r1024")
        self.assertEqual(traced["counts"]["decisions"], 100000)
        self.assertGreater(traced["per_layer"]["serve.retune_calls"]["value"],
                           0)

    def test_serve_burst16(self):
        traced = self.check("serve_burst16")
        self.assertGreater(traced["counts"]["pairs"], 0)
        self.assertGreater(traced["counts"]["deadline_placements"], 0)
        self.assertGreater(traced["sim"]["p99_wait_s"], 0)

    def test_policy_r1024(self):
        self.check("policy_r1024")

    def test_train_sweep(self):
        self.check("train_sweep")


class CompareContract(unittest.TestCase):
    BASE = {
        "workload": "w", "seed": 1,
        "host": {"cpu": "a", "simd_isa": "avx2", "build_type": "Release",
                 "compiler": "GNU 12", "nproc": 4, "pool": 4},
        "counts": {"events": 10}, "sim": {"energy_dyn_j": 1.0},
        "digests": {"db": "ab"}, "end_to_end": {},
    }

    def test_equal_reports_agree(self):
        self.assertEqual(compare.compare(self.BASE, self.BASE)[0], [])

    def test_count_mismatch_fails_even_across_hosts(self):
        new = copy.deepcopy(self.BASE)
        new["host"]["simd_isa"] = "sse2"
        new["counts"]["events"] = 11
        self.assertEqual(len(compare.compare(self.BASE, new)[0]), 1)

    def test_other_isa_bands_values_and_skips_digests(self):
        new = copy.deepcopy(self.BASE)
        new["host"]["simd_isa"] = "sse2"
        new["sim"]["energy_dyn_j"] = 1.0 + 1e-12
        new["digests"]["db"] = "cd"
        self.assertEqual(compare.compare(self.BASE, new)[0], [])
        new["sim"]["energy_dyn_j"] = 1.0 + 1e-6
        self.assertEqual(len(compare.compare(self.BASE, new)[0]), 1)

    def test_same_build_values_are_exact(self):
        new = copy.deepcopy(self.BASE)
        new["sim"]["energy_dyn_j"] = 1.0 + 1e-12
        self.assertEqual(len(compare.compare(self.BASE, new)[0]), 1)


if __name__ == "__main__":
    unittest.main()
