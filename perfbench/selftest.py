"""Self-tests of the benchmark; not part of the package's test suite.

    python3 perfbench/selftest.py        (from the checkout root)

They check that inputs depend only on the seed, that metric names and
units are well formed and match BENCHMARK.json, that the independent
oracle agrees with brute force, that an injected wrong answer is counted
as failed, and that a tiny run of every workload completes.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args: str) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                         capture_output=True, text=True, cwd=ROOT, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {out.returncode}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for w in run.WORKLOADS:
            a = [(o.cls, o.argv) for o in inputs.workload_ops(w, 7, 2)]
            b = [(o.cls, o.argv) for o in inputs.workload_ops(w, 7, 2)]
            c = [(o.cls, o.argv) for o in inputs.workload_ops(w, 8, 2)]
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)

    def test_blocks_keep_their_mix(self):
        ops = inputs.query_ops(3, 2)
        for cls, count in inputs.QUERY_BLOCK.items():
            self.assertEqual(sum(o.cls == cls for o in ops), 2 * inputs.QUERY_ROUND * count)


class Metrics(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def test_names_and_units(self):
        for group in ("end_to_end", "per_layer"):
            names = [m["name"] for m in self.spec[group]]
            self.assertEqual(len(names), len(set(names)))
            for m in self.spec[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))

    def test_per_layer_units_match_the_harness(self):
        for m in self.spec["per_layer"]:
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])


class Oracle(unittest.TestCase):
    def test_entry_point_matches_a_walk(self):
        for p in range(2, 400):
            if not oracle.is_prime(p):
                continue
            a, b, z = 1, 1, 1
            while a % p:
                a, b, z = b, a + b, z + 1
            self.assertEqual(oracle.entry_point(p)[0], z, p)

    def test_rows_mod_match_exact_rows(self):
        exact = oracle.fibonomial_rows_exact(40)
        for m in (2, 5, 12, 1000003):
            self.assertEqual(oracle.fibonomial_rows_mod(40, m),
                             [[v % m for v in row] for row in exact])
        self.assertEqual(exact[30][12], oracle.fibonomial(30, 12))
        self.assertEqual(oracle.binomial_rows_mod(30, None)[29][11], math.comb(29, 11))

    def test_valuation_from_exact_integers(self):
        v = oracle.fibonomial(57, 26)
        self.assertEqual(oracle.fibonomial_valuation(57, 26, 7), oracle.nu(v, 7))

    def test_no_counterexample_when_entry_point_is_not_below_p(self):
        # The answer every sweep is checked against: for z >= p the
        # divisibility biconditional holds at every pair.
        for p in (3, 5, 7, 23):
            z = oracle.entry_point(p)[0]
            for n in range(60):
                for k in range(n + 1):
                    self.assertEqual(oracle.fibonomial_valuation(n, k, p) >= 1,
                                     oracle.digit_product_divisible(n, k, p, z), (p, n, k))


class SweepChecks(unittest.TestCase):
    def setUp(self):
        self.op = inputs.sweep_ops(5, 1, jobs=1)[0]
        p, rows = self.op.params["p"], self.op.params["rows"]
        self.stdout = f"p={p} rows={rows} method=carry counterexamples=0 seconds=1.00\n"
        self.out = (json.dumps({"p": p, "rows": rows, "method": "carry"}) + "\n"
                    + json.dumps({"counterexamples": 0, "seconds": None}) + "\n")

    def check(self, pairs, chunks):
        traced = {"pairs": pairs, "chunks": chunks}
        return checks.check_sweep(self.op, 0, self.stdout, self.out, traced)

    def test_a_sweep_that_skips_work_fails(self):
        rows = self.op.params["rows"]
        self.assertEqual(self.check(self.op.work, [[0, rows]]), "ok")
        self.assertEqual(self.check(self.op.work - 1, [[0, rows]]), "fail")
        self.assertEqual(self.check(self.op.work, [[0, rows - 1]]), "fail")
        self.assertEqual(self.check(self.op.work, [[0, 10], [11, rows]]), "fail")


class EndToEnd(unittest.TestCase):
    def test_injected_fault_is_counted(self):
        for w in ("triangle", "sweep", "queries"):
            out = bench("--workload", w, "--seed", "1", "--ops", "4", "--inject-fault")
            self.assertFalse(out["correct"], w)
            self.assertGreater(out["failed"], 0, w)

    def test_tiny_run_of_every_workload(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for w in run.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                out = bench("--workload", w, "--seed", "2", "--ops", "3", "--trace", str(trace))
                self.assertTrue(out["correct"], (w, trace))
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 3)
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(got, want, (w, trace))


if __name__ == "__main__":
    unittest.main()
