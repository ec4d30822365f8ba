"""End-to-end acceptance gate.

Each test checks one shipping criterion at its stated tolerance and prints
a single PASS line on success (visible with pytest -s or in the captured
output); a failed assertion is the FAIL signal.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
from itertools import accumulate

import fibonomial
import fibonomial.conjecture as conjecture
from fibonomial.conjecture import find_counterexample, verify_conjecture
from fibonomial.core import fib, fib_mod, fibonomial_mod
from fibonomial.render import RenderSpec, render
from fibonomial.valuation import Relation, carry_valuation, entry_point, is_prime

from oracles import fib_seq, fibotorial_seq, naive_fibonomial, nu

GOLDENS = pathlib.Path(__file__).parent / "goldens"
# CLI subprocesses import the package under test, whether or not PYTHONPATH
# names it.
CLI_ENV = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(fibonomial.__file__).resolve().parents[1])}


def _pass(label, detail):
    print(f"PASS {label}: {detail}")


def test_acceptance_1_worked_valuation_via_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fibonomial", "valuation", "57", "26",
         "--prime", "7"],
        capture_output=True, text=True, env=CLI_ENV)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _pass("1", f"valuation 57 26 --prime 7 printed 2 in {elapsed:.2f}s")


def test_acceptance_2_figure_goldens_byte_exact():
    specs = {
        "pascal_8": RenderSpec(rows=8, kind="binomial"),
        "pascal_mod2_8": RenderSpec(rows=8, kind="binomial", modulus=2),
        "fibonomial_8": RenderSpec(rows=8, kind="fibonomial"),
        "fibonomial_mod2_9": RenderSpec(rows=9, kind="fibonomial", modulus=2),
        "fibonomial_mod5_10": RenderSpec(rows=10, kind="fibonomial", modulus=5),
    }
    for name, spec in specs.items():
        golden = (GOLDENS / f"{name}.txt").read_bytes()
        assert render(spec).encode("ascii") == golden, name
    art = render(specs["fibonomial_8"]).splitlines()
    assert art[-1].split() == "1 13 104 260 260 104 13 1".split()
    art5 = render(specs["fibonomial_mod5_10"]).splitlines()
    assert art5[5].split() == "1 0 0 0 0 1".split()
    _pass("2", "all five triangle renders are byte-identical to their goldens")


def test_acceptance_3_five_hundred_row_sweeps():
    start = time.perf_counter()
    for p in (7, 23, 43, 67, 83):
        record = verify_conjecture(entry_point(p), 500, jobs=1)
        assert json.loads(record.jsonl_lines()[0]) == {"p": p, "rows": 500, "method": "carry"}
        assert record.counterexamples == (), (p, record.counterexamples[:3])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass("3", f"500-row sweeps for p in (7, 23, 43, 67, 83) found nothing "
               f"in {elapsed:.1f}s")


def test_acceptance_4_witness_for_every_low_entry_prime():
    expected_subset = {11, 13, 17, 19, 29, 31, 41, 61}
    hit = set()
    for p in range(2, 200):
        if not is_prime(p):
            continue
        profile = entry_point(p)
        if profile.relation is not Relation.LESS:
            continue
        n, k, verdict = find_counterexample(profile)
        assert (n, k) == (profile.p_star ** 2, profile.p_star)
        assert verdict.lhs_divisible is False
        assert verdict.rhs_divisible is True
        assert verdict.agrees is False
        hit.add(p)
    assert expected_subset <= hit
    _pass("4", f"witness (z*z, z) disagrees for all {len(hit)} primes below "
               f"200 with entry point below the prime")


def test_acceptance_5_carry_equals_oracle_dense():
    start = time.perf_counter()
    ft = fibotorial_seq(150)
    mismatches = 0
    checked = 0
    for p in (3, 5, 7, 11, 13):
        profile = entry_point(p)
        for n in range(151):
            for k in range(n + 1):
                coeff = ft[n] // (ft[k] * ft[n - k])
                want = nu(coeff, p)
                got = carry_valuation(k, n - k, profile).exponent
                mismatches += got != want
                checked += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _pass("5", f"carry valuation matched the big-integer oracle on {checked} "
               f"coefficient/prime pairs in {elapsed:.1f}s")


def test_acceptance_6_nu5_identity_dense():
    ft = fibotorial_seq(150)
    for n in range(151):
        for k in range(n + 1):
            fib_side = nu(ft[n] // (ft[k] * ft[n - k]), 5)
            bin_side = nu(math.comb(n, k), 5)
            assert fib_side == bin_side, (n, k)
    _pass("6", "5-adic valuations of fibonomial and binomial coefficients "
               "agree for all n <= 150")


def test_acceptance_7_lemma_suite():
    # Valuation lift under an index multiplied by p.
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 61):
            k = nu(fib(n), p)
            if k > 0:
                assert nu(fib(n * p), p) == k + 1
    # No lift when the index is multiplied by the coprime entry point.
    for p in (3, 7, 11, 13, 17):
        z = entry_point(p).p_star
        assert nu(fib(z * z), p) == nu(fib(z), p)
    # Divisibility law through the entry point.
    for p in (2, 3, 5, 7, 11, 13, 17):
        z = entry_point(p).p_star
        for n in range(1, 501):
            assert (fib_mod(n, p) == 0) == (n % z == 0)
    # Factor-3 shift of the Fibonacci residues mod 5.
    for n in range(1, 1001):
        assert fib_mod(n + 5, 5) == 3 * fib_mod(n, 5) % 5
    # Row shift mod 5 for the first five columns, on exact coefficients.
    ft = fibotorial_seq(205)
    for n in range(201):
        for k in range(min(n, 4) + 1):
            lhs = naive_fibonomial(n + 5, k, ft) % 5
            assert lhs == 3 ** k * naive_fibonomial(n, k, ft) % 5, (n, k)
    _pass("7", "valuation lift, entry-point square, divisibility law, "
               "factor-3 shift, and row shift all hold on their ranges")


def test_acceptance_8_self_similarity_and_period():
    # The triangle mod 2 repeats with period 3 * 2**m in the row index:
    # C(n + 3 * 2**m, k)_F = C(n, k)_F (mod 2) for n, k < 3 * 2**m.
    for m in range(5):
        period = 3 * 2 ** m
        for n in range(period):
            for k in range(period):
                assert (fibonomial_mod(n + period, k, 2)
                        == fibonomial_mod(n, k, 2)), (m, n, k)
    # Divisibility by 5 from exact valuations; the zero coefficient (k > n)
    # counts as divisible.
    s5 = [0, *accumulate(nu(x, 5) for x in fib_seq(5 ** 4))]

    def div5(n, k):
        return k > n or s5[n] - s5[k] - s5[n - k] >= 1

    for m in range(4):
        block = 5 ** m
        for n in range(block):
            for k in range(block):
                for i in range(5):
                    for j in range(i + 1):
                        assert div5(n + i * block, k + j * block) == div5(n, k), \
                            (m, n, k, i, j)
    _pass("8", "mod-2 periodicity (m <= 4) and mod-5 self-similarity "
               "(m <= 3, dense) hold everywhere")


def test_acceptance_9_parallel_determinism(tmp_path):
    # The shortest sweep at p = 7 whose --jobs 8 plan starts a real pool.
    rows = 49993
    assert len(conjecture._row_chunks(rows, 8, 8)) >= 2
    files = []
    for jobs in (1, 8):
        out = tmp_path / f"sweep_jobs{jobs}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "fibonomial", "verify", "--prime", "7",
             "--rows", str(rows), "--jobs", str(jobs), "--out", str(out)],
            capture_output=True, text=True, env=CLI_ENV)
        assert proc.returncode == 0, proc.stderr
        files.append(out.read_bytes())
    assert files[0] == files[1]
    header = json.loads(files[0].decode().splitlines()[0])
    assert header == {"p": 7, "rows": rows, "method": "carry"}
    _pass("9", "verify --jobs 1 and --jobs 8 wrote byte-identical JSONL")
