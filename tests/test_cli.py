import concurrent.futures
import contextlib
import faulthandler
import inspect
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from math import isqrt

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import fibonomial.cli as cli
import fibonomial.conjecture as conjecture
from fibonomial.cli import build_parser, main
from fibonomial.core import fibonomial
from fibonomial.render import RenderSpec, render
from fibonomial.valuation import (
    ENTRY_POINT_LIMIT,
    PRIME_TEST_LIMIT,
    carry_valuation,
    entry_point,
    is_prime,
)

from oracles import fib_mod_matrix, fib_seq, fibonomial_short, naive_fibonomial, nu

SRC = os.path.dirname(os.path.dirname(os.path.abspath(inspect.getfile(main))))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fib_query(capsys):
    code, out, _ = run(capsys, "fib", "10")
    assert code == 0 and out.strip() == "55"
    code, out, _ = run(capsys, "fib", "10", "--mod", "11")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "fib", "10", "--json")
    assert json.loads(out) == {"n": 10, "mod": None, "value": 55}


def test_fib_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "fib", "0")
    assert code == 2 and "error:" in err


def test_fibonomial_query(capsys):
    code, out, _ = run(capsys, "fibonomial", "6", "3")
    assert code == 0 and out.strip() == "60"
    code, out, _ = run(capsys, "fibonomial", "9", "4", "--mod", "5")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "fibonomial", "3", "8", "--mod", "5")
    assert code == 0 and out.strip() == "0"
    for argv in ("5 -1 --mod 5", "7 -2 --mod 1000", "-1 0 --mod 5", "-1 0"):
        code, out, err = run(capsys, "fibonomial", *argv.split())
        assert code == 2 and out == "" and "must be >= 0" in err
    for argv in ("3 8 --mod 0", "3 8 --mod 1", "3 8 --mod -4"):
        code, out, err = run(capsys, "fibonomial", *argv.split())
        assert code == 2 and out == "" and "modulus must be >= 2" in err
    code, out, _ = run(capsys, "fibonomial", "57", "26", "--json")
    payload = json.loads(out)
    assert payload["value"] == fibonomial(57, 26)


def test_exact_cap_is_enforced_and_adjustable(capsys):
    code, _, err = run(capsys, "fibonomial", "1500", "2")
    assert code == 2 and "cap" in err
    code, out, _ = run(capsys, "fibonomial", "1500", "2", "--mod", "7")
    assert code == 0
    code, out, _ = run(capsys, "fib", "1200", "--cap", "2000")
    assert code == 0


def test_coefficient_mod_m_window_is_bounded(capsys, monkeypatch):
    # A window of j = min(k, n - k) ratios above the bound is refused before
    # any of them is taken, naming j and the bound; j at the bound answers.
    monkeypatch.setattr(cli, "MAX_MOD_WINDOW", 5)
    for k in (6, 14):
        with monkeypatch.context() as patched:
            patched.setattr(cli, "fibonomial_mod", None)
            code, out, err = run(capsys, "fibonomial", "20", str(k), "--mod", "7")
        assert (code, out) == (2, "") and err == (
            "error: fibonomial coefficient mod m at j=min(k, n-k)=6 exceeds "
            "the window bound 5\n")
    for k in (5, 15, 21):
        code, out, _ = run(capsys, "fibonomial", "20", str(k), "--mod", "7")
        assert (code, out) == (0, f"{naive_fibonomial(20, k) % 7}\n")


def test_coefficient_mod_m_window_is_weighed_by_modulus_words(capsys, monkeypatch):
    # A ratio costs more the more 30-bit words the modulus has, so at w
    # words the bound is MAX_MOD_WINDOW // (w + w*w // 64): 300 ratios at
    # one word, 100 at three (2**61 - 1), 75 at four (10**30 + 57), 1 at 100
    # (2**2990 + 1, weight 100 + 156) and 0 at 443 (a 4,000-digit modulus).
    # Refused windows name their own bound and start no ratio.
    monkeypatch.setattr(cli, "MAX_MOD_WINDOW", 300)
    for m, bound in ((2 ** 30 - 35, 300), (2 ** 61 - 1, 100), (10 ** 30 + 57, 75),
                     (2 ** 2990 + 1, 1), (10 ** 4000 + 7, 0)):
        with monkeypatch.context() as patched:
            patched.setattr(cli, "fibonomial_mod", None)
            code, out, err = run(capsys, "fibonomial", "1000", str(bound + 1), "--mod", str(m))
        assert (code, out) == (2, "") and err == (
            f"error: fibonomial coefficient mod m at j=min(k, n-k)={bound + 1} exceeds "
            f"the window bound {bound}\n")
        code, out, _ = run(capsys, "fibonomial", "40", str(min(bound, 40)), "--mod", str(m))
        assert (code, out) == (0, f"{naive_fibonomial(40, min(bound, 40)) % m}\n")


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_fibonomial_mod_band_matches_exact(data):
    # The windowed answer against the exact coefficient from its min(k, n-k)
    # Fibonacci factors, on both sides of the row.
    n = data.draw(st.integers(0, 3000))
    j = data.draw(st.integers(0, min(n // 2, 60)))
    k = data.draw(st.sampled_from([j, n - j]))
    m = data.draw(st.sampled_from([2, 4, 6, 7, 12, 64, 1000003]) | st.integers(2, 10 ** 9))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["fibonomial", str(n), str(k), "--mod", str(m)])
    assert code == 0
    assert int(out.getvalue()) == fibonomial_short(n, k) % m


@pytest.mark.parametrize("n, k", [
    (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (40, 0), (40, 1), (40, 39),
    (40, 40), (40, 41), (1000, 1), (1000, 999), (1000, 1001),
])
def test_exact_fibonomial_window_edges(capsys, n, k):
    # Empty windows (k = 0, k = n), none (k > n) and one factor a side (j = 1).
    assert run(capsys, "fibonomial", str(n), str(k)) == (0, f"{naive_fibonomial(n, k)}\n", "")


def test_exact_scalars_print_past_the_str_limit(capsys):
    # Both answers have more digits than Python's default int-to-str limit;
    # the CLI lifts it for the print and hands the caller's limit back.
    fib_30000 = fib_seq(30000)[-1]
    fibonomial_1000_500 = naive_fibonomial(1000, 500)
    before = sys.get_int_max_str_digits()
    outs = {}
    for argv in (["fib", "30000", "--cap", "100000"], ["fibonomial", "1000", "500"]):
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, *argv, *flags)
            assert code == 0, err
            assert sys.get_int_max_str_digits() == before
            outs[argv[0], bool(flags)] = out
    sys.set_int_max_str_digits(0)
    try:
        assert int(outs["fib", False]) == fib_30000
        assert json.loads(outs["fib", True])["value"] == fib_30000
        assert int(outs["fibonomial", False]) == fibonomial_1000_500
        assert json.loads(outs["fibonomial", True])["value"] == fibonomial_1000_500
        assert min(len(str(fib_30000)), len(str(fibonomial_1000_500))) > 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_out_of_range_primes_are_refused(capsys):
    p = next(n for n in range(ENTRY_POINT_LIMIT + 1, ENTRY_POINT_LIMIT + 1000) if is_prime(n))
    code, out, err = run(capsys, "entry-point", str(p))
    assert code == 2 and out == "" and str(ENTRY_POINT_LIMIT) in err
    for argv in (["entry-point", str(PRIME_TEST_LIMIT)],
                 ["expand", "5", "--base", "p", "--prime", str(PRIME_TEST_LIMIT + 2)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and str(PRIME_TEST_LIMIT) in err, argv


def test_big_entry_point_answers_in_a_fresh_process():
    done = subprocess.run(
        [sys.executable, "-m", "fibonomial", "entry-point", "999999999989"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=10)
    assert done.returncode == 0, done.stderr
    assert "p_star=499999999994" in done.stdout


def test_big_coefficients_mod_m_answer_in_a_fresh_process():
    # C(20000, 10000)_F has about 2 * 10**7 digits and the row recurrence
    # would take 2 * 10**8 cells; the window takes 10**4 steps. Its exponent
    # of 7 is summed over the window's factors, each read mod 7**12: no F_i
    # with i <= 20000 is divisible by 7**6, so the residue keeps its power.
    n, j, big = 20000, 10000, 7 ** 12
    nus, a, b = [], 1, 1
    for _ in range(n):
        nus.append(nu(a, 7))
        a, b = b, (a + b) % big
    assert sum(nus[n - j:]) - sum(nus[:j]) >= 1
    # C(n, 2)_F = F_n F_{n-1} / (F_2 F_1), at n = 10**8.
    m = 10 ** 8
    product = fib_mod_matrix(m, 6) * fib_mod_matrix(m - 1, 6) % 6
    for argv, want in ((["20000", "10000", "--mod", "7"], 0),
                       ([str(m), "2", "--mod", "6"], product)):
        done = subprocess.run(
            [sys.executable, "-m", "fibonomial", "fibonomial", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
            timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{want}\n", argv


def test_entry_point_query(capsys):
    code, out, _ = run(capsys, "entry-point", "11", "--json")
    assert code == 0
    assert json.loads(out) == {"p": 11, "p_star": 10, "nu_p_F_pstar": 1,
                               "relation": "LESS"}
    code, out, _ = run(capsys, "entry-point", "7")
    assert code == 0
    assert out.strip() == "p=7 p_star=8 nu_p_F_pstar=1 relation=GREATER"
    code, _, err = run(capsys, "entry-point", "9")
    assert code == 2


def test_valuation_query(capsys):
    code, out, _ = run(capsys, "valuation", "57", "26", "--prime", "7")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "valuation", "57", "26", "--prime", "7",
                       "--method", "oracle", "--json")
    payload = json.loads(out)
    assert payload == {"n": 57, "k": 26, "p": 7, "method": "oracle",
                       "exponent": 2}
    # p = 2 takes the closed form like every other prime.
    code, out, _ = run(capsys, "valuation", "12", "3", "--prime", "2", "--json")
    assert json.loads(out) == {"n": 12, "k": 3, "p": 2, "method": "carry", "exponent": 3}


def test_valuation_at_2_agrees_with_oracle(capsys):
    for n in range(61):
        for k in range(n + 1):
            got = [run(capsys, "valuation", str(n), str(k), "--prime", "2", *flags)
                   for flags in ([], ["--method", "oracle"])]
            assert got[0] == got[1] and got[0][0] == 0, (n, k)


def test_big_valuations_at_2_answer_in_a_fresh_process():
    # The oracle's --cap refuses n > 1,000; the closed form takes O(log n).
    done = subprocess.run(
        [sys.executable, "-m", "fibonomial", "valuation", "1000000000000",
         "500000000000", "--prime", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "19\n"


HUGE, BIG = 2**1200 + 3, str(2**1200)
EXTREME_ARGS = [
    (["fib", str(HUGE), "--mod", "7"], fib_mod_matrix(HUGE, 7)),
    (["fib", str(HUGE), "--mod", str(10**6 + 3)], fib_mod_matrix(HUGE, 10**6 + 3)),
    (["fibonomial", str(HUGE), "0", "--mod", "7"], 1),
    (["fibonomial", str(HUGE), "1", "--mod", "7"], fib_mod_matrix(HUGE, 7)),
    # C(N, 2)_F = F_N F_{N-1} / (F_2 F_1).
    (["fibonomial", str(HUGE), "2", "--mod", "7"],
     fib_mod_matrix(HUGE, 7) * fib_mod_matrix(HUGE - 1, 7) % 7),
    *((argv, None) for argv in (
        ["fib", "0"], ["fib", "-5"], ["fib", BIG], ["fib", "5", "--mod", "0"],
        ["fibonomial", "0", "0"], ["fibonomial", "-1", "2"], ["fibonomial", BIG, "1"],
        ["fibonomial", "5", "2", "--mod", "-3"],
        ["fibonomial", "2000000000000", "1000000000000", "--mod", "7"],
        *([cmd, n, k, "--prime", p]
          for cmd in ("valuation", "lucas")
          for n, k in (("0", "0"), ("-1", "0"), ("3", "-1"), (BIG, "1"),
                       (BIG, str(2**1199)))
          for p in ("7", "0", "-7", BIG, "9")),
        ["valuation", BIG, "1", "--prime", "7", "--method", "oracle"],
        *(["expand", n, "--base", base, "--prime", p]
          for base in ("p", "Fp") for n in ("0", "-1", BIG)
          for p in ("7", "0", "-7", BIG, "9")),
        *(["entry-point", p] for p in ("0", "-7", BIG, "9")),
        ["verify", "--prime", "7", "--rows", BIG])),
]


def test_extreme_arguments_answer_or_exit_2(capsys):
    # Zero, negative, 2**1200 and non-prime arguments wherever they apply,
    # and N = 2**1200 + 3 under --mod, past the default recursion limit in
    # bits: every command answers at once or exits 2 with a message. Exit 1
    # means a counterexample, so a crash must not reach it.
    failures = []
    for argv, want in EXTREME_ARGS:
        try:
            code, out, err = run(capsys, *argv)
        except Exception as exc:
            failures.append((argv, repr(exc)[:200]))
            continue
        if code not in (0, 2) or "Traceback" in err:
            failures.append((argv, code, err[-200:]))
        elif want is not None and (code, out) != (0, f"{want}\n"):
            failures.append((argv, code, out, want))
    assert failures == []


def test_valuation_errors(capsys):
    code, _, err = run(capsys, "valuation", "3", "5", "--prime", "7")
    assert code == 2 and "zero" in err
    code, _, err = run(capsys, "valuation", "10", "4", "--prime", "10")
    assert code == 2
    # Negative arguments are refused as typed, before k > n or the carry
    # operands k and n - k are formed from them.
    code, _, err = run(capsys, "valuation", "5", "-1", "--prime", "7")
    assert code == 2 and "must be >= 0, got (5, -1)" in err
    code, _, err = run(capsys, "valuation", "-3", "-5", "--prime", "7")
    assert code == 2 and "must be >= 0, got (-3, -5)" in err


def test_valuation_json_round_trip(capsys):
    code, out, _ = run(capsys, "valuation", "57", "26", "--prime", "7", "--json")
    payload = json.loads(out)
    again = carry_valuation(payload["k"], payload["n"] - payload["k"],
                            entry_point(payload["p"]))
    assert again.exponent == payload["exponent"]


def test_expand_query(capsys):
    code, out, _ = run(capsys, "expand", "109", "--base", "p", "--prime", "7")
    assert code == 0 and out.strip() == "(4 1 2)"
    code, out, _ = run(capsys, "expand", "100", "--base", "Fp", "--prime", "11",
                       "--json")
    assert json.loads(out) == {"base": "Fp", "p": 11, "pstar": 10,
                               "digits": [0, 10]}
    code, out, _ = run(capsys, "expand", "109", "--base", "p", "--prime", "7", "--json")
    assert out == '{"base": "p", "p": 7, "pstar": null, "digits": [4, 1, 2]}\n'
    code, _, err = run(capsys, "expand", "100", "--base", "q", "--prime", "11")
    assert code == 2
    for base in ("p", "Fp"):
        code, out, err = run(capsys, "expand", "100", "--base", base, "--prime", "4")
        assert code == 2 and out == "" and "4 is not prime" in err


def test_lucas_query(capsys):
    code, out, _ = run(capsys, "lucas", "109", "7", "--prime", "7")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "lucas", "4", "2", "--prime", "2", "--json")
    assert json.loads(out) == {"n": 4, "k": 2, "p": 2, "residue": 0}


def test_triangle_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "triangle", "--rows", "8", "--kind", "fibonomial")
    assert code == 0
    assert out == render(RenderSpec(rows=8, kind="fibonomial"))
    target = tmp_path / "t.pgm"
    code, out, _ = run(capsys, "triangle", "--rows", "9", "--mod", "2",
                       "--format", "pgm", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("P2\n17 9\n255\n")


def test_triangle_usage_errors(capsys):
    code, _, err = run(capsys, "triangle", "--rows", "0")
    assert code == 2
    code, _, err = run(capsys, "triangle", "--rows", "1200")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "triangle", "--rows", "6", "--format", "pgm")
    assert code == 2  # raster without a modulus
    code, _, err = run(capsys, "triangle", "--rows", "6", "--format", "tiff")
    assert code == 2


def test_triangle_mod_m_rows_are_bounded(tmp_path, capsys, monkeypatch):
    # Checked before any work: past the bound render is never called and
    # no --out file is made. Exact triangles keep their --cap bound.
    monkeypatch.setattr(cli, "MAX_TRIANGLE_ROWS", 5)
    assert run(capsys, "triangle", "--rows", "5", "--mod", "2")[0] == 0
    assert run(capsys, "triangle", "--rows", "6")[0] == 0
    monkeypatch.setattr(cli, "render", None)
    out = tmp_path / "t.txt"
    for argv in (["--rows", "6", "--mod", "2"],
                 ["--rows", "7", "--mod", "5", "--format", "svg", "--out", str(out)]):
        assert run(capsys, "triangle", *argv) == (
            2, "", f"error: rows must be <= 5 for a triangle mod m, got {argv[1]}\n")
    assert list(tmp_path.iterdir()) == []


def test_triangle_mod_m_rows_are_weighed_by_modulus_words(capsys, monkeypatch):
    # R rows mod m of w 30-bit words are refused when R * R * w exceeds the
    # bound squared, before any work; the message names the weighed bound.
    # The benchmark's moduli, 2 to 64, are one word and keep every row.
    monkeypatch.setattr(cli, "MAX_TRIANGLE_ROWS", 5)
    cases = [(2, 5), (64, 5), (2**30 - 1, 5), (2**30, 3), (2**60, 2), (2**120, 2), (2**720, 1)]
    for m, bound in cases:
        argv = ["triangle", "--rows", str(bound), "--mod", str(m), "--format", "json"]
        assert run(capsys, *argv) == (
            0, render(RenderSpec(rows=bound, modulus=m, format="json")), "")
    monkeypatch.setattr(cli, "MAX_TRIANGLE_ROWS", 1000)
    monkeypatch.setattr(cli, "render", lambda spec: "")
    for m in range(2, 65):
        assert run(capsys, "triangle", "--rows", "1000", "--mod", str(m)) == (0, "", "")
    monkeypatch.setattr(cli, "MAX_TRIANGLE_ROWS", 5)
    monkeypatch.setattr(cli, "render", None)
    for m, bound in cases:
        assert run(capsys, "triangle", "--rows", str(bound + 1), "--mod", str(m)) == (
            2, "", f"error: rows must be <= {bound} for a triangle mod m, got {bound + 1}\n")


@pytest.fixture
def str_digits_640():
    # 640 is the smallest limit Python accepts.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_triangle_keeps_the_str_limit(capsys, str_digits_640):
    # Exact entries print at any length, so the int-to-str limit is kept on
    # purpose: past it, json and ascii exit 2 with the message Python gives.
    with pytest.raises(ValueError) as refused:
        str(10 ** str_digits_640)
    rows = 1
    while fibonomial_short(rows - 1, (rows - 1) // 2) < 10 ** str_digits_640:
        rows += 1
    for fmt in ("json", "ascii"):
        code, out, err = run(capsys, "triangle", "--rows", str(rows), "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {refused.value}\n"), fmt
        code, out, err = run(capsys, "triangle", "--rows", str(rows - 1), "--format", fmt)
        assert code == 0 and out and err == "", fmt


@pytest.mark.parametrize("command", [
    ["triangle", "--rows", "9", "--mod", "2"],
    ["verify", "--prime", "7", "--rows", "60"],
])
def test_unwritable_out_is_usage_error(command, tmp_path):
    # A missing directory or a directory itself: both commands check the
    # path before any work, exit 2 with a message, and leave nothing behind.
    for out in (tmp_path / "missing" / "doc.txt", tmp_path):
        done = subprocess.run([sys.executable, "-m", "fibonomial", *command, "--out", str(out)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 2, done.stderr
        assert "error: cannot write" in done.stderr and "Traceback" not in done.stderr
        assert done.stderr.count(str(out)) == 1, done.stderr
        assert list(tmp_path.iterdir()) == []


def test_triangle_render_failure_leaves_out_as_it_was(tmp_path, capsys, monkeypatch):
    # The path checked before rendering is removed again if the check made
    # it, and an earlier file is kept, when the render then fails.
    def failing(spec):
        raise ValueError("render failed")

    monkeypatch.setattr(cli, "render", failing)
    earlier = tmp_path / "earlier.txt"
    earlier.write_bytes(b"an earlier triangle\n")
    for out in (tmp_path / "fresh.txt", earlier):
        code, out_text, err = run(capsys, "triangle", "--rows", "8", "--out", str(out))
        assert code == 2 and out_text == "" and "render failed" in err
    assert list(tmp_path.iterdir()) == [earlier]
    assert earlier.read_bytes() == b"an earlier triangle\n"


def _report(p, rows):
    return (f'{{"p": {p}, "rows": {rows}, "method": "carry"}}\n'
            '{"counterexamples": 0, "seconds": null}\n').encode()


def test_out_replaces_a_longer_file(tmp_path, capsys):
    # The report is opened for appending before the work, so an earlier file
    # longer than the new output must be emptied before the write, not
    # appended to or overwritten in place.
    target = tmp_path / "out"
    cases = [
        (["verify", "--prime", "7", "--rows", "40"], _report(7, 40)),
        (["triangle", "--rows", "6", "--mod", "3", "--format", "pgm"],
         render(RenderSpec(rows=6, modulus=3, format="pgm")).encode()),
    ]
    for argv, want in cases:
        target.write_bytes(b"an earlier, longer file\n" * 1000)
        code, _, err = run(capsys, *argv, "--out", str(target))
        assert (code, err) == (0, ""), argv
        assert target.read_bytes() == want, argv


def test_out_creates_a_fresh_file_without_checks(tmp_path, capsys, monkeypatch):
    # A fresh --out path is created by one exclusive open, and is neither
    # looked up first nor sized before the write. An earlier file fails
    # that open, is opened plainly, and is sized before it is emptied.
    calls = []
    real_open, real_fstat, real_exists = os.open, os.fstat, os.path.exists
    monkeypatch.setattr(os, "open", lambda path, flags, *args: calls.append(
        ("open", bool(flags & os.O_EXCL))) or real_open(path, flags, *args))
    monkeypatch.setattr(os, "fstat", lambda fd: calls.append("fstat") or real_fstat(fd))
    monkeypatch.setattr(os.path, "exists",
                        lambda path: calls.append("exists") or real_exists(path))
    target = tmp_path / "out"
    for want in ([("open", True)], [("open", True), ("open", False), "fstat"]):
        calls.clear()
        assert run(capsys, "verify", "--prime", "7", "--rows", "40", "--out", str(target))[0] == 0
        assert calls == want
        assert target.read_bytes() == _report(7, 40)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
@pytest.mark.parametrize("case, argv, code", [
    ("success", ["verify", "--prime", "7", "--rows", "40"], 0),
    ("success", ["triangle", "--rows", "8"], 0),
    ("refusal", ["verify", "--prime", "11", "--rows", "50"], 2),
    ("oracle mismatch", ["verify", "--prime", "7", "--rows", "40"], 2),
    ("render failure", ["triangle", "--rows", "8"], 2),
])
def test_out_leaves_no_descriptor_open(case, argv, code, tmp_path, capsys, monkeypatch, request):
    # The report is a raw descriptor, which raises no ResourceWarning when it
    # leaks, so the process's open descriptors are compared instead, for a
    # fresh path and for an earlier file.
    if case == "oracle mismatch":
        request.getfixturevalue("corrupt_oracle")
    if case == "render failure":
        monkeypatch.setattr(cli, "render", lambda spec: 1 / 0)
    earlier = tmp_path / "earlier"
    earlier.write_bytes(b"an earlier file\n")
    for target in (tmp_path / "fresh", earlier):
        before = sorted(os.listdir("/proc/self/fd"))
        assert run(capsys, *argv, "--out", str(target))[0] == code
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert target.exists() == (code == 0 or target == earlier)


@pytest.mark.parametrize("argv", [
    ["verify", "--prime", "7", "--rows", "30"],
    ["triangle", "--rows", "8", "--format", "svg", "--mod", "4"],
])
def test_out_to_dev_stdout_in_a_fresh_process(argv):
    # /dev/stdout is a pipe here: it holds no bytes, and is never emptied.
    done = subprocess.run([sys.executable, "-m", "fibonomial", *argv, "--out", "/dev/stdout"],
                          capture_output=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    if argv[0] == "verify":
        report, summary, wrote = done.stdout.rsplit(b"\n", 3)[:3]
        assert report + b"\n" == _report(7, 30)
        assert summary.startswith(b"p=7 rows=30 method=carry counterexamples=0 seconds=")
        assert wrote == b"wrote /dev/stdout"
    else:
        assert done.stdout == render(RenderSpec(rows=8, modulus=4, format="svg")).encode()


# Each library name cli binds lazily, and a command whose handler calls it.
LAZY_NAMES = {
    "fib": ["fib", "10"],
    "fib_mod": ["fib", "10", "--mod", "7"],
    "fibonomial": ["fibonomial", "6", "3"],
    "fibonomial_mod": ["fibonomial", "6", "3", "--mod", "7"],
    "carry_valuation": ["valuation", "57", "26", "--prime", "7"],
    "entry_point": ["entry-point", "7"],
    "is_prime": ["expand", "100", "--base", "p", "--prime", "7"],
    "nu_p_fibonomial_oracle": ["valuation", "57", "26", "--prime", "7", "--method", "oracle"],
    "expand_base_fp": ["expand", "100", "--base", "Fp", "--prime", "7"],
    "expand_base_p": ["expand", "100", "--base", "p", "--prime", "7"],
    "lucas_binomial_residue": ["lucas", "10", "3", "--prime", "7"],
    "find_counterexample": ["verify", "--prime", "11", "--counterexample"],
    "validate_sweep": ["verify", "--prime", "7", "--rows", "8"],
    "verify_conjecture": ["verify", "--prime", "7", "--rows", "8"],
    "RenderSpec": ["triangle", "--rows", "3"],
    "render": ["triangle", "--rows", "3"],
}


def test_lazy_names_are_listed():
    # Every cli attribute that is a stand-in, or the library object a
    # stand-in has resolved to, has a case above.
    def lazy(value):
        home = getattr(value, "__module__", None) or ""
        return (getattr(value, "__qualname__", "") == "_lazy.<locals>.stand_in"
                or home.startswith("fibonomial.") and home != "fibonomial.cli")

    assert {name for name, value in vars(cli).items() if lazy(value)} == set(LAZY_NAMES)


@pytest.mark.parametrize("name", list(LAZY_NAMES))
def test_lazy_names_are_looked_up_at_call_time(name, tmp_path, capsys, monkeypatch):
    # perfbench's tracing and fault injection wrap these names on cli, so a
    # handler must find them there when it runs, not when cli was imported.
    def recorder(*args, **kwargs):
        raise ValueError(f"{name} recorded")

    monkeypatch.setattr(cli, name, recorder)
    argv = LAZY_NAMES[name]
    if argv[0] == "verify" and "--rows" in argv:
        argv = [*argv, "--out", str(tmp_path / "sweep.jsonl")]
    assert run(capsys, *argv) == (2, "", f"error: {name} recorded\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


# Per subcommand, arguments it accepts; the first integer among them is the
# one made non-integer below.
ACCEPTED = {
    "fib": ["5"],
    "fibonomial": ["5", "2"],
    "entry-point": ["7"],
    "valuation": ["5", "2", "--prime", "7"],
    "expand": ["5", "--base", "Fp", "--prime", "7"],
    "lucas": ["5", "2", "--prime", "7"],
    "triangle": ["--rows", "3"],
    "verify": ["--prime", "7", "--rows", "3"],
}


def _non_integer(args):
    i = next(i for i, a in enumerate(args) if a.isdigit())
    return [*args[:i], "x", *args[i + 1:]]


PARSE_FAILURES = [
    ["-h"], [], ["frobnicate"],
    *([command, *args]
      for command, accepted in ACCEPTED.items()
      for args in (["-h"], [], _non_integer(accepted), [*accepted, "extra"])),
]


@pytest.mark.parametrize("argv", PARSE_FAILURES, ids=" ".join)
def test_cli_parse_output_matches_full_parser(argv, capsys):
    # None of these forms is read by the quick parse, and every help text,
    # usage line, error and exit code main gives is the full parser's.
    got = run(capsys, *argv)
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert got == (stop.value.code, want.out, want.err)


# Tokens a drawn argv may gain: joined, abbreviated and negative options,
# int() spellings argparse also reads (1_000, " 7") or refuses (0x10, ""),
# "--", help, extra tokens, and options and flags out of place.
NOISE = ("--mod=7", "--cap=5", "--mo", "--prim", "-5", "0x10", "1_000", " 7",
         "", "--", "-h", "nope", "extra", "7", "--json", "--mod", "--prime",
         "--rows", "--out", "--counterexample")


@given(st.data())
@settings(max_examples=400, deadline=1000, derandomize=True)
def test_quick_parse_matches_full_parser(data):
    # Argv drawn from each subcommand's declared arguments (options in any
    # order, a bad choice now and then), then edited with NOISE in place
    # of a value or anywhere, a repeated option or a cut command name. The
    # quick parse declines or gives exactly the full parser's values, and
    # it reads every argv that was not edited and lacks no required option
    # or valid choice. Whatever argparse rejects, main rejects with the
    # same exit code, stdout and stderr.
    command = data.draw(st.sampled_from(list(cli._COMMANDS)))
    canonical = True
    groups, options = [], []
    for arg in cli._COMMANDS[command][2]:
        if arg.choices:
            value = data.draw(st.sampled_from((*arg.choices, "nope")))
        elif arg.type is None:
            value = data.draw(st.sampled_from(["out.txt", "a b", ""]))
        else:
            value = str(data.draw(st.integers(0, 10**6)))
        if not arg.name.startswith("-"):
            groups.append([value])
        elif data.draw(st.booleans()) or arg.required and data.draw(st.integers(0, 9)):
            options.append([arg.name] if arg.type is bool else [arg.name, value])
            canonical = canonical and value != "nope"
        else:
            canonical = canonical and not arg.required
    for group in data.draw(st.permutations(options)):
        groups.insert(data.draw(st.integers(0, len(groups))), group)
    edits = data.draw(st.lists(st.tuples(
        st.sampled_from(("value", "insert", "replace", "delete", "repeat", "command")),
        st.integers(0, 99), st.sampled_from(NOISE)), max_size=2))
    valued = [g for g in groups if len(g) == 2 or not g[0].startswith("-")]
    for edit, i, noise in edits:
        if edit == "value" and valued:
            valued[i % len(valued)][-1] = noise
    argv = [token for group in groups for token in group]
    for edit, i, noise in edits:
        if edit == "insert":
            argv.insert(i % (len(argv) + 1), noise)
        elif edit in ("replace", "delete") and argv:
            argv[i % len(argv):i % len(argv) + 1] = [noise] if edit == "replace" else []
        elif edit == "repeat" and options:
            name, *value = options[i % len(options)]
            argv += [name, *(str(i) if v.isdigit() else v for v in value)]
        elif edit == "command":
            command = command[:-1]
    argv = [command, *argv]
    canonical = canonical and not edits

    quick = cli._parse_quick(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            full, code = vars(build_parser().parse_args(argv)), None
        except SystemExit as stop:
            full, code = None, stop.code
    if quick is not None or canonical:
        assert quick == full
    if full is None:
        got_out, got_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(got_out), contextlib.redirect_stderr(got_err):
            got = main(argv)
        assert (got, got_out.getvalue(), got_err.getvalue()) == (
            code, out.getvalue(), err.getvalue())


def test_cli_declares_only_the_named_subcommand(capsys, monkeypatch):
    # A well-formed command is read from the argument table and declares no
    # parser; the forms argparse accepts answer as they did.
    declared = []

    def recording():
        declared.append(True)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", recording)
    assert run(capsys, "fib", "5") == (0, "5\n", "")
    assert declared == []
    assert run(capsys, "fibonomial", "5", "2", "--mod=7") == (0, "1\n", "")
    assert run(capsys, "fibonomial", "5", "2", "--mo", "7") == (0, "1\n", "")
    assert run(capsys, "fib", "x")[0] == 2
    assert len(declared) == 3


def test_verify_clean_sweep(tmp_path, capsys):
    out_path = tmp_path / "sweep.jsonl"
    code, out, _ = run(capsys, "verify", "--prime", "7", "--rows", "60",
                       "--jobs", "1", "--out", str(out_path))
    assert code == 0
    assert "counterexamples=0" in out
    lines = out_path.read_text().splitlines()
    assert json.loads(lines[0]) == {"p": 7, "rows": 60, "method": "carry"}
    assert json.loads(lines[-1]) == {"counterexamples": 0, "seconds": None}
    assert len(lines) == 2


def test_verify_default_path_uses_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FIBONOMIAL_SWEEP_DIR", str(tmp_path))
    code, out, _ = run(capsys, "verify", "--prime", "5", "--rows", "40",
                       "--jobs", "1")
    assert code == 0
    assert (tmp_path / "sweep_p5_rows40.jsonl").exists()


def test_verify_refuses_less_relation_without_flag(tmp_path, capsys, monkeypatch):
    # A refused sweep neither creates nor truncates its report.
    monkeypatch.setenv("FIBONOMIAL_SWEEP_DIR", str(tmp_path))
    code, _, err = run(capsys, "verify", "--prime", "11", "--rows", "50")
    assert code == 2 and "--counterexample" in err
    code, _, err = run(capsys, "verify", "--prime", "7", "--rows", "-1")
    assert code == 2 and "rows" in err
    assert list(tmp_path.iterdir()) == []
    report = tmp_path / "sweep_p11_rows50.jsonl"
    report.write_bytes(b"an earlier report\n")
    code, _, _ = run(capsys, "verify", "--prime", "11", "--rows", "50")
    assert code == 2
    assert report.read_bytes() == b"an earlier report\n"


def test_verify_oracle_mismatch_keeps_earlier_report(tmp_path, capsys, corrupt_oracle):
    report = tmp_path / "sweep.jsonl"
    report.write_bytes(b"an earlier report\n")
    code, out, err = run(capsys, "verify", "--prime", "7", "--rows", "40",
                         "--jobs", "1", "--out", str(report))
    assert code == 2 and out == "" and "disagrees with oracle" in err
    assert report.read_bytes() == b"an earlier report\n"


def test_verify_oracle_mismatch_leaves_no_new_report(tmp_path, capsys, corrupt_oracle):
    # The writability check creates a report path that did not exist; a
    # sweep stopped by an oracle mismatch removes it again.
    report = tmp_path / "fresh.jsonl"
    code, out, err = run(capsys, "verify", "--prime", "7", "--rows", "40",
                         "--jobs", "1", "--out", str(report))
    assert code == 2 and out == "" and "disagrees with oracle" in err
    assert not report.exists()


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """A real process pool that records the worker count asked for and each
    completed shutdown."""

    events: list = []

    def __init__(self, max_workers):
        self.events.append(("start", max_workers))
        super().__init__(max_workers)

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        self.events.append("shutdown")


def test_verify_pooled_oracle_mismatch_leaves_no_new_report(
        tmp_path, capsys, corrupt_oracle, monkeypatch):
    # The pooled twin of the test above: a worker's ArithmeticError reaches
    # the CLI, the pool shuts down, leaving no worker process behind, and
    # the report goes. A hang dumps the stacks and exits instead of
    # stalling the suite.
    monkeypatch.setattr(conjecture, "MIN_SPAN_PAIRS", 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "events", [])
    report = tmp_path / "fresh.jsonl"
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
    try:
        code, out, err = run(capsys, "verify", "--prime", "7", "--rows", "40",
                             "--jobs", "2", "--out", str(report))
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert _RecordingPool.events == [("start", 2), "shutdown"]
    assert multiprocessing.active_children() == []
    assert code == 2 and out == "" and "disagrees with oracle" in err
    assert not report.exists()


def test_verify_counterexample_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "11", "--counterexample")
    assert code == 1
    assert "witness n=100 k=10" in out
    assert "agrees=False" in out


def test_counterexample_at_a_large_entry_point_answers_in_a_fresh_process():
    # z = 12506 for p = 100049: the digit factor C(z, 1)_F = F_z has 2,614
    # digits, and its divisibility is read off the entry point instead.
    done = subprocess.run(
        [sys.executable, "-m", "fibonomial", "verify", "--prime", "100049",
         "--counterexample"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=10)
    assert done.returncode == 1, done.stderr
    assert done.stdout == (
        "p=100049 p_star=12506 relation=LESS\n"
        "witness n=156400036 k=12506: lhs_divisible=False rhs_divisible=True "
        "agrees=False\n")


def test_verify_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--prime", "4", "--rows", "10")
    assert code == 2
    code, _, err = run(capsys, "verify", "--prime", "7")
    assert code == 2 and "--rows" in err
    # More rows than the bound are refused before the report is opened.
    out = tmp_path / "sweep.jsonl"
    code, _, err = run(capsys, "verify", "--prime", "7", "--rows", "100001",
                       "--out", str(out))
    assert (code, err) == (2, "error: rows must be <= 100000, got 100001\n")
    assert not out.exists()
    code, _, err = run(capsys, "verify", "--prime", "7", "--counterexample")
    assert code == 2  # relation is not LESS, no witness construction
    # --oracle-stride is retired: every pair is checked against the oracle.
    for flags in (["--jobs", "0"], ["--oracle-stride", "5"],
                  ["--out", str(tmp_path / "missing" / "sweep.jsonl")]):
        code, _, err = run(capsys, "verify", "--prime", "7", "--rows", "60", *flags)
        assert code == 2 and "error:" in err, flags


# The values the fuzz test below draws for verify: primes refused (below 2,
# composite, z < p, past the entry-point bound, at the primality bound) and
# accepted; rows refused, at the edges of a block of z and past the bound;
# jobs refused and accepted; and four kinds of --out target.
FUZZ_PRIMES = (-7, 0, 1, 4, 9, 11, 2, 3, 5, 7, 23, 163, 10007, 10**13 + 37, PRIME_TEST_LIMIT)
SWEPT_PRIMES = (2, 3, 5, 7, 23, 163, 10007)
FUZZ_ROWS = ("-1", "0", "1", "z - 1", "z", "2000", "bound + 1")
FUZZ_TARGETS = ("new file", "existing file", "directory", "missing directory")


def _fuzz_target(tmp, target, name):
    # The --out path of a drawn kind of target in tmp; an existing file
    # holds an earlier report.
    path = {"new file": os.path.join(tmp, name),
            "existing file": os.path.join(tmp, name),
            "directory": tmp,
            "missing directory": os.path.join(tmp, "missing", name)}[target]
    if target == "existing file":
        with open(path, "wb") as earlier:
            earlier.write(b"an earlier report\n")
    return path


@seed(28)
@given(st.sampled_from(FUZZ_PRIMES), st.sampled_from(FUZZ_ROWS),
       st.sampled_from((-1, 0, 1, 2)), st.sampled_from(FUZZ_TARGETS))
@settings(max_examples=400, deadline=None)
def test_verify_fuzzed_values_exit_0_or_2_and_keep_reports(p, rows, jobs, target):
    # Every drawn command exits 0 or 2 without a traceback. It exits 0
    # exactly when the prime, rows, jobs and target are all valid, and then
    # the report holds the header and summary lines alone. A refused
    # command creates nothing and leaves an earlier report as it was. Rows
    # tied to z stop at 2,000, so that every sweep is short.
    z = entry_point(p).p_star if p in SWEPT_PRIMES else 8
    rows = {"z - 1": min(z - 1, 2000), "z": min(z, 2000),
            "bound + 1": conjecture.MAX_SWEEP_ROWS + 1}.get(rows, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = _fuzz_target(tmp, target, "sweep.jsonl")
        before = sorted(os.listdir(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--prime", str(p), "--rows", str(rows),
                         "--jobs", str(jobs), "--out", path])
        assert "Traceback" not in err.getvalue()
        valid = (p in SWEPT_PRIMES and 0 <= int(rows) <= conjecture.MAX_SWEEP_ROWS
                 and jobs >= 1 and target.endswith("file"))
        assert code == (0 if valid else 2), err.getvalue()
        if code == 0:
            with open(path) as report:
                assert report.read().splitlines() == [
                    f'{{"p": {p}, "rows": {rows}, "method": "carry"}}',
                    '{"counterexamples": 0, "seconds": null}']
            assert out.getvalue().endswith(f"wrote {path}\n")
            return
        assert err.getvalue() and out.getvalue() == ""
        assert sorted(os.listdir(tmp)) == before
        if target == "existing file":
            with open(path, "rb") as earlier:
                assert earlier.read() == b"an earlier report\n"


# The values the fuzz test below draws for the other subcommands: zero,
# negative, non-prime, past the default cap and 2**1200; primes refused
# (below 2, composite, past the entry-point bound, at the primality bound)
# and accepted; moduli refused and accepted; and "past", rows or a window
# min(k, n - k) just past the bound that the drawn modulus and cap set.
# Exact triangles stay at 50 rows or fewer.
FUZZ_INTS = ("0", "-1", "9", "1001", BIG)
FUZZ_VALUE_PRIMES = ("-7", "0", "9", "2", "7", "11", str(10**13 + 37), str(PRIME_TEST_LIMIT), BIG)
FUZZ_MODS = (None, "-3", "1", "2", "7", BIG)
FUZZ_OUT = (None, *FUZZ_TARGETS)


def _prime_refusal(p, entry=True):
    # The message a drawn prime is refused with, first of all checks.
    if p >= PRIME_TEST_LIMIT:
        return "primality is decided only below"
    if p not in (2, 7, 11, 10**13 + 37):
        return "is not prime"
    if entry and p > ENTRY_POINT_LIMIT:
        return "entry points are computed for primes up to"
    return None


@seed(29)
# Both triangle bounds, with an earlier --out file in place, are drawn rarely.
@example("triangle", "0", "0", "7", None, "5", "50", "p", "json", False, "existing file")
@example("triangle", "0", "0", "7", BIG, None, "past", "Fp", "svg", False, "existing file")
@given(st.sampled_from(("fib", "fibonomial", "entry-point", "valuation", "expand", "lucas",
                        "triangle")),
       st.sampled_from(FUZZ_INTS), st.sampled_from((*FUZZ_INTS, "past")),
       st.sampled_from(FUZZ_VALUE_PRIMES), st.sampled_from(FUZZ_MODS),
       st.sampled_from((None, "5")), st.sampled_from(("-1", "0", "1", "50", "past")),
       st.sampled_from(("carry", "oracle", "p", "Fp")),
       st.sampled_from(("ascii", "pgm", "svg", "json")), st.booleans(), st.sampled_from(FUZZ_OUT))
@settings(max_examples=300, deadline=None)
def test_other_commands_fuzzed_values_exit_0_or_2_within_a_second(
        command, n, k, p, mod, cap, rows, choice, fmt, flag, target):
    # Every drawn command exits 0 or 2 without a traceback, within a second,
    # and a value past a bound is refused with that bound's message before
    # the work starts. A refused triangle --out creates nothing and leaves an
    # earlier file as it was.
    limit = int(cap or cli.DEFAULT_EXACT_CAP)
    words = cli._words(int(mod)) if mod else 1
    window = cli.MAX_MOD_WINDOW // (words + words * words // 64)
    rows_bound = isqrt(cli.MAX_TRIANGLE_ROWS ** 2 // words)
    if k == "past":
        n, k = str(2 * window + 2), str(window + 1)
    if rows == "past":
        rows = str(limit + 2 if mod is None else rows_bound + 1)
    N, K, P = int(n), int(k), int(p)
    options = [*(["--mod", mod] if mod else []), *(["--cap", cap] if cap else [])]
    json_flag = ["--json"] if flag else []
    want = None
    if command == "fib":
        argv = ["fib", n, *options, *json_flag]
        if mod is None and N > limit:
            want = f"exceeds the exact-size cap {limit}"
    elif command == "fibonomial":
        argv = ["fibonomial", n, k, *options, *json_flag]
        if N >= 0 and K >= 0 and mod and min(K, N - K) > window:
            want = f"exceeds the window bound {window}"
        elif N >= 0 and K >= 0 and mod is None and N > limit:
            want = f"exceeds the exact-size cap {limit}"
    elif command == "entry-point":
        argv, want = ["entry-point", p, *json_flag], _prime_refusal(P)
    elif command == "valuation":
        method = "oracle" if choice in ("oracle", "p") else "carry"
        argv = ["valuation", n, k, "--prime", p, "--method", method,
                *(["--cap", cap] if cap else []), *json_flag]
        if 0 <= K <= N:
            want = _prime_refusal(P)
            if want is None and method == "oracle" and N > limit:
                want = f"exceeds the exact-size cap {limit}"
    elif command == "expand":
        base = "p" if choice in ("p", "carry") else "Fp"
        argv = ["expand", n, "--base", base, "--prime", p, *json_flag]
        want = _prime_refusal(P, entry=base == "Fp")
    elif command == "lucas":
        argv, want = ["lucas", n, k, "--prime", p, *json_flag], _prime_refusal(P, entry=False)
    else:
        kind = "binomial" if choice in ("p", "carry") else "fibonomial"
        argv = ["triangle", "--rows", rows, "--kind", kind, "--format", fmt, *options]
        if mod is None and int(rows) - 1 > limit:
            want = f"exceeds the exact-size cap {limit}"
        elif mod is not None and int(rows) > rows_bound:
            want = f"rows must be <= {rows_bound} for a triangle mod m"
    with tempfile.TemporaryDirectory() as tmp:
        if command == "triangle" and target is not None:
            argv += ["--out", _fuzz_target(tmp, target, "triangle.txt")]
        before = sorted(os.listdir(tmp))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code in (0, 2) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
        if want is not None:
            assert code == 2 and want in err.getvalue(), (argv, err.getvalue())
        if code == 0:
            return
        assert err.getvalue() and out.getvalue() == "", argv
        assert sorted(os.listdir(tmp)) == before
        if target == "existing file" and command == "triangle":
            with open(argv[-1], "rb") as earlier:
                assert earlier.read() == b"an earlier report\n"


def test_verify_sweeps_in_process_by_default():
    # A sweep uses worker processes only when asked to, and then only from
    # the measured floor up.
    assert build_parser().parse_args(["verify", "--prime", "7"]).jobs == 1


def test_cli_import_leaves_process_pool_unloaded():
    # Only a pooled sweep needs concurrent.futures.process, and only an
    # exact triangle needs decimal, and only help or a malformed command
    # needs argparse; importing any of them with the CLI would add its
    # start-up cost to every command.
    code = ("import sys, fibonomial.cli; print([m in sys.modules for m in "
            "('concurrent.futures.process', 'decimal', 'argparse')])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True)
    assert done.stdout.strip() == "[False, False, False]"


# Per query command, the package modules it loads besides cli.
QUERY_MODULES = {
    "fib 10 --mod 7": {"core"},
    "fibonomial 100 7 --mod 10": {"core"},
    "fibonomial 30 7": {"core"},
    "entry-point 1000003": {"core", "valuation"},
    "valuation 57 26 --prime 7": {"core", "valuation"},
    "expand 100 --base Fp --prime 7": {"core", "radix", "valuation"},
    "lucas 10 3 --prime 7": {"core", "radix", "valuation"},
}


@pytest.mark.parametrize("command", list(QUERY_MODULES))
def test_query_loads_only_the_modules_it_uses(command):
    # Each query runs in a fresh process, so what it imports is most of its
    # time: no sweep or render module, and none of dataclasses (with
    # inspect), json (only for --json), decimal (only for exact rows) or
    # argparse with the gettext and locale it loads (only for help and
    # malformed commands).
    code = ("import sys; from fibonomial.cli import main; "
            f"code = main({command.split()!r}); "
            "print(code, sorted(m for m in sys.modules if m.startswith('fibonomial.') "
            "or m in ('dataclasses', 'json', 'decimal', 'argparse', 'gettext', 'locale')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True)
    loaded = sorted(f"fibonomial.{m}" for m in {"cli", *QUERY_MODULES[command]})
    assert done.stdout.splitlines()[-1] == f"0 {loaded}"


def test_short_pooled_sweep_leaves_process_pool_unloaded(tmp_path):
    # --jobs 8 on 900 rows plans one span, so the sweep runs in process and
    # never imports the pool machinery.
    out = tmp_path / "sweep.jsonl"
    code = ("import sys, fibonomial.cli as cli; "
            "argv = ['verify', '--prime', '7', '--rows', '900', '--jobs', '8', "
            f"'--out', {str(out)!r}]; "
            "print(cli.main(argv), 'concurrent.futures.process' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"
    assert out.read_text().splitlines()[0] == '{"p": 7, "rows": 900, "method": "carry"}'
