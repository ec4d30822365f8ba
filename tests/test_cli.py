import contextlib
import inspect
import io
import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from fibonomial.cli import main
from fibonomial.core import fibonomial
from fibonomial.render import RenderSpec, render
from fibonomial.valuation import (
    ENTRY_POINT_LIMIT,
    PRIME_TEST_LIMIT,
    carry_valuation,
    entry_point,
    is_prime,
)

from oracles import fib_seq, fibonomial_short, naive_fibonomial

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


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_fibonomial_mod_band_matches_exact(data):
    # The band answer against the exact coefficient from its min(k, n-k)
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
    code, out, _ = run(capsys, "valuation", "10", "4", "--prime", "2", "--json")
    assert json.loads(out)["method"] == "oracle"


def test_valuation_errors(capsys):
    code, _, err = run(capsys, "valuation", "3", "5", "--prime", "7")
    assert code == 2 and "zero" in err
    code, _, err = run(capsys, "valuation", "10", "4", "--prime", "2",
                       "--method", "carry")
    assert code == 2
    code, _, err = run(capsys, "valuation", "10", "4", "--prime", "10")
    assert code == 2


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


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


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


def test_verify_counterexample_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "11", "--counterexample")
    assert code == 1
    assert "witness n=100 k=10" in out
    assert "agrees=False" in out


def test_verify_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--prime", "4", "--rows", "10")
    assert code == 2
    code, _, err = run(capsys, "verify", "--prime", "7")
    assert code == 2 and "--rows" in err
    code, _, err = run(capsys, "verify", "--prime", "7", "--counterexample")
    assert code == 2  # relation is not LESS, no witness construction
    # --oracle-stride is retired: every pair is checked against the oracle.
    for flags in (["--jobs", "0"], ["--oracle-stride", "5"],
                  ["--out", str(tmp_path / "missing" / "sweep.jsonl")]):
        code, _, err = run(capsys, "verify", "--prime", "7", "--rows", "60", *flags)
        assert code == 2 and "error:" in err, flags


def test_cli_import_leaves_process_pool_unloaded():
    # Only a pooled sweep needs concurrent.futures.process; importing it
    # with the CLI would add its start-up cost to every command.
    code = "import sys, fibonomial.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True)
    assert done.stdout.strip() == "False"
