import io
import json
import math
from itertools import accumulate, zip_longest

import pytest

import fibonomial.conjecture as conjecture
from fibonomial.conjecture import (
    ConjectureVerdict,
    SweepRecord,
    check_period_mod2,
    digit_product_divisible,
    find_counterexample,
    lucas_binomial_residue,
    verify_conjecture,
)
from fibonomial.core import fib, fib_mod, fibonomial_row_mod
from fibonomial.radix import DigitVector, expand_base_fp
from fibonomial.valuation import Valuation, carry_valuation, entry_point, is_prime

from oracles import (
    digits_le,
    fib_seq,
    fibotorial_seq,
    naive_fibonomial,
    nu,
    sweep_rows_per_pair,
)

# Divisibility by 5 from exact valuations; the zero coefficient (k > n)
# counts as divisible.
S5 = [0, *accumulate(nu(x, 5) for x in fib_seq(150))]


def _div5(n, k):
    return k > n or S5[n] - S5[k] - S5[n - k] >= 1


def _base5_digit_exceeds(n, k):
    pairs = zip_longest(digits_le(n, 5), digits_le(k, 5), fillvalue=0)
    return any(b > a for a, b in pairs)


def test_digit_product_divisible_examples():
    p11 = entry_point(11)
    assert digit_product_divisible(100, 10, p11) is True
    assert digit_product_divisible(100, 0, p11) is False
    p13 = entry_point(13)
    assert digit_product_divisible(49, 7, p13) is True
    for p in (2, 3, 5, 7, 11):
        prof = entry_point(p)
        for n in (0, 1, 9, 40, 444):
            assert digit_product_divisible(n, 0, prof) is False


def test_digit_product_matches_brute_force():
    # Rebuild the digit product exactly and compare divisibility.
    ft = fibotorial_seq(30)
    for p in (2, 3, 5, 7):
        prof = entry_point(p)
        for n in range(90):
            for k in range(n + 1):
                nd, kd = [], []
                a, b = n, k
                a, r = divmod(a, prof.p_star)
                nd.append(r)
                b, r = divmod(b, prof.p_star)
                kd.append(r)
                while a or b:
                    a, r = divmod(a, prof.p)
                    nd.append(r)
                    b, r = divmod(b, prof.p)
                    kd.append(r)
                product = 1
                for x, y in zip(nd, kd):
                    product *= naive_fibonomial(x, y, ft)
                assert digit_product_divisible(n, k, prof) == (product % p == 0)


def test_verify_conjecture_small_sweeps():
    rec = verify_conjecture(entry_point(7), 120)
    assert rec.counterexamples == ()
    assert rec.method == "carry"
    assert rec.rows == 120
    assert rec.seconds >= 0
    rec5 = verify_conjecture(entry_point(5), 500)
    assert rec5.counterexamples == ()


def test_verify_conjecture_oracle_runs():
    # The mod-2 statement over its first full period, and p = 3 over 200
    # rows, both through the exact big-integer method.
    rec2 = verify_conjecture(entry_point(2), 48)
    assert rec2.method == "oracle"
    assert rec2.counterexamples == ()
    rec3 = verify_conjecture(entry_point(3), 200, method="oracle")
    assert rec3.counterexamples == ()


def test_verify_conjecture_method_and_relation_guards():
    with pytest.raises(ValueError):
        verify_conjecture(entry_point(11), 10)
    with pytest.raises(ValueError):
        verify_conjecture(entry_point(2), 10, method="carry")
    with pytest.raises(ValueError):
        verify_conjecture(entry_point(7), 10, method="bogus")
    with pytest.raises(ValueError):
        verify_conjecture(entry_point(7), -1)


def test_verify_conjecture_parallel_matches_serial():
    prof = entry_point(7)
    serial = verify_conjecture(prof, 90, jobs=1)
    parallel = verify_conjecture(prof, 90, jobs=3)
    assert serial.counterexamples == parallel.counterexamples
    assert serial.jsonl_lines() == parallel.jsonl_lines()


def _sweeps_agree(p, rows, method, stride):
    profile = entry_point(p)
    prefix = conjecture.fibotorial_valuations(rows - 1, p)
    want = sweep_rows_per_pair(profile, 0, rows, method, stride, prefix)
    assert conjecture._sweep_rows(profile, 0, rows, method, stride, prefix) == want
    chunked = [v for lo, hi in conjecture._row_chunks(rows, 3)
               for v in conjecture._sweep_rows(profile, lo, hi, method, stride, prefix)]
    assert chunked == want
    return want


@pytest.mark.parametrize("p", [11, 13, 17, 29])
def test_sweep_rows_matches_per_pair_loop_with_counterexamples(p):
    # Primes with z < p, which verify_conjecture refuses: the disagreements
    # must match pair for pair.
    assert _sweeps_agree(p, 300, "carry", 37)


@pytest.mark.parametrize("method, stride", [("carry", 0), ("carry", 1), ("carry", 37),
                                            ("oracle", 0)])
@pytest.mark.parametrize("p, rows", [(3, 120), (5, 120), (7, 120), (23, 120), (163, 200)])
def test_sweep_rows_matches_per_pair_loop(p, rows, method, stride):
    # The oracle method reads no stride.
    assert _sweeps_agree(p, rows, method, stride) == []


@pytest.mark.parametrize("method", ["carry", "oracle"])
def test_sweep_rows_on_large_prime_builds_table_for_rows_only(method, monkeypatch):
    # z = 10008 > p = 10007: a table sized by the prime would take ~10^8
    # cells; the digits of 30 rows need a 30-row table.
    sizes = []
    rows_mod = conjecture.iter_fibonomial_rows_mod

    def recording(count, m):
        sizes.append(count)
        return rows_mod(count, m)

    monkeypatch.setattr(conjecture, "iter_fibonomial_rows_mod", recording)
    assert entry_point(10007).p_star == 10008
    assert _sweeps_agree(10007, 30, method, 1) == []
    assert max(sizes) == 30


def test_oracle_stride_catches_wrong_carry_valuation(monkeypatch):
    # (8, 1) is pair number 37 in row-major order, so stride 37 checks it.
    def off_by_one(m, n, profile):
        e = carry_valuation(m, n, profile).exponent
        return Valuation(e + ((m, n) == (1, 7)), "carry")

    monkeypatch.setattr(conjecture, "carry_valuation", off_by_one)
    with pytest.raises(ArithmeticError, match=r"\(n=8, k=1, p=7\)"):
        verify_conjecture(entry_point(7), 40, oracle_stride=37)


def test_oracle_stride_catches_wrong_carry_test(monkeypatch):
    # Give 9 = (1 1) the digits of 8, so its digit sum is 1 too low: the
    # carry test then reports a carry in 1 + 8, which has none.
    def wrong_digits(n, profile):
        vec = expand_base_fp(n, profile)
        return DigitVector((0, 1), vec.p, vec.pstar) if n == 9 else vec

    monkeypatch.setattr(conjecture, "expand_base_fp", wrong_digits)
    with pytest.raises(ArithmeticError, match=r"\(n=9, k=1, p=7\)"):
        verify_conjecture(entry_point(7), 40, oracle_stride=1)
    # Unchecked, the same fault reads as counterexamples.
    assert verify_conjecture(entry_point(7), 40, oracle_stride=0).counterexamples


@pytest.mark.parametrize("p, witness", [
    (11, (100, 10)),
    (13, (49, 7)),
    (17, (81, 9)),
])
def test_find_counterexample_known_witnesses(p, witness):
    n, k, verdict = find_counterexample(entry_point(p))
    assert (n, k) == witness
    assert verdict.lhs_divisible is False
    assert verdict.rhs_divisible is True
    assert verdict.agrees is False


def test_find_counterexample_requires_less_relation():
    for p in (2, 3, 5, 7, 23):
        with pytest.raises(ValueError):
            find_counterexample(entry_point(p))


def test_witness_against_exact_arithmetic():
    # The coefficient at (z*z, z) for p = 13 is genuinely coprime to 13.
    coeff = naive_fibonomial(49, 7)
    assert nu(coeff, 13) == 0
    assert fib(7) % 13 == 0  # while the digit factor F_7 is divisible


@pytest.mark.parametrize("n, k, expected", [
    (5, 1, True),
    (9, 4, False),
    (7, 3, True),
    (0, 0, False),
])
def test_five_divides_fibonomial_examples(n, k, expected):
    # 5 divides the coefficient exactly when some base-5 digit of k exceeds
    # the matching digit of n.
    assert (naive_fibonomial(n, k) % 5 == 0) == expected
    assert _base5_digit_exceeds(n, k) == expected


def test_five_divides_fibonomial_matches_exact_and_digit_product():
    ft = fibotorial_seq(150)
    p5 = entry_point(5)
    for n in range(151):
        for k in range(n + 1):
            want = naive_fibonomial(n, k, ft) % 5 == 0
            assert _base5_digit_exceeds(n, k) == want
            assert digit_product_divisible(n, k, p5) == want


def test_self_similarity_examples():
    # Shifting (n, k) by (i, j) blocks of 5**m, 0 <= j <= i <= 4, keeps
    # divisibility by 5, for 0 <= n, k < 5**m.
    for m, n, k, i, j in ((1, 3, 1, 1, 1), (0, 0, 0, 4, 2), (2, 24, 17, 3, 3)):
        assert _div5(n + i * 5 ** m, k + j * 5 ** m) == _div5(n, k)


def test_self_similarity_exhaustive_small_blocks():
    for m in (0, 1):
        s = 5 ** m
        for n in range(s):
            for k in range(s):
                for i in range(5):
                    for j in range(i + 1):
                        assert _div5(n + i * s, k + j * s) == _div5(n, k)


def test_period_mod2_examples():
    assert check_period_mod2(0, 2, 1) is True
    assert check_period_mod2(1, 0, 0) is True
    assert check_period_mod2(2, 7, 3) is True


def test_period_mod2_exhaustive_small():
    for m in (0, 1, 2, 3):
        period = 3 * 2 ** m
        for n in range(period):
            for k in range(period):
                assert check_period_mod2(m, n, k)


def test_period_mod2_domain_errors():
    with pytest.raises(ValueError):
        check_period_mod2(-1, 0, 0)
    with pytest.raises(ValueError):
        check_period_mod2(1, 6, 0)
    with pytest.raises(ValueError):
        check_period_mod2(1, 0, -1)


def test_fib_shift_mod5():
    # F_{n+5} = 3 F_n (mod 5)
    assert fib_mod(6, 5) == 3  # F_6 = 8
    assert fib_mod(10, 5) == 0  # F_10 = 55
    xs = fib_seq(205)
    for n in range(1, 201):
        assert fib_mod(n + 5, 5) == xs[n + 4] % 5 == 3 * xs[n - 1] % 5


def test_row_shift_mod5():
    # C(n+5, k) = 3**k C(n, k) (mod 5) for k <= 4, on exact coefficients
    # and on the modular row recurrence.
    examples = ((4, 1), (5, 2), (9, 0))
    assert [naive_fibonomial(n + 5, k) % 5 for n, k in examples] == [4, 0, 1]
    ft = fibotorial_seq(64)
    for n in range(60):
        row = fibonomial_row_mod(n + 5, 5).entries
        for k in range(min(n, 4) + 1):
            lhs = naive_fibonomial(n + 5, k, ft) % 5
            assert lhs == 3 ** k * naive_fibonomial(n, k, ft) % 5 == row[k]


@pytest.mark.parametrize("n, k, p, expected", [
    (109, 7, 7, 1),
    (4, 2, 2, 0),
    (17, 0, 3, 1),
])
def test_lucas_examples(n, k, p, expected):
    assert lucas_binomial_residue(n, k, p) == expected
    assert math.comb(n, k) % p == expected


def test_lucas_matches_comb():
    for p in (2, 3, 5, 7):
        for n in range(0, 301, 3):
            for k in range(0, n + 1, 2):
                assert lucas_binomial_residue(n, k, p) == math.comb(n, k) % p
    with pytest.raises(ValueError):
        lucas_binomial_residue(10, 2, 6)


def test_max_entry_point_primes():
    # Primes up to 110 whose entry point takes its maximum value p + 1.
    hit = [p for p in range(2, 111) if is_prime(p) and entry_point(p).p_star == p + 1]
    assert hit == [2, 3, 7, 23, 43, 67, 83, 103]


def test_sweep_record_jsonl_schema():
    verdicts = (
        ConjectureVerdict.compare(11, 100, 10, False, True),
        ConjectureVerdict.compare(11, 100, 20, True, True),
    )
    record = SweepRecord(11, 120, "oracle", verdicts, 1.25)
    lines = record.jsonl_lines()
    assert json.loads(lines[0]) == {"p": 11, "rows": 120, "method": "oracle"}
    assert json.loads(lines[1]) == {"p": 11, "n": 100, "k": 10,
                                    "lhs": False, "rhs": True, "agree": False}
    assert json.loads(lines[2]) == {"p": 11, "n": 100, "k": 20,
                                    "lhs": True, "rhs": True, "agree": True}
    assert json.loads(lines[3]) == {"counterexamples": 2, "seconds": None}
    fh = io.StringIO()
    record.write_jsonl(fh)
    assert fh.getvalue() == "".join(line + "\n" for line in lines)


def test_fib_mod_periodicity_supports_shift():
    # The residues of F mod 5 repeat with period 20; the factor-3 shift is
    # its square root in disguise. Pure sanity on the shift's premise.
    seq = [fib_mod(n, 5) for n in range(1, 41)]
    assert seq[:20] == seq[20:]
