import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibonomial.radix import (
    CarryReport,
    add_with_carries,
    expand_base_fp,
    expand_base_p,
)
from fibonomial.valuation import entry_point, fibotorial_valuations

from oracles import digits_le, digits_value, fibotorial_seq, naive_fibonomial, nu

PRIMES = (2, 3, 5, 7, 11, 13)
ODD_PRIMES = (3, 5, 7, 11, 13)


@pytest.mark.parametrize("n, p, expected", [
    (109, 7, (4, 1, 2)),
    (26, 7, (5, 3)),
    (0, 5, ()),
    (7, 7, (0, 1)),
])
def test_expand_base_p_examples(n, p, expected):
    assert expand_base_p(n, p) == expected


def test_expand_base_p_domain_errors():
    with pytest.raises(ValueError):
        expand_base_p(-1, 7)
    with pytest.raises(ValueError):
        expand_base_p(10, 1)


def test_expand_base_fp_examples():
    p11 = entry_point(11)
    assert expand_base_fp(100, p11) == (0, 10)
    assert expand_base_fp(10, p11) == (0, 1)
    assert expand_base_fp(0, p11) == ()
    for p in PRIMES:
        prof = entry_point(p)
        assert expand_base_fp(prof.p_star, prof) == (0, 1)


def test_expand_base_fp_digit_bounds():
    for p in PRIMES:
        prof = entry_point(p)
        for n in range(3000):
            digits = expand_base_fp(n, prof)
            for i, d in enumerate(digits):
                assert 0 <= d < (prof.p_star if i == 0 else prof.p)
            if digits:
                assert digits[-1] != 0


@pytest.mark.parametrize("digits, p, pstar, expected", [
    ((4, 1, 2), 7, None, 109),
    ((), 7, None, 0),
    ((0, 10), 11, 10, 100),
])
def test_evaluate_examples(digits, p, pstar, expected):
    # The reference inverse the round-trip tests rely on.
    assert digits_value(digits, p, pstar) == expected


def test_round_trip_dense():
    for p in PRIMES:
        prof = entry_point(p)
        seen = set()
        for n in range(4097):
            assert digits_value(expand_base_p(n, p), p) == n
            fp = expand_base_fp(n, prof)
            assert digits_value(fp, p, prof.p_star) == n
            assert fp not in seen  # expansions are injective
            seen.add(fp)


def test_digit_vector_json_round_trip():
    # A digit expansion survives a JSON round trip and still evaluates to n.
    fp = expand_base_fp(100, entry_point(11))
    obj = json.loads(json.dumps({"base": "Fp", "p": 11, "pstar": 10,
                                 "digits": list(fp)}))
    assert obj == {"base": "Fp", "p": 11, "pstar": 10, "digits": [0, 10]}
    assert digits_value(tuple(obj["digits"]), obj["p"], obj["pstar"]) == 100
    plain = json.loads(json.dumps(list(expand_base_p(109, 7))))
    assert plain == [4, 1, 2]
    assert digits_value(tuple(plain), 7) == 109


def test_expand_base_p_matches_divmod_oracle():
    for p in PRIMES:
        for n in range(2000):
            assert expand_base_p(n, p) == digits_le(n, p)


@given(st.integers(0, 10**6), st.sampled_from(PRIMES))
@settings(max_examples=300, deadline=None)
def test_round_trip_sampled(n, p):
    prof = entry_point(p)
    assert digits_value(expand_base_p(n, p), p) == n
    assert digits_value(expand_base_fp(n, prof), p, prof.p_star) == n


def test_add_with_carries_worked_example():
    report = add_with_carries(26, 31, entry_point(7))
    assert report == CarryReport(carries_left=1, carry_across=True,
                                 digit_sums=(7, 1))


def test_add_with_carries_zero_operand():
    for p in PRIMES:
        prof = entry_point(p)
        for n in (0, 1, 17, 500, 12345):
            report = add_with_carries(0, n, prof)
            assert report.carries_left == 0
            assert report.carry_across is False


def test_add_with_carries_units_boundary():
    report = add_with_carries(1, 4, entry_point(5))
    assert report.carries_left == 0
    assert report.carry_across is True
    # matches the exact valuation of the coefficient on (5, 1): F_5 = 5
    assert nu(naive_fibonomial(5, 1), 5) == 1


def test_add_with_carries_rejects_negative():
    with pytest.raises(ValueError):
        add_with_carries(-1, 3, entry_point(7))


def test_trace_replays_the_addition():
    # digit_sums must reconstruct the base-p sum of the integer parts.
    for p in ODD_PRIMES:
        prof = entry_point(p)
        for a in range(0, 900, 7):
            for b in range(0, 900, 11):
                report = add_with_carries(a, b, prof)
                qa, ra = divmod(a, prof.p_star)
                qb, rb = divmod(b, prof.p_star)
                width = max(len(digits_le(qa, p)), len(digits_le(qb, p))) + 1
                assert len(report.digit_sums) == width
                assert report.carry_across == (ra + rb >= prof.p_star)
                digits = []
                carries = 0
                for s in report.digit_sums:
                    digits.append(s % p)
                    carries += 1 if s >= p else 0
                assert carries == report.carries_left
                total = 0
                for d in reversed(digits):
                    total = total * p + d
                assert total == qa + qb + (1 if report.carry_across else 0)


def test_reformulation_soundness_exhaustive_small():
    # Carry count plus the boundary bonus equals the exact valuation of the
    # fibonomial coefficient, on every pair with a + b <= 120.
    ft = fibotorial_seq(120)
    for p in ODD_PRIMES:
        prof = entry_point(p)
        for a in range(121):
            for b in range(121 - a):
                report = add_with_carries(a, b, prof)
                got = report.carries_left
                if report.carry_across:
                    got += prof.nu_p_F_pstar
                coeff = naive_fibonomial(a + b, a, ft)
                assert got == nu(coeff, p), (p, a, b)


_PREFIX = {p: fibotorial_valuations(10000, p) for p in ODD_PRIMES}


@given(st.integers(0, 5000), st.integers(0, 5000), st.sampled_from(ODD_PRIMES))
@settings(max_examples=400, deadline=None)
def test_reformulation_soundness_sampled(a, b, p):
    prof = entry_point(p)
    report = add_with_carries(a, b, prof)
    got = report.carries_left + (prof.nu_p_F_pstar if report.carry_across else 0)
    s = _PREFIX[p]
    assert got == s[a + b] - s[a] - s[b]
