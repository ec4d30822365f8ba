import math
from decimal import Decimal
from functools import lru_cache

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fibonomial.core as core
from fibonomial.core import (
    fib,
    fib_mod,
    fibonomial,
    fibonomial_mod,
    fibonomial_row_mod,
    iter_binomial_rows_exact,
    iter_binomial_rows_mod,
    iter_fibonomial_rows_exact,
    iter_fibonomial_rows_mod,
)

from oracles import binomial, fib_mod_matrix, fib_seq, fibotorial_seq, naive_fibonomial


@pytest.mark.parametrize("n, expected", [
    (1, 1), (2, 1), (3, 2), (4, 3), (5, 5), (8, 21), (10, 55), (20, 6765),
])
def test_fib_known_values(n, expected):
    assert fib(n) == expected


def test_fib_matches_iterative_oracle():
    xs = fib_seq(400)
    for i, x in enumerate(xs, start=1):
        assert fib(i) == x


@pytest.mark.parametrize("n", [0, -1, -10])
def test_fib_rejects_nonpositive_index(n):
    with pytest.raises(ValueError):
        fib(n)


@pytest.mark.parametrize("n, m, expected", [
    (10, 11, 0),
    (1, 7, 1),
    (8, 7, 0),
    (10**6, 998244353, 603708274),
])
def test_fib_mod_examples(n, m, expected):
    assert fib_mod(n, m) == expected


def test_fib_mod_agrees_with_exact():
    xs = fib_seq(300)
    for m in (2, 3, 5, 7, 11, 1000003):
        for i, x in enumerate(xs, start=1):
            assert fib_mod(i, m) == x % m


@pytest.mark.parametrize("m", [7, 10**6 + 3])
def test_fib_mod_past_the_recursion_limit(m):
    # 2**1200 + 3 has 1,201 bits, past the interpreter's default recursion
    # limit of 1,000, so doubling must walk the bits without recursing.
    assert fib_mod(2**1200 + 3, m) == fib_mod_matrix(2**1200 + 3, m)


def test_fib_mod_domain_errors():
    with pytest.raises(ValueError):
        fib_mod(0, 7)
    with pytest.raises(ValueError):
        fib_mod(5, 1)
    with pytest.raises(ValueError):
        fib_mod(5, 0)


@pytest.mark.parametrize("n, expected", [(0, 1), (1, 1), (2, 1), (6, 240)])
def test_fibotorial_examples(n, expected):
    # The package multiplies out no whole fibotorial; the oracle the exact
    # coefficients are checked against does, and is pinned here.
    assert fibotorial_seq(n)[n] == expected


@pytest.mark.parametrize("n, k, expected", [
    (5, 2, 15),
    (6, 3, 60),
    (10, 1, 55),
    (0, 0, 1),
    (3, 5, 0),
    (7, 2, 104),
    (7, 3, 260),
])
def test_fibonomial_examples(n, k, expected):
    assert fibonomial(n, k) == expected


def test_fibonomial_rejects_negative():
    with pytest.raises(ValueError):
        fibonomial(-1, 0)
    with pytest.raises(ValueError):
        fibonomial(3, -2)


def test_fibonomial_symmetry():
    for n in range(61):
        for k in range(n // 2 + 1):
            assert fibonomial(n, k) == fibonomial(n, n - k)


def test_fibonomial_recurrence_matches_definition():
    # Weighted two-term recurrence; a weight whose index would hit 0 is
    # dropped, and the row edges are forced to 1 by the definition.
    fibs = fib_seq(41)
    for n in range(1, 41):
        assert fibonomial(n, 0) == 1 == fibonomial(n, n)
        for k in range(1, n):
            expected = fibs[k + 1 - 1] * fibonomial(n - 1, k)
            if n - k - 1 >= 1:
                expected += fibs[n - k - 1 - 1] * fibonomial(n - 1, k - 1)
            assert fibonomial(n, k) == expected


def test_fibonomial_integrality_dense():
    # Exact divisibility of the fibotorial quotient over a dense range, and
    # the library value at every pair with n <= 150.
    ft = fibotorial_seq(200)
    for n in range(201):
        for k in range(n + 1):
            q, r = divmod(ft[n], ft[k] * ft[n - k])
            assert r == 0
            if n <= 150:
                assert fibonomial(n, k) == q, (n, k)


@given(st.integers(0, 250), st.integers(0, 250))
@settings(max_examples=60, deadline=None)
def test_fibonomial_matches_oracle_sampled(n, k):
    assert fibonomial(n, k) == naive_fibonomial(n, k)


@lru_cache(maxsize=1)
def _fibotorials_to_1000():
    return fibotorial_seq(1000)


@seed(27)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_fibonomial_window_matches_oracle_to_1000(data):
    n = data.draw(st.integers(0, 1000))
    k = data.draw(st.integers(0, n + 1))
    assert fibonomial(n, k) == naive_fibonomial(n, k, _fibotorials_to_1000())


@pytest.mark.parametrize("n, k", [
    (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (3, 1), (3, 2),
    (40, 0), (40, 1), (40, 39), (40, 40), (40, 41), (1000, 1), (1000, 999), (1000, 1001),
])
def test_fibonomial_window_edges(n, k):
    # k = 0 and k = n are empty windows, k > n has none, j = 1 is one factor
    # a side.
    assert fibonomial(n, k) == naive_fibonomial(n, k)


def test_fibonomial_window_losing_a_factor_raises(monkeypatch):
    # F_9 F_10 F_11 over F_1 F_2 F_3 F_4 without F_12 = 144 leaves 34 * 55 *
    # 89 = 166430, which is not a multiple of 6.
    product = core._fib_product
    monkeypatch.setattr(core, "_fib_product",
                        lambda start, count: product(start, count - (start > 1)))
    with pytest.raises(ArithmeticError, match=r"fibonomial\(12, 4\) left remainder 2"):
        fibonomial(12, 4)


@pytest.mark.parametrize("n, m, expected", [
    (7, 10**9, (1, 13, 104, 260, 260, 104, 13, 1)),
    (9, 5, (1, 4, 4, 1, 1, 1, 1, 4, 4, 1)),
    (0, 2, (1,)),
])
def test_fibonomial_row_mod_examples(n, m, expected):
    row = fibonomial_row_mod(n, m)
    assert row.entries == expected
    assert row.n == n
    assert row.modulus == m
    assert len(row.entries) == n + 1


def test_fibonomial_row_mod_agrees_with_exact():
    ft = fibotorial_seq(40)
    for m in (2, 3, 4, 5, 6, 7, 11, 12, 64):
        for n in range(41):
            row = fibonomial_row_mod(n, m)
            expected = tuple(naive_fibonomial(n, k, ft) % m for k in range(n + 1))
            assert row.entries == expected


def test_fibonomial_rows_palindromic():
    for row in iter_fibonomial_rows_mod(60, 7):
        assert row.entries == row.entries[::-1]


def test_fibonomial_row_mod_domain_errors():
    with pytest.raises(ValueError):
        fibonomial_row_mod(-1, 5)
    with pytest.raises(ValueError):
        fibonomial_row_mod(3, 1)


def test_fibonomial_band_matches_full_rows_dense():
    # One coefficient from its window of Fibonacci ratios against every
    # entry of the row recurrence's first 150 rows, and the zeros past the
    # row's end. Each modulus but 243 and 1000003 has a prime that divides
    # some F_i, i < 150, too often for M = m**2, so M is squared at least once.
    for m in (2, 3, 4, 5, 6, 7, 8, 12, 25, 64, 243, 1000003):
        for row in iter_fibonomial_rows_mod(150, m):
            n = row.n
            got = tuple(fibonomial_mod(n, k, m) for k in range(n + 3))
            assert got == (*row.entries, 0, 0), (m, n)


def test_fibonomial_mod_domain_errors():
    # Arguments are checked before the k > n shortcut, with the CLI's words.
    for args, message in (((-1, 2, 5), r"arguments must be >= 0, got \(-1, 2\)"),
                          ((3, -1, 5), r"arguments must be >= 0, got \(3, -1\)"),
                          ((2, 3, 1), "modulus must be >= 2, got 1"),
                          ((2, 3, -4), "modulus must be >= 2, got -4")):
        with pytest.raises(ValueError, match=message):
            fibonomial_mod(*args)


def test_exact_row_iterator_matches_fibonomial():
    for row in iter_fibonomial_rows_exact(30):
        for k, e in enumerate(row.entries):
            assert e == fibonomial(row.n, k)
        assert row.modulus is None


def test_exact_rows_match_int_oracle_past_28_digits():
    # Exact rows are integral Decimals. Under a rounding context (28 digits
    # by default) fibonomial entries would go wrong from row 24 and binomial
    # entries from row 97.
    ft = fibotorial_seq(119)
    fib_rows = list(iter_fibonomial_rows_exact(120))
    for row in fib_rows:
        assert list(row.entries) == [naive_fibonomial(row.n, k, ft)
                                     for k in range(row.n + 1)], row.n
    binom_rows = list(iter_binomial_rows_exact(200))
    for row in binom_rows:
        assert list(row.entries) == [math.comb(row.n, k) for k in range(row.n + 1)], row.n
    for rows in (fib_rows, binom_rows):
        last = rows[-1].entries
        assert last[len(last) // 2].adjusted() + 1 > 28
        assert all(isinstance(e, Decimal) and e.as_tuple().exponent == 0 for e in last)


def test_binomial_rows_match_comb():
    exact = list(iter_binomial_rows_exact(20))
    for row in exact:
        assert row.entries == tuple(binomial(row.n, k) for k in range(row.n + 1))
    for m in (4, 6, 7, 12, 64):
        for row in iter_binomial_rows_mod(20, m):
            assert row.entries == tuple(e % m for e in exact[row.n].entries)


@pytest.mark.parametrize("n, k, expected", [(4, 2, 6), (7, 3, 35), (3, 5, 0)])
def test_binomial_examples(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)


def test_gcd_identity():
    # gcd(F_a, F_b) = F_gcd(a, b)
    xs = fib_seq(200)
    for a in range(1, 201):
        for b in range(a, 201):
            assert math.gcd(xs[a - 1], xs[b - 1]) == xs[math.gcd(a, b) - 1]


def test_divisibility_transfer():
    # F_n | F_m exactly when n | m
    xs = fib_seq(120)
    for n in range(3, 121):  # F_1 = F_2 = 1 divide everything
        for m in range(1, 121):
            assert (xs[m - 1] % xs[n - 1] == 0) == (m % n == 0)
