import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibonomial.core import (
    binomial,
    fib,
    fib_mod,
    fibonomial,
    fibonomial_row_mod,
    fibotorial,
    iter_binomial_rows_exact,
    iter_binomial_rows_mod,
    iter_fibonomial_rows_exact,
    iter_fibonomial_rows_mod,
)

from oracles import fib_seq, fibotorial_seq, naive_fibonomial


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


def test_fib_mod_domain_errors():
    with pytest.raises(ValueError):
        fib_mod(0, 7)
    with pytest.raises(ValueError):
        fib_mod(5, 1)
    with pytest.raises(ValueError):
        fib_mod(5, 0)


@pytest.mark.parametrize("n, expected", [(0, 1), (1, 1), (2, 1), (6, 240)])
def test_fibotorial_examples(n, expected):
    assert fibotorial(n) == expected


def test_fibotorial_matches_running_product():
    ft = fibotorial_seq(60)
    for n in range(61):
        assert fibotorial(n) == ft[n]
    with pytest.raises(ValueError):
        fibotorial(-1)


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
    # Exact divisibility of the fibotorial quotient over a dense range,
    # with the library value spot-checked on a stride.
    ft = fibotorial_seq(200)
    idx = 0
    for n in range(201):
        for k in range(n + 1):
            q, r = divmod(ft[n], ft[k] * ft[n - k])
            assert r == 0
            if idx % 17 == 0:
                assert fibonomial(n, k) == q
            idx += 1


@given(st.integers(0, 250), st.integers(0, 250))
@settings(max_examples=60, deadline=None)
def test_fibonomial_matches_oracle_sampled(n, k):
    assert fibonomial(n, k) == naive_fibonomial(n, k)


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
    with pytest.raises(ValueError):
        fibonomial_row_mod(3, 5, width=-1)


def test_fibonomial_band_matches_full_rows_dense():
    # The entry at (n, k) is read at column j = min(k, n-k) of a band of
    # width j; every (n, k) with k <= n < 150 has its j below 75.
    for m in (2, 4, 6, 7, 12, 64, 1000003):
        full = [row.entries for row in iter_fibonomial_rows_mod(150, m)]
        for j in range(75):
            for row in iter_fibonomial_rows_mod(150, m, width=j):
                n = row.n
                assert row.entries == full[n][:j + 1], (m, j, n)
                if n >= 2 * j:
                    assert row.entries[j] == full[n][n - j], (m, j, n)
        assert fibonomial_row_mod(149, m, width=30).entries == full[149][:31]


def test_exact_row_iterator_matches_fibonomial():
    for row in iter_fibonomial_rows_exact(30):
        for k, e in enumerate(row.entries):
            assert e == fibonomial(row.n, k)
        assert row.modulus is None


def test_binomial_rows_match_comb():
    exact = list(iter_binomial_rows_exact(20))
    for row in exact:
        assert row.entries == tuple(math.comb(row.n, k) for k in range(row.n + 1))
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
