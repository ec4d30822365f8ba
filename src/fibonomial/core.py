"""Exact and modular Fibonacci and fibonomial arithmetic.

Everything here is plain integer arithmetic: on Python ints, except exact
triangle rows, which are integral Decimals computed in base ten. Indexing is
1-based (F_1 = F_2 = 1); index 0 is a domain error for callers, and F_0 = 0
appears only inside the doubling routine and as a weight of the row
recurrence. No whole product F_1 ... F_n is ever multiplied out. These
functions are the ground truth for the carry-counting fast paths elsewhere.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    from decimal import Decimal


class TriangleRow(NamedTuple):
    """One row of a coefficient triangle, optionally reduced mod `modulus`.

    Residues are ints. Exact entries (modulus None) are integral Decimals,
    so printing one is linear in its digits; they compare and hash equal to
    the ints they stand for.
    """

    n: int
    entries: tuple[int | Decimal, ...]
    modulus: int | None = None


def fib(n: int) -> int:
    """Return the n-th Fibonacci number (1-indexed, F_1 = F_2 = 1)."""
    if n < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {n}")
    return _fib_pair(n)[0]


def fib_mod(n: int, m: int) -> int:
    """Return F_n mod m without materializing the full integer."""
    if n < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {n}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return _fib_pair(n, m)[0]


def _fib_pair(n: int, m: int | None = None) -> tuple[int, int]:
    # Fast doubling on (F_n, F_{n+1}) over the bits of n from the top,
    # reduced mod m when one is given; the start F_0 = 0 is an internal
    # identity only.
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
        if m is not None:
            a, b = a % m, b % m
    return a, b


def fibonomial(n: int, k: int) -> int:
    """Fibonomial coefficient C(n, k)_F = F_1 ... F_n / (F_1 ... F_k * F_1 ... F_{n-k}).

    Zero when k > n. Only the window fibonomial_mod walks is multiplied out:
    F_{n-j+1} ... F_n over F_1 ... F_j, j = min(k, n - k). The division is
    always exact; a remainder signals an arithmetic bug, not bad input.
    """
    if n < 0 or k < 0:
        raise ValueError(f"fibonomial arguments must be >= 0, got ({n}, {k})")
    if k > n:
        return 0
    j = min(k, n - k)
    q, r = divmod(_fib_product(n - j + 1, j), _fib_product(1, j))
    if r:
        raise ArithmeticError(f"fibonomial({n}, {k}) left remainder {r}")
    return q


def _fib_product(start: int, count: int) -> int:
    # F_start ... F_{start+count-1}, multiplied in neighbouring pairs (an odd
    # last one waits a round) until one is left, so each big multiplication
    # meets operands of about equal size, where CPython's Karatsuba pays off.
    a, b = _fib_pair(start)
    xs = []
    for _ in range(count):
        xs.append(a)
        a, b = b, a + b
    while len(xs) > 1:
        xs = [x * y for x, y in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1:]
    return xs[0] if xs else 1


def fibonomial_mod(n: int, k: int, m: int) -> int:
    """C(n, k)_F mod m from its j = min(k, n - k) ratios F_{n-j+i} / F_i, each
    split mod M = m**2, m**4, ... as g * u with g = gcd(F, M). Once m | M / g,
    g is F's whole part over the primes of m and u is a unit mod m; else M is
    squared and the window restarts. Partial products are C(n - j + t, t)_F,
    so the g parts divide out exactly. O(j + log n) steps; m is not factored.
    """
    if n < 0 or k < 0:
        raise ValueError(f"fibonomial arguments must be >= 0, got ({n}, {k})")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if k > n:
        return 0
    j, big = min(k, n - k), m * m
    while True:
        part, top, bottom = 1, 1, 1
        (a, b), (c, d) = _fib_pair(n - j + 1, big), (1, 1)  # F_{n-j+i}, F_i, successors
        for _ in range(j):
            g, h = math.gcd(a, big), math.gcd(c, big)
            if big // g % m or big // h % m:
                break
            part, top, bottom = part * g // h, top * (a // g) % m, bottom * (c // h) % m
            a, b, c, d = b, (a + b) % big, d, (c + d) % big
        else:
            return part * top * pow(bottom, -1, m) % m
        big *= big


def _weighted_rows(count: int, m: int | None, fibonacci: bool) -> Iterator[TriangleRow]:
    """Yield rows 0 .. count-1 of the weighted Pascal recurrence

        C(n, k) = w_{k+1} C(n-1, k) + w_{n-k-1} C(n-1, k-1),  0 < k < n,

    with the row edges pinned to 1, reduced mod m unless m is None. The
    Fibonacci weights w_i = F_i give the fibonomial triangle (F_0 = 0 drops
    the second term at k = n-1); the weights w_i = 1 give Pascal's triangle.

    Exact rows (m None) are computed in base ten, as integral Decimals, so
    no entry needs a radix conversion to be printed. Their arithmetic goes
    through one context with the largest precision and exponent range there
    are, which traps Inexact and Rounded, never through the ambient context,
    whose 28 digits would round without an error.
    """
    if count < 0:
        raise ValueError(f"row count must be >= 0, got {count}")
    if m is not None and m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if m is None:
        # Imported here: every CLI command would pay for it at start-up, and
        # only exact triangles use it.
        from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal,
                             Inexact, Rounded)

        exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                        traps=[Inexact, Rounded])
        add, mul, fma = exact.add, exact.multiply, exact.fma
        zero, one = Decimal(0), Decimal(1)
    else:
        zero, one = 0, 1
    if fibonacci:
        w = [zero, one]
        while len(w) < count:
            w.append(add(w[-1], w[-2]) if m is None else (w[-1] + w[-2]) % m)
    else:
        w = [one] * count
    row: list[int | Decimal] = []
    for n in range(count):
        terms = zip(w[2:n + 1], row[1:], w[n - 2::-1], row[:-1])
        if m is None:
            inner = [fma(a, x, mul(b, y)) for a, x, b, y in terms]  # a*x + b*y
        else:
            inner = [(a * x + b * y) % m for a, x, b, y in terms]
        row = [one, *inner, one] if n else [one]
        yield TriangleRow(n, tuple(row), m)


def iter_fibonomial_rows_mod(count: int, m: int) -> Iterator[TriangleRow]:
    """Yield fibonomial triangle rows 0 .. count-1 reduced mod m."""
    return _weighted_rows(count, m, fibonacci=True)


def iter_fibonomial_rows_exact(count: int) -> Iterator[TriangleRow]:
    """Yield exact fibonomial triangle rows 0 .. count-1."""
    return _weighted_rows(count, None, fibonacci=True)


def iter_binomial_rows_mod(count: int, m: int) -> Iterator[TriangleRow]:
    """Yield Pascal triangle rows 0 .. count-1 reduced mod m."""
    return _weighted_rows(count, m, fibonacci=False)


def iter_binomial_rows_exact(count: int) -> Iterator[TriangleRow]:
    """Yield exact Pascal triangle rows 0 .. count-1."""
    return _weighted_rows(count, None, fibonacci=False)


def fibonomial_row_mod(n: int, m: int) -> TriangleRow:
    """Row n of the fibonomial triangle mod m, never touching big integers."""
    if n < 0:
        raise ValueError(f"row index must be >= 0, got {n}")
    row = None
    for row in iter_fibonomial_rows_mod(n + 1, m):
        pass
    assert row is not None
    return row
