"""Exact and modular Fibonacci, fibotorial, and fibonomial arithmetic.

Everything here is plain integer arithmetic on Python ints. Indexing is
1-based (F_1 = F_2 = 1); index 0 is a domain error for callers, and F_0 = 0
appears only inside the doubling routine and as a weight of the row
recurrence. These functions are the ground truth that the carry-counting
fast paths elsewhere in the package are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class TriangleRow:
    """One row of a coefficient triangle, optionally reduced mod `modulus`."""

    n: int
    entries: tuple[int, ...]
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
    # Fast doubling on (F_n, F_{n+1}), reduced mod m when one is given; the
    # recursion anchor F_0 = 0 is an internal identity only.
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1, m)
    c, d = a * (2 * b - a), a * a + b * b
    if n & 1:
        c, d = d, c + d
    if m is not None:
        c, d = c % m, d % m
    return c, d


def fibotorial(n: int) -> int:
    """Product F_n * F_{n-1} * ... * F_1; the empty product for n = 0."""
    if n < 0:
        raise ValueError(f"fibotorial argument must be >= 0, got {n}")
    out = 1
    a, b = 1, 1
    for _ in range(n):
        out *= a
        a, b = b, a + b
    return out


def fibonomial(n: int, k: int) -> int:
    """Fibonomial coefficient: fibotorial(n) / (fibotorial(k) * fibotorial(n-k)).

    Zero when k > n. The division is always exact; a nonzero remainder
    signals an arithmetic bug, not bad input.
    """
    if n < 0 or k < 0:
        raise ValueError(f"fibonomial arguments must be >= 0, got ({n}, {k})")
    if k > n:
        return 0
    q, r = divmod(fibotorial(n), fibotorial(k) * fibotorial(n - k))
    if r:
        raise ArithmeticError(f"fibonomial({n}, {k}) left remainder {r}")
    return q


def binomial(n: int, k: int) -> int:
    """Ordinary binomial coefficient; zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be >= 0, got ({n}, {k})")
    return math.comb(n, k)


def _weighted_rows(count: int, m: int | None, fibonacci: bool) -> Iterator[TriangleRow]:
    """Yield rows 0 .. count-1 of the weighted Pascal recurrence

        C(n, k) = w_{k+1} C(n-1, k) + w_{n-k-1} C(n-1, k-1),  0 < k < n,

    with the row edges pinned to 1, reduced mod m unless m is None. The
    Fibonacci weights w_i = F_i give the fibonomial triangle (F_0 = 0 drops
    the second term at k = n-1); the weights w_i = 1 give Pascal's triangle.
    """
    if count < 0:
        raise ValueError(f"row count must be >= 0, got {count}")
    if m is not None and m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if fibonacci:
        w = [0, 1]
        while len(w) < count:
            w.append(w[-1] + w[-2] if m is None else (w[-1] + w[-2]) % m)
    else:
        w = [1] * count
    row: list[int] = []
    for n in range(count):
        terms = zip(w[2:n + 1], row[1:], w[n - 2::-1], row[:-1])
        if m is None:
            inner = [a * x + b * y for a, x, b, y in terms]
        else:
            inner = [(a * x + b * y) % m for a, x, b, y in terms]
        row = [1, *inner, 1] if n else [1]
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
