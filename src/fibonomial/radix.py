"""Digit expansions in base p and in the entry-point base, plus
add_with_carries, the column-by-column addition that the closed-form
valuation is tested against (perfbench/tracing.py also binds it).

For a prime p whose Fibonacci entry point is z, the entry-point base has
place values (1, z, z*p, z*p**2, ...): the units digit is below z and
every later digit is below p.

Also here: the classical digit-product residue for ordinary binomials.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb
from typing import NamedTuple

from .valuation import PrimeProfile, is_prime


class CarryReport(NamedTuple):
    """Outcome of adding a/z and b/z positionally in base p.

    carries_left counts the carries among integer-part columns (left of the
    radix point); carry_across is the single possible carry out of the
    fractional part into the units column. digit_sums[i] is the full column
    sum (both digits plus incoming carry) for integer column i, so a caller
    can replay the addition column by column.
    """

    carries_left: int
    carry_across: bool
    digit_sums: tuple[int, ...]


def expand_base_p(n: int, p: int) -> tuple[int, ...]:
    """Little-endian base-p digits of n; zero expands to the empty tuple."""
    if n < 0:
        raise ValueError(f"cannot expand negative integer {n}")
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(digits)


def expand_base_fp(n: int, profile: PrimeProfile) -> tuple[int, ...]:
    """Little-endian digits of n in the entry-point base of profile.

    The units digit is n mod z (z = profile.p_star); the remaining digits
    are the plain base-p expansion of n // z. Zero expands to the empty
    tuple, and no other expansion ends in a zero digit.
    """
    if n < 0:
        raise ValueError(f"cannot expand negative integer {n}")
    q, units = divmod(n, profile.p_star)
    rest = expand_base_p(q, profile.p)
    return (units, *rest) if (rest or units) else ()


def add_with_carries(a: int, b: int, profile: PrimeProfile) -> CarryReport:
    """Add a/z to b/z in base p and report the carries, z = profile.p_star.

    The fractional parts a mod z and b mod z produce a carry into the units
    column exactly when they sum to at least z; the integer parts a//z and
    b//z are then added in plain base p with that carry fed in. The trace
    extends one column past the longer operand so a final carry lands in it.
    """
    if a < 0 or b < 0:
        raise ValueError(f"operands must be >= 0, got ({a}, {b})")
    z, p = profile.p_star, profile.p
    qa, ra = divmod(a, z)
    qb, rb = divmod(b, z)
    across = ra + rb >= z
    da = expand_base_p(qa, p)
    db = expand_base_p(qb, p)
    width = max(len(da), len(db)) + 1
    carry = 1 if across else 0
    carries = 0
    sums = []
    for i in range(width):
        s = carry
        if i < len(da):
            s += da[i]
        if i < len(db):
            s += db[i]
        sums.append(s)
        if s >= p:
            carry = 1
            carries += 1
        else:
            carry = 0
    return CarryReport(carries, across, tuple(sums))


def lucas_binomial_residue(n: int, k: int, p: int) -> int:
    """Ordinary binomial coefficient mod p as the product of digitwise
    binomials in base p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0 or k < 0:
        raise ValueError(f"arguments must be >= 0, got ({n}, {k})")
    out = 1
    for a, b in zip_longest(expand_base_p(n, p), expand_base_p(k, p), fillvalue=0):
        out = out * comb(a, b) % p
    return out
