"""Entry points and p-adic valuations.

The fast path here (carry-counted fibonomial valuations) is only ever
trusted for odd primes and is cross-checked in the test suite against the
exact big-integer oracles also defined here. For p = 2 the carry count
gives wrong exponents (nu_2(F_6) = 3, not nu_2(F_3) + 1), so the oracle is
the only valuation path there; whether the addition carries at all still
decides divisibility by 2, which is all the conjecture sweep asks of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .core import fib
from .radix import add_with_carries


class Relation(enum.Enum):
    """How a prime's Fibonacci entry point compares with the prime itself."""

    LESS = "LESS"
    EQUAL = "EQUAL"
    GREATER = "GREATER"


@dataclass(frozen=True)
class PrimeProfile:
    """A prime p bundled with its Fibonacci entry point data.

    p_star is the least index z with p | F_z; nu_p_F_pstar is nu_p(F_z).
    """

    p: int
    p_star: int
    nu_p_F_pstar: int
    relation: Relation

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "p_star": self.p_star,
            "nu_p_F_pstar": self.nu_p_F_pstar,
            "relation": self.relation.value,
        }


@dataclass(frozen=True)
class Valuation:
    """A p-adic exponent together with the path that produced it."""

    exponent: int
    method: str  # "carry" | "oracle"


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


@lru_cache(maxsize=None)
def entry_point(p: int) -> PrimeProfile:
    """Profile a prime: least z with p | F_z, nu_p(F_z), and the relation class."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a, b = 1 % p, 1 % p
    z = 1
    while a != 0:
        a, b = b, (a + b) % p
        z += 1
        if z > p + 1:
            raise ArithmeticError(f"no entry point found for {p} below {p + 2}")
    nu = nu_p_int(fib(z), p).exponent
    if z < p:
        rel = Relation.LESS
    elif z == p:
        rel = Relation.EQUAL
    else:
        rel = Relation.GREATER
    return PrimeProfile(p, z, nu, rel)


def nu_p_int(x: int, p: int) -> Valuation:
    """Largest e with p**e dividing x; x must be positive."""
    if x <= 0:
        raise ValueError(f"valuation requires a positive integer, got {x}")
    if p < 2:
        raise ValueError(f"prime must be >= 2, got {p}")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return Valuation(e, "oracle")


def carry_valuation(m: int, n: int, profile: PrimeProfile) -> Valuation:
    """nu_p of the fibonomial coefficient on (m+n, m), for odd p, by carries.

    One unit per carry left of the radix point when m/z is added to n/z in
    base p, plus nu_p(F_z) if a carry crosses the radix point.
    """
    if profile.p == 2:
        raise ValueError("carry counting requires an odd prime; use the oracle for 2")
    report = add_with_carries(m, n, profile)
    e = report.carries_left
    if report.carry_across:
        e += profile.nu_p_F_pstar
    return Valuation(e, "carry")


def fibotorial_valuations(limit: int, p: int) -> tuple[int, ...]:
    """Prefix table S with S[i] = nu_p(fibotorial(i)) for 0 <= i <= limit.

    Built from exact Fibonacci integers, one factor at a time; this is the
    big-integer oracle the carry path is measured against.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if p < 2:
        raise ValueError(f"prime must be >= 2, got {p}")
    out = [0]
    a, b = 1, 1
    total = 0
    for _ in range(limit):
        x = a
        while x % p == 0:
            x //= p
            total += 1
        out.append(total)
        a, b = b, a + b
    return tuple(out)


def nu_p_fibonomial_oracle(n: int, k: int, p: int) -> Valuation:
    """nu_p of the fibonomial coefficient on (n, k) by exact big integers.

    Sums the valuations of the Fibonacci factors of the three fibotorials;
    no carry shortcut is involved. The zero coefficient (k > n) has no
    valuation and is rejected.
    """
    if k > n or k < 0:
        raise ValueError(f"need 0 <= k <= n for a nonzero coefficient, got ({n}, {k})")
    s = fibotorial_valuations(n, p)
    return Valuation(s[n] - s[k] - s[n - k], "oracle")
