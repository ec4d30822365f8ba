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

from .core import fib_mod
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


# Miller-Rabin on the primes 2..41 as bases is exact below this bound
# (Sorenson & Webster 2016); is_prime refuses anything at or above it.
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# entry_point trial-divides p - (5/p); at this bound that takes under a second.
ENTRY_POINT_LIMIT = 10 ** 13


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below PRIME_TEST_LIMIT."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(
            f"primality is decided only below {PRIME_TEST_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def entry_point(p: int) -> PrimeProfile:
    """Profile a prime: least z with p | F_z, nu_p(F_z), and the relation class.

    z divides m = p - (5/p) (Lucas 1878; Wall 1960), m = p - 1 for
    p = +-1 (mod 5) and p + 1 for p = +-2 (mod 5); so z is m with each
    prime factor divided out as often as F stays 0 mod p. The cost is
    the trial division of m, so p is refused above ENTRY_POINT_LIMIT.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > ENTRY_POINT_LIMIT:
        raise ValueError(
            f"entry points are computed for primes up to {ENTRY_POINT_LIMIT}, got {p}")
    if p == 5:
        z = 5
    else:  # p = 2 gets m = 3, which is its z
        z = p - 1 if p % 5 in (1, 4) else p + 1
        for q in _prime_factors(z):
            while z % q == 0 and fib_mod(z // q, p) == 0:
                z //= q
    nu = 1
    while fib_mod(z, p ** (nu + 1)) == 0:
        nu += 1
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
