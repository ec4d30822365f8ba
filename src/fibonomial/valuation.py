"""Entry points and p-adic valuations.

The fast path, nu_p_fibotorial, reads nu_p(F_1 ... F_n) off the entry
point in O(log n) steps for every prime, 2 included; a fibonomial valuation
is a difference of three such sums, which for odd p is the Knuth-Wilf
carry count in the entry-point base. The tests check it against that count
and against the oracle table here, read off word-size residues of each F_i.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple

from .core import fib, fib_mod


class Relation(enum.Enum):
    """How a prime's Fibonacci entry point compares with the prime itself."""

    LESS = "LESS"
    EQUAL = "EQUAL"
    GREATER = "GREATER"


class PrimeProfile(NamedTuple):
    """A prime p bundled with its Fibonacci entry point data.

    p_star is the least index z with p | F_z; nu_p_F_pstar is nu_p(F_z).
    """

    p: int
    p_star: int
    nu_p_F_pstar: int
    relation: Relation

    def to_json(self) -> dict:
        return {**self._asdict(), "relation": self.relation.value}


class Valuation(NamedTuple):
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
    rel = Relation.LESS if z < p else Relation.EQUAL if z == p else Relation.GREATER
    return PrimeProfile(p, z, nu, rel)


def nu_p_fibotorial(n: int, profile: PrimeProfile) -> int:
    """nu_p(F_1 ... F_n) for n >= 0, in O(log n) steps.

    Only the F_zi, z the entry point, are divisible by p: nu_p(F_zi) =
    nu_p(F_z) + nu_p(i) for odd p, and nu_2(F_3i) is 1 for odd i and
    nu_2(i) + 2 for even i (Lengyel 1995). Summed over i <= q = n // z by
    Legendre's formula, that is q * nu_p(F_z) + nu_p(q!), plus q // 2 at 2.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    q = n // profile.p_star
    total = q * profile.nu_p_F_pstar + (q // 2 if profile.p == 2 else 0)
    while q:
        q //= profile.p
        total += q
    return total


def carry_valuation(m: int, n: int, profile: PrimeProfile) -> Valuation:
    """nu_p of the fibonomial coefficient on (m+n, m), for every prime p.

    A difference of three nu_p_fibotorial sums. For odd p it counts the
    carries left of the radix point when m/z is added to n/z in base p,
    plus nu_p(F_z) if a carry crosses the radix point (Knuth and Wilf).
    """
    if m < 0 or n < 0:
        raise ValueError(f"operands must be >= 0, got ({m}, {n})")
    e = (nu_p_fibotorial(m + n, profile) - nu_p_fibotorial(m, profile)
         - nu_p_fibotorial(n, profile))
    return Valuation(e, "carry")


def fibotorial_valuations(limit: int, p: int) -> tuple[int, ...]:
    """Prefix table S with S[i] = nu_p(F_1 ... F_i) for 0 <= i <= limit.

    F_i is walked mod M = p**e, the largest power of p below 2**30 (one
    CPython int digit), or p itself. A nonzero residue r has nu_p(r) < e, so
    nu_p(F_i) = nu_p(r); where r = 0 the exact F_i is read instead. No entry
    point or closed form is involved: this is the oracle the closed form is
    measured against, in O(limit) word steps.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if p < 2:
        raise ValueError(f"prime must be >= 2, got {p}")
    big = p
    while big * p < 1 << 30:
        big *= p
    out, total = [0], 0
    a, b = 1, 1  # F_i, F_{i+1} mod big
    for i in range(1, limit + 1):
        if a % p == 0:
            x = a or fib(i)
            while x % p == 0:
                x, total = x // p, total + 1
        out.append(total)
        a, b = b, (a + b) % big
    return tuple(out)


def nu_p_fibonomial_oracle(n: int, k: int, p: int) -> Valuation:
    """nu_p of the fibonomial coefficient on (n, k) from the oracle table.

    A difference of three fibotorial_valuations entries, each summed over
    the Fibonacci factors one at a time; no carry shortcut is involved. The
    zero coefficient (k > n) has no valuation and is rejected.
    """
    if k > n or k < 0:
        raise ValueError(f"need 0 <= k <= n for a nonzero coefficient, got ({n}, {k})")
    s = fibotorial_valuations(n, p)
    return Valuation(s[n] - s[k] - s[n - k], "oracle")
