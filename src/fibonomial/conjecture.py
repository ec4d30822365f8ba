"""Divisibility-conjecture machinery for the fibonomial triangle.

The conjecture under test: for a prime p whose entry point z is not below
p, p divides the fibonomial coefficient on (n, k) exactly when p divides
the product of the digitwise fibonomial coefficients of n and k expanded
in the entry-point base. Sweeps check the carry test, which for these
primes is both sides, against the exact oracle one digit place at a time.
For primes with z < p the biconditional provably fails and a constructive
witness is produced instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat, zip_longest
from math import isqrt

from . import radix
from .radix import expand_base_fp
from .valuation import PrimeProfile, Relation, carry_valuation, fibotorial_valuations

# Re-exported: perfbench/tracing.py wraps it under this module's name.
lucas_binomial_residue = radix.lucas_binomial_residue


@dataclass(frozen=True)
class ConjectureVerdict:
    """Both sides of the biconditional at a single (n, k)."""

    p: int
    n: int
    k: int
    lhs_divisible: bool  # p divides the fibonomial coefficient itself
    rhs_divisible: bool  # p divides the digit product
    agrees: bool

    @classmethod
    def compare(cls, p: int, n: int, k: int, lhs: bool, rhs: bool) -> "ConjectureVerdict":
        return cls(p, n, k, lhs, rhs, lhs == rhs)


@dataclass(frozen=True)
class SweepRecord:
    """Result of sweeping rows [0, rows) for one prime."""

    p: int
    rows: int
    counterexamples: tuple[ConjectureVerdict, ...]
    seconds: float

    def jsonl_lines(self) -> list[str]:
        """Header, one line per disagreement, then a summary.

        The header names the left-hand side's method, carry counting, for
        every prime. The summary's "seconds" is written as null so identical
        sweeps serialize identically; the measured duration stays on the
        record. Each line is the text json.dumps gives for its object.
        """
        lines = [f'{{"p": {self.p}, "rows": {self.rows}, "method": "carry"}}']
        for v in self.counterexamples:
            lhs, rhs, agree = (str(b).lower()
                               for b in (v.lhs_divisible, v.rhs_divisible, v.agrees))
            lines.append(f'{{"p": {v.p}, "n": {v.n}, "k": {v.k}, '
                         f'"lhs": {lhs}, "rhs": {rhs}, "agree": {agree}}}')
        lines.append(f'{{"counterexamples": {len(self.counterexamples)}, "seconds": null}}')
        return lines


@lru_cache(maxsize=None)
def _digit_factor_divisible(a: int, b: int, profile: PrimeProfile) -> bool:
    # b > a gives the zero coefficient, which every prime divides.
    return b > a or carry_valuation(b, a - b, profile).exponent >= 1


def _pairs_divisible(nd: tuple[int, ...], kd: tuple[int, ...],
                     profile: PrimeProfile) -> bool:
    for a, b in zip_longest(nd, kd, fillvalue=0):
        if _digit_factor_divisible(a, b, profile):
            return True
    return False


def digit_product_divisible(n: int, k: int, profile: PrimeProfile) -> bool:
    """Whether p divides the product of positionwise fibonomial coefficients
    of the digits of n and k in the entry-point base (k zero-padded)."""
    nd = expand_base_fp(n, profile)
    kd = expand_base_fp(k, profile)
    return _pairs_divisible(nd, kd, profile)


# 100,000 rows are 5 * 10**9 pairs. A serial sweep of them took 0.11 s at
# p = 2, 0.10 s at p = 7 and 0.09 s at p = 163 against 0.07 s for `fib 1`
# (fresh processes, 2-vCPU VM, medians of 5, BENCH_sweep_certificate.json);
# a table failing the certificate yet keeping its verdicts can take minutes.
MAX_SWEEP_ROWS = 100_000


def validate_sweep(profile: PrimeProfile, rows: int, *, jobs: int = 1) -> None:
    """Reject a sweep verify_conjecture would refuse, before any work or
    output."""
    if profile.relation is Relation.LESS:
        raise ValueError(
            f"entry point {profile.p_star} of {profile.p} is below the prime, so the "
            "biconditional provably fails; use find_counterexample (verify "
            "--counterexample) for the witness")
    if rows < 0:
        raise ValueError(f"rows must be >= 0, got {rows}")
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"rows must be <= {MAX_SWEEP_ROWS}, got {rows}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def verify_conjecture(profile: PrimeProfile, rows: int, *, jobs: int = 1) -> SweepRecord:
    """Check the biconditional at every (n, k) with 0 <= k <= n < rows.

    The carry test is both sides (see _sweep_rows), so the record holds no
    disagreement; the oracle table of fibotorial_valuations confirms it at
    every pair, and a mismatch is an arithmetic bug and raises. The rows
    are split by _row_chunks into at most jobs contiguous spans, one per
    worker process; a sweep too short to pay for a pool is one span and
    runs in this process. Arguments are checked by validate_sweep.
    """
    validate_sweep(profile, rows, jobs=jobs)

    start = time.perf_counter()
    prefix = fibotorial_valuations(max(rows - 1, 0), profile.p)
    spans = _row_chunks(rows, jobs, profile.p_star)
    if len(spans) <= 1:
        _sweep_rows(profile, 0, rows, prefix)
    else:
        # Imported here: the process machinery costs every CLI command
        # tens of milliseconds of start-up, and only pooled sweeps use it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            list(pool.map(_sweep_rows, repeat(profile), [lo for lo, _ in spans],
                          [hi for _, hi in spans], repeat(prefix)))
    return SweepRecord(profile.p, rows, (), time.perf_counter() - start)


# A sweep packs one row per block of z rows, so the floor counts pairs of
# blocks: c(c + 1)/4 a worker at c = 6,250, from which fresh `verify --jobs
# 2` beat `--jobs 1` at every measured row count at both p = 2 and p = 7
# (BENCH_pool.json); p = 163 and 10007 never reach it. Only two workers
# were measured, so the floor decides whether a pool starts, not its size.
MIN_SPAN_PAIRS = 6250 * 6251 // 4


def _row_chunks(rows: int, jobs: int, z: int) -> list[tuple[int, int]]:
    """Split [0, rows) into at most min(jobs, c) contiguous, non-empty spans,
    c = ceil(rows / z) the blocks of z rows, cut at multiples of z so that
    no two spans sweep one quotient row. The c blocks hold c(c + 1)/2 pairs
    of blocks, so for spans of about equal pair count the i-th of j spans
    ends near block c * sqrt(i / j). A sweep of fewer than 2 *
    MIN_SPAN_PAIRS such pairs, too short to pay two workers' start-up, is
    one span and runs in process."""
    c = -(-rows // z)
    if c * (c + 1) // 2 < 2 * MIN_SPAN_PAIRS:
        jobs = 1
    jobs = max(min(jobs, c), 1)
    ends = [min(isqrt(i * c * c // jobs) * z, rows) for i in range(jobs + 1)]
    return [(lo, hi) for lo, hi in zip(ends, ends[1:]) if lo < hi]


def _sweep_rows(profile: PrimeProfile, lo: int, hi: int,
                prefix: tuple[int, ...]) -> None:
    """Check the carry test against the oracle at every pair of rows [lo,
    hi) of a prime whose entry point z is at least p; raise ArithmeticError
    at the first pair where they disagree.

    The coefficient is divisible when adding k to n - k in the entry-point
    base carries (Knuth and Wilf), p = 2 included. As z >= p, F_1 ...
    F_{z-1} are prime to p, so these carry bits are the digit product's.
    Only the F_{mz} carry p, so the oracle prefix[i] = nu_p(F_1 ... F_i) is
    constant on each block [mz, mz + z): that is checked first for every i
    < hi, in min(z, c) slice comparisons for the c blocks, and a step inside
    a block raises, as does a negative entry. Let Q[m] = prefix[mz] (heads
    below), n = qz + u and k = jz + t. Where t <= u the exponent is Q[q] -
    Q[j] - Q[q - j], and the sum carries exactly when a base-p digit of j
    exceeds q's; where t > u it is Q[q] - Q[j] - Q[q - 1 - j], and the units
    column carries. _certified_rows finds the quotient rows [0, L) where
    both hold at every j, all c for the exact table. From quotient row
    max(lo // z, L) on, both are tested one j at a time, the second only
    where block q holds a row of the span with u < z - 1. A mismatch names
    the first pair of the span, in row-major order, in a failing class.
    """
    p, z = profile.p, profile.p_star
    if lo >= hi:
        return
    x = prefix[:hi]
    heads = x[::z]
    end = len(heads)
    if z < end:
        stepped = any(x[t::z] != heads[:len(range(t, hi, z))] for t in range(1, z))
    else:
        stepped = sum(map(tuple.count, [x[a:a + z] for a in range(0, hi, z)], heads)) < hi
    if stepped:
        i = next(i for i, v in enumerate(x) if v != heads[i // z])
        raise ArithmeticError(
            f"oracle table steps inside a block at i={i}: {x[i]} against "
            f"{heads[i // z]} at i={i - i % z} (z={z}, p={p})")
    if min(heads) < 0:
        i = next(i for i, v in enumerate(x) if v < 0)
        raise ArithmeticError(f"oracle table is negative at i={i}: {x[i]} (z={z}, p={p})")
    for q in range(max(lo // z, _certified_rows(heads, p)), end):
        n, top = max(lo, q * z), heads[q]
        k = next((j * z for j in range(q + 1)
                  if (top - heads[j] - heads[q - j] >= 1) != _digit_exceeds(j, q, p)), hi)
        if n % z < z - 1:
            k = min(k, next((j * z + n % z + 1 for j in range(q)
                             if top - heads[j] - heads[q - 1 - j] < 1), hi))
        if k < hi:
            e = x[n] - x[k] - x[n - k]
            raise ArithmeticError(
                f"carry test {e < 1} disagrees with oracle exponent {e} "
                f"at (n={n}, k={k}, p={p})")


def _certified_rows(heads: tuple[int, ...], p: int) -> int:
    """The length L of the run of quotient rows [0, L) on which heads, the
    oracle at the block starts, keeps every carry verdict, read off it one
    place of the base (z, p, p, ...) at a time in O(len(heads)) steps.

    Level 0: each rise heads[m] - heads[m - 1] is at least 1. Each later
    level takes V, from heads on, with s = V[1] and W = V[::p], and requires
    (a) V[i] = W[i // p] + (i % p) * s and (b) W[m] - W[m - 1] - p * s >= 1:
    up to the first failure, rises of V equal to s off the multiples of p
    and above s on them. With q = ap + u and j = cp + t, u, t < p, V[q] -
    V[j] - V[q - j] is then W[a] - W[c] - W[a - c], plus the rise (b) at a -
    c where t > u, so by induction up the levels it is at least 1 exactly
    when a base-p digit of j exceeds q's; (a) at i = 1 puts V[0] = 0, where
    it ends. A failure at index i of V = heads[::p**l] bounds L by i *
    p**l, the first quotient row that reads it. The exact table's rises are
    nu_p(F_mz) at level 0, then 1 + nu_p(m), or 2 + nu_2(m) at p = 2 and
    level 1 (Lengyel 1995), so its L is len(heads).
    """
    rows = next((m for m in range(1, len(heads)) if heads[m] <= heads[m - 1]), len(heads))
    v, scale = heads, 1
    while scale < rows:
        bad = next((i for i in range(1, len(v)) if (
            v[i] - v[i - 1] != v[1] if i % p else v[i] - v[i - 1] <= v[1])), rows)
        rows, v, scale = min(rows, bad * scale), v[::p], scale * p
    return rows


def _digit_exceeds(j: int, q: int, p: int) -> bool:
    """Whether some base-p digit of j exceeds the matching digit of q."""
    while j and j % p <= q % p:
        j, q = j // p, q // p
    return j > 0


def find_counterexample(profile: PrimeProfile) -> tuple[int, int, ConjectureVerdict]:
    """Constructive witness breaking the biconditional when z < p.

    At (z**2, z) the digit product picks up the factor F_z and is divisible
    by p, while the coefficient itself is not; both sides are computed, not
    assumed.
    """
    if profile.relation is not Relation.LESS:
        raise ValueError(
            f"entry point {profile.p_star} of {profile.p} is not below the prime; "
            "no witness is constructed for this class")
    z = profile.p_star
    n, k = z * z, z
    lhs = carry_valuation(k, n - k, profile).exponent >= 1
    rhs = digit_product_divisible(n, k, profile)
    return n, k, ConjectureVerdict.compare(profile.p, n, k, lhs, rhs)


# Unused by the library; kept while the benchmark's cache reset clears it.
_rows_mod_cache: dict[int, list[tuple[int, ...]]] = {}
