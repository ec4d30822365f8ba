"""Divisibility-conjecture machinery for the fibonomial triangle.

The conjecture under test: for a prime p whose entry point z is not below
p, p divides the fibonomial coefficient on (n, k) exactly when p divides
the product of the digitwise fibonomial coefficients of n and k expanded
in the entry-point base. Sweeps check the carry test, which for these
primes is both sides, against the exact oracle; as only the F_{mz} carry p,
both are read off the quotient by z, one packed row per block of z rows.
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
from .radix import expand_base_fp, expand_base_p
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


# 100,000 rows are 5 * 10**9 pairs. A serial sweep of them took 0.69 s at
# p = 7 and 5.1 s at p = 2, where the blocks of z rows are smallest
# (fresh processes, medians of 5, BENCH_exact.json).
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
    work = (repeat(profile), [lo for lo, _ in spans], [hi for _, hi in spans],
            repeat(prefix))
    if len(spans) <= 1:
        list(map(_sweep_rows, *work))
    else:
        # Imported here: the process machinery costs every CLI command
        # tens of milliseconds of start-up, and only pooled sweeps use it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            list(pool.map(_sweep_rows, *work))
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
    base carries (Knuth and Wilf), p = 2 included: when some digit of k
    exceeds the matching digit of n. As z >= p, F_1 ... F_{z-1} are prime to
    p, so a digit factor C(a, b)_F is divisible exactly when b > a: the
    carry bits are the digit product's.

    Only the F_{mz} carry p, so the oracle prefix[i] = nu_p(F_1 ... F_i)
    is constant on each block [mz, mz + z); that is checked first for every
    i < hi, and a step inside a block raises. Let Q[m] = prefix[mz] (heads
    below), n = qz + u and k = jz + t. Where t <= u the exponent is Q[q] -
    Q[j] - Q[q - j] and the sum carries exactly when a base-p digit of j
    exceeds q's; where t > u it is Q[q] - Q[j] - Q[q - 1 - j], and the units
    column carries. Every pair of the span falls in one of the two, so both
    are checked on the quotient rows q of the span, [lo // z, ceil(hi / z)),
    every j at once; the second only where the span holds a row of block q
    with u < z - 1, as only then does it hold a pair with t > u.

    Each side of quotient row q is an integer with a (b + 1)-bit field per
    j; b >= 1 is the bit length of twice the largest of Q, which is packed
    once forwards and reversed. Oracle: (2**(b-1) + Q[q] - 1) * ones - rev,
    once per distinct total, shifted, plus 2**(b-1) * ones - fwd is 2**b +
    Q[q] - 1 - Q[j] - Q[q - j] in field j: bit b is set where p divides, and
    no field borrows. Shifted one field further it reads Q[q - 1 - j], and
    then every bit b below field q must be set. Carry side: an odometer over
    q's base-p digits keeps the j with no digit above q's in one integer, a
    shift and an add a row. A quotient row costs a few operations on q(b +
    1)-bit integers and O(1) Python steps. A mismatch names the first pair
    of the span, in row-major order, that falls in a failing class.
    """
    p, z = profile.p, profile.p_star
    if lo >= hi:
        return
    x = prefix[:hi]
    heads = x[::z]
    if any(x[t::z] != heads[:len(range(t, hi, z))] for t in range(1, min(z, hi))):
        i = next(i for i, v in enumerate(x) if v != heads[i // z])
        raise ArithmeticError(
            f"oracle table steps inside a block at i={i}: {x[i]} against "
            f"{heads[i // z]} at i={i - i % z} (z={z}, p={p})")
    first, end = lo // z, len(heads)
    b = (2 * max(heads) | 1).bit_length()
    f, half = b + 1, 1 << b - 1
    cell = {v: format(v, f"0{f}b") for v in set(heads)}
    rev, fwd = (int("".join(map(cell.get, y)), 2) for y in (heads, reversed(heads)))
    ones = ((1 << f * end) - 1) // ((1 << f) - 1)
    guards, low = ones << b, half * ones - fwd
    # levels[i]: quotients j with digits 0 below place i, at most q's from i up.
    digits = [*expand_base_p(first, p), *[0] * end.bit_length()]
    levels = [1 << b]
    for i in reversed(range(len(digits))):
        levels.insert(0, sum(levels[0] << f * p**i * t for t in range(digits[i] + 1)))
    mask, total = (1 << f * first) - 1, None
    for q in range(first, end):
        below, mask = mask, (1 << f * (q + 1)) - 1
        if heads[q] != total:
            total = heads[q]
            top = (half + total - 1) * ones - rev
        high = top >> f * (end - 1 - q)
        full = guards & below
        carry = full - (levels[0] & below)
        held = (high + (low & mask)) & guards
        crossed = ((high >> f) + (low & below)) & guards
        n = max(lo, q * z)
        if held != carry or crossed != full and n % z < z - 1:
            k = min(((d & -d).bit_length() - 1) // f * z + t
                    for d, t in ((held ^ carry, 0), (crossed ^ full, n % z + 1))
                    if d and t < z)
            e = x[n] - x[k] - x[n - k]
            raise ArithmeticError(
                f"carry test {e < 1} disagrees with oracle exponent {e} "
                f"at (n={n}, k={k}, p={p})")
        i = 0
        while digits[i] == p - 1:
            digits[i], i = 0, i + 1
        digits[i] += 1
        levels[i] += levels[i + 1] << f * p**i * digits[i]
        levels[:i] = [levels[i]] * i


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
