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


# 100,000 rows are 5 * 10**9 pairs. A serial sweep of them took 0.50 s at
# p = 7 and 3.7 s at p = 2, where the blocks of z rows are smallest (fresh
# processes on a 2-vCPU VM, medians of 5, BENCH_sweep_kernel.json).
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


def _pack(values: tuple[int, ...], width: int) -> int:
    """values[j] in bits [j * width, (j + 1) * width) of one integer, by
    shifts: runs of 32 values one shift at a time, then the runs joined
    pairwise, in O(len(values)) Python steps where one shift a value would
    take quadratic time."""
    runs = []
    for i in range(0, len(values), 32):
        run = 0
        for v in reversed(values[i:i + 32]):
            run = run << width | v
        runs.append(run)
    width *= 32
    while len(runs) > 1:
        runs = [a | c << width for a, c in zip_longest(runs[::2], runs[1::2], fillvalue=0)]
        width *= 2
    return runs[0] if runs else 0


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

    Only the F_{mz} carry p, so the oracle prefix[i] = nu_p(F_1 ... F_i) is
    constant on each block [mz, mz + z); that is checked first for every i
    < hi, in min(z, c) slice comparisons for the c blocks (per offset when
    the blocks outnumber z, per block otherwise), and a step inside a block
    raises, as does a negative entry, which no valuation can be and no
    field below could hold. Let Q[m] = prefix[mz] (heads below), n = qz + u
    and k = jz + t. Where t <= u the exponent is Q[q] - Q[j] - Q[q - j] and
    the sum carries exactly when a base-p digit of j exceeds q's; where t >
    u it is Q[q] - Q[j] - Q[q - 1 - j], and the units column carries. Every
    pair of the span falls in one of the two, so both are checked on the
    quotient rows q of the span, [lo // z, c), every j at once; the second
    only where the span holds a row of block q with u < z - 1, as only then
    does it hold a pair with t > u.

    Each side of quotient row q is an integer with a (b + 1)-bit field per
    j <= q; b >= 1 is the bit length of twice the largest of Q, and bit b
    of each field is its guard. Q is packed once, reversed and by shifts,
    as 2**b - 1 - Q[c - 1 - i] in field i, so that one right shift reads
    2**b - 1 - Q[q - j] in field j; gaps holds Q[q] - Q[j] in field j < q,
    one multiple of the previous row's ones added a row. Their sum is 2**b
    - 1 + Q[q] - Q[j] - Q[q - j] in field j: the guard is set exactly
    where p divides, and no field borrows. With the previous row's shift
    in place of this row's, field j reads Q[q - 1 - j], and then every
    guard below field q must be set. Carry side: an odometer over q's
    base-p digits keeps the j with no digit above q's in one integer, a
    shift and an add a row, its place shifts precomputed. The ones and
    guards of fields 0..q come from one shift each, so every operation of
    quotient row q is on integers of at most (q + 1)(b + 1) bits, and the
    row costs O(1) Python steps. A mismatch names the first pair of the
    span, in row-major order, that falls in a failing class.
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
    first = lo // z
    b = (2 * max(heads) | 1).bit_length()
    f = b + 1
    ones = ((1 << f * end) - 1) // ((1 << f) - 1)
    guards, rev = ones << b, ((1 << b) - 1) * ones - _pack(heads[::-1], f)
    # The odometer: allowed holds the j with no base-p digit above q's, and
    # levels[i], i >= 1, those with digits 0 below place i and at most q's
    # from i up; step is the copy of levels[1] that allowed gained last.
    digits = list(expand_base_p(first, p))
    while p ** len(digits) <= end:
        digits.append(0)
    places = [f * p**i for i in range(len(digits))]
    levels = [1 << b]
    for digit, place in zip(reversed(digits), reversed(places)):
        levels.insert(0, sum(levels[0] << place * t for t in range(digit + 1)))
    unit_digit, allowed, step = digits[0], levels[0], levels[1] << f * digits[0]
    # The ones, reversed window and guards of the row before the first, and
    # gaps as of a total of 0: -Q[j] in field j below the first row.
    s = f * (end - first)
    unit, r, last, gaps = ones >> s, rev >> s, 0, -_pack(heads[:first], f)
    full = unit << b
    for q, total, s in zip(range(first, end), heads[first:], range(s - f, -1, -f)):
        gaps += unit * (total - last)
        crossed = r + gaps & guards
        unit, r, last = ones >> s, rev >> s, total
        g = unit << b
        held = r + gaps & guards
        if held != g - allowed or crossed != full:
            carry, n = g - allowed, max(lo, q * z)
            k = min((((d & -d).bit_length() - 1) // f * z + t
                     for d, t in ((held ^ carry, 0), (crossed ^ full, n % z + 1))
                     if d and t < z), default=None)
            if k is not None:
                e = x[n] - x[k] - x[n - k]
                raise ArithmeticError(
                    f"carry test {e < 1} disagrees with oracle exponent {e} "
                    f"at (n={n}, k={k}, p={p})")
        full = g
        if unit_digit < p - 1:
            unit_digit += 1
            step <<= f
            allowed += step
        else:
            i = 1
            while digits[i] == p - 1:
                digits[i], i = 0, i + 1
            digits[i] += 1
            levels[i] += levels[i + 1] << places[i] * digits[i]
            levels[1:i] = [levels[i]] * (i - 1)
            unit_digit, allowed, step = 0, levels[1], levels[1]


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
