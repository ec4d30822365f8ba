"""Divisibility-conjecture machinery for the fibonomial triangle.

The conjecture under test: for a prime p whose entry point z is not below
p, p divides the fibonomial coefficient on (n, k) exactly when p divides
the product of the digitwise fibonomial coefficients of n and k expanded
in the entry-point base. Sweeps build the carry test, which for these
primes is both sides, row by row; for primes with z < p the biconditional
provably fails and a constructive witness is produced instead.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat, zip_longest
from math import isqrt
from typing import IO, Iterator, Sequence

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
        record.
        """
        lines = [json.dumps({"p": self.p, "rows": self.rows, "method": "carry"})]
        for v in self.counterexamples:
            lines.append(json.dumps({
                "p": v.p, "n": v.n, "k": v.k,
                "lhs": v.lhs_divisible, "rhs": v.rhs_divisible,
                "agree": v.agrees,
            }))
        lines.append(json.dumps(
            {"counterexamples": len(self.counterexamples), "seconds": None}))
        return lines

    def write_jsonl(self, fh: IO[str]) -> None:
        for line in self.jsonl_lines():
            fh.write(line + "\n")


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


# 100,000 rows are 5 * 10**9 pairs, 25 times the pairs of 20,000 rows, which
# a serial sweep at p = 7 checked in under 2 s: about a minute of work.
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
    disagreement; the exact big-integer oracle confirms it at every pair,
    and a mismatch is an arithmetic bug and raises. The rows are split by
    _row_chunks into at most jobs contiguous spans, one per worker process;
    a sweep too short to pay for a pool is one span and runs in this
    process. Arguments are checked by validate_sweep.
    """
    validate_sweep(profile, rows, jobs=jobs)

    start = time.perf_counter()
    prefix = fibotorial_valuations(max(rows - 1, 0), profile.p)
    spans = _row_chunks(rows, jobs)
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


# Fresh `verify --jobs 2` first beat `--jobs 1` at both p = 7 and p = 163 at
# 6,000 rows, R(R + 1)/4 pairs a worker (BENCH_pool.json). A fresh process
# also imports the pool machinery; a long-lived caller that already has it
# would gain from two workers from about 3,000 rows, but gets none below
# 6,000. Only two workers were measured, so the floor decides whether a
# pool starts, not its size.
MIN_SPAN_PAIRS = 6000 * 6001 // 4


def _row_chunks(rows: int, jobs: int) -> list[tuple[int, int]]:
    """Split [0, rows) into at most min(jobs, rows) contiguous, non-empty
    spans of about equal pair count. Rows [0, b) hold b(b + 1)/2 pairs, so
    the i-th of j spans ends near row rows * sqrt(i / j). A sweep of fewer
    than 2 * MIN_SPAN_PAIRS pairs, too short to pay two workers' start-up,
    is one span and runs in process."""
    if rows * (rows + 1) // 2 < 2 * MIN_SPAN_PAIRS:
        jobs = 1
    jobs = max(min(jobs, rows), 1)
    ends = [isqrt(i * rows * rows // jobs) for i in range(jobs + 1)]
    return [(lo, hi) for lo, hi in zip(ends, ends[1:]) if lo < hi]


def _pair_bits(x: Sequence[int], lo: int, hi: int) -> Iterator[bytes]:
    """Per row n in [lo, hi), the n + 1 bytes x[k] + x[n - k] < x[n]. x[:hi]
    is packed once into w-byte fields, forwards and reversed, so the forward
    int's low n + 1 fields plus the reversed one shifted down hi - 1 - n
    fields hold every pair sum. Bit b of a field lies above twice the largest
    value, so (2**b + x[n] - 1) - sum keeps it exactly where sum < x[n], and
    no field borrows."""
    b = (2 * max(x[:hi])).bit_length()
    w, guard = b // 8 + 1, 1 << b
    chunks = [v.to_bytes(w, "little") for v in x[:hi]]
    fwd, rev = (int.from_bytes(b"".join(c), "little") for c in (chunks, chunks[::-1]))
    all_ones = int.from_bytes((1).to_bytes(w, "little") * hi, "little")
    for n in range(lo, hi):
        size, shift = w * (n + 1), 8 * w * (hi - 1 - n)
        ones = all_ones >> shift
        pair = (fwd & ((1 << 8 * size) - 1)) + (rev >> shift)
        held = (guard + x[n] - 1) * ones - pair
        yield (held >> b & ones).to_bytes(size, "little")[::w]


def _sweep_rows(
    profile: PrimeProfile,
    lo: int,
    hi: int,
    prefix: tuple[int, ...],
) -> None:
    """Check the carry test against the oracle at every pair of rows [lo,
    hi) of a prime whose entry point z is at least p; raise ArithmeticError
    at the first pair where they disagree.

    The coefficient is divisible when adding k to n - k in the entry-point
    base carries (Knuth and Wilf), p = 2 included, which is when some digit
    of k exceeds the matching digit of n. As z >= p, every digit is below z
    and F_1 ... F_{z-1} are prime to p, so a digit factor C(a, b)_F is
    divisible exactly when b > a: the carry bits are the digit product's.
    Row n = q * z + u is built by place value from its units digit u and
    the higher digits of n, which are those of q * z and are expanded once
    per block of z rows: a block for k below z from u, 0 for k <= u and 1
    above; per higher digit a of n, the block so far copied a + 1 times,
    then all-ones blocks for the digits b > a of k. The oracle rechecks
    every pair, a row at a time by _pair_bits. A row costs O(p * digits)
    Python steps plus O(n) machine-word operations.
    """
    p, z = profile.p, profile.p_star
    oracles = _pair_bits(prefix, lo, hi)
    for base in range(lo - lo % z, hi, z):
        high = expand_base_fp(base, profile)[1:]
        # zip draws a row number before an oracle row, so the block's last
        # row leaves the next block's oracle row unread.
        for n, oracle in zip(range(max(lo, base), min(hi, base + z)), oracles):
            bits = bytes(n - base + 1).ljust(min(z, n + 1), b"\1")
            for a in high:
                # b takes p values below the top digit and a + 1 at the top,
                # where the copies need only reach k = n.
                copies = min(p, n // len(bits) + 1)
                bits = (bits * (a + 1)).ljust(copies * len(bits), b"\1")
            if bits[:n + 1] != oracle:
                k = next(k for k in range(n + 1) if bits[k] != oracle[k])
                raise ArithmeticError(
                    f"carry test {bits[k] == 1} disagrees with oracle exponent "
                    f"{prefix[n] - prefix[k] - prefix[n - k]} at (n={n}, k={k}, p={p})")


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
