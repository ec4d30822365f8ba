"""Divisibility-conjecture machinery for the fibonomial triangle.

The conjecture under test: for a prime p whose entry point z is not below
p, p divides the fibonomial coefficient on (n, k) exactly when p divides
the product of the digitwise fibonomial coefficients of n and k expanded
in the entry-point base. Sweeps check the biconditional row by row; for
primes with z < p the biconditional provably fails and a constructive
witness is produced instead.

Also here: the mod-2 period of the triangle and the classical
digit-product residue for ordinary binomials.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from operator import getitem
from typing import IO

from .core import binomial, fibonomial, iter_fibonomial_rows_mod
from .radix import expand_base_fp, expand_base_p
from .valuation import (
    PrimeProfile,
    Relation,
    carry_valuation,
    fibotorial_valuations,
    is_prime,
)


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
    method: str  # "carry" | "oracle"
    counterexamples: tuple[ConjectureVerdict, ...]
    seconds: float

    def jsonl_lines(self) -> list[str]:
        """Header, one line per disagreement, then a summary.

        The summary's "seconds" is written as null so identical sweeps
        serialize identically; the measured duration stays on the record.
        """
        lines = [json.dumps({"p": self.p, "rows": self.rows, "method": self.method})]
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
def _digit_factor_divisible(a: int, b: int, p: int) -> bool:
    # Digit pairs are small enough to evaluate the coefficient exactly once
    # and cache the divisibility bit; b > a gives the zero coefficient,
    # which every prime divides.
    return fibonomial(a, b) % p == 0


def _pairs_divisible(nd: tuple[int, ...], kd: tuple[int, ...], p: int) -> bool:
    for a, b in zip_longest(nd, kd, fillvalue=0):
        if _digit_factor_divisible(a, b, p):
            return True
    return False


def digit_product_divisible(n: int, k: int, profile: PrimeProfile) -> bool:
    """Whether p divides the product of positionwise fibonomial coefficients
    of the digits of n and k in the entry-point base (k zero-padded)."""
    nd = expand_base_fp(n, profile).digits
    kd = expand_base_fp(k, profile).digits
    return _pairs_divisible(nd, kd, profile.p)


def validate_sweep(
    profile: PrimeProfile,
    rows: int,
    *,
    method: str | None = None,
    jobs: int = 1,
    oracle_stride: int | None = 37,
) -> str:
    """Reject a sweep verify_conjecture would refuse, before any work or
    output; return the method it would use."""
    if profile.relation is Relation.LESS:
        raise ValueError(
            f"entry point {profile.p_star} of {profile.p} is below the prime, so the "
            "biconditional provably fails; use find_counterexample (verify "
            "--counterexample) for the witness")
    if method is None:
        method = "oracle" if profile.p == 2 else "carry"
    if method not in ("carry", "oracle"):
        raise ValueError(f"unknown method {method!r}")
    if method == "carry" and profile.p == 2:
        raise ValueError("carry counting requires an odd prime; use the oracle for 2")
    if rows < 0:
        raise ValueError(f"rows must be >= 0, got {rows}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if oracle_stride is not None and oracle_stride < 0:
        raise ValueError(f"oracle stride must be >= 0, got {oracle_stride}")
    return method


def verify_conjecture(
    profile: PrimeProfile,
    rows: int,
    *,
    method: str | None = None,
    jobs: int = 1,
    oracle_stride: int | None = 37,
) -> SweepRecord:
    """Check the biconditional at every (n, k) with 0 <= k <= n < rows.

    method is "carry" (odd p; the default) or "oracle" (exact big-integer
    valuations; mandatory for p = 2). In carry mode every oracle_stride-th
    pair in row-major order is recomputed with the oracle; a mismatch there
    is an arithmetic bug and raises, never a counterexample. Rows may be
    partitioned across processes with jobs > 1; results are merged in
    deterministic (n, k) order either way. Arguments are checked by
    validate_sweep.
    """
    method = validate_sweep(profile, rows, method=method, jobs=jobs,
                            oracle_stride=oracle_stride)

    start = time.perf_counter()
    stride = oracle_stride or 0
    if method == "oracle" or stride:
        prefix = fibotorial_valuations(max(rows - 1, 0), profile.p)
    else:
        prefix = ()
    chunks = _row_chunks(rows, jobs)
    if len(chunks) <= 1:
        parts = [_sweep_rows(profile, lo, hi, method, stride, prefix)
                 for lo, hi in chunks]
    else:
        # Imported here: the process machinery costs every CLI command
        # tens of milliseconds of start-up, and only pooled sweeps use it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(
                _sweep_rows,
                [profile] * len(chunks),
                [lo for lo, _ in chunks],
                [hi for _, hi in chunks],
                [method] * len(chunks),
                [stride] * len(chunks),
                [prefix] * len(chunks),
            ))
    bad = sorted((v for part in parts for v in part), key=lambda v: (v.n, v.k))
    return SweepRecord(profile.p, rows, method, tuple(bad),
                       time.perf_counter() - start)


def _row_chunks(rows: int, jobs: int) -> list[tuple[int, int]]:
    """Split [0, rows) into contiguous spans of roughly equal pair count."""
    if jobs <= 1 or rows <= 1:
        return [(0, rows)]
    pieces = min(rows, jobs * 4)
    total = rows * (rows + 1) / 2
    bounds = [0]
    acc = 0.0
    for n in range(rows):
        acc += n + 1
        if acc >= total * len(bounds) / pieces and len(bounds) < pieces:
            bounds.append(n + 1)
    bounds.append(rows)
    return [(bounds[i], bounds[i + 1])
            for i in range(len(bounds) - 1) if bounds[i] < bounds[i + 1]]


def _sweep_rows(
    profile: PrimeProfile,
    lo: int,
    hi: int,
    method: str,
    stride: int,
    prefix: tuple[int, ...],
) -> list[ConjectureVerdict]:
    """The disagreements among the pairs of rows [lo, hi), in (n, k) order.

    The entry-point digits of 0 .. hi-1, their digit sums and the
    divisibility bit of every digit-pair factor are computed once per call,
    so a pair costs a few table lookups. Adding k to n - k in the
    entry-point base lowers the digit sum by z - 1 for a carry out of the
    units place and by p - 1 for any other carry, so the sums differ
    exactly when the addition carries, which is when p divides the
    coefficient, as nu_p(F_z) >= 1. At every stride-th pair carry_valuation
    and the oracle prefix table recheck that carry test.
    """
    p = profile.p
    digits = [expand_base_fp(n, profile).digits for n in range(hi)]
    sums = [sum(d) for d in digits]
    # table[a][b]: whether p divides the digit factor C(a, b)_F; b > a gives
    # the zero coefficient, which p divides. Every digit of n < hi is below
    # both max(z, p) and hi, so a short sweep on a large prime stays small.
    size = min(max(profile.p_star, p), hi)
    table = [[e == 0 for e in row.entries] + [True] * (size - 1 - row.n)
             for row in iter_fibonomial_rows_mod(size, p)]
    bad = []
    for n in range(lo, hi):
        # map stops at the last digit of k <= n; the digits of k it skips
        # are 0, and the factor C(a, 0)_F = 1 is never divisible.
        factors = [table[a] for a in digits[n]]
        rhs = [any(map(getitem, factors, d)) for d in digits[:n + 1]]
        if method == "carry":
            head, total = sums[:n + 1], sums[n]
            lhs = [a + b != total for a, b in zip(head, reversed(head))]
        else:
            lhs = [prefix[n] - prefix[k] - prefix[n - k] >= 1 for k in range(n + 1)]
        if lhs != rhs:
            bad.extend(ConjectureVerdict.compare(p, n, k, left, right)
                       for k, (left, right) in enumerate(zip(lhs, rhs))
                       if left != right)
        if method == "carry" and stride:
            row_base = n * (n + 1) // 2
            for k in range(-row_base % stride, n + 1, stride):
                e = carry_valuation(k, n - k, profile).exponent
                want = prefix[n] - prefix[k] - prefix[n - k]
                if want != e or lhs[k] != (want >= 1):
                    raise ArithmeticError(
                        f"carry valuation {e} (carry test {lhs[k]}) disagrees "
                        f"with oracle {want} at (n={n}, k={k}, p={p})")
    return bad


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


_rows_mod_cache: dict[int, list[tuple[int, ...]]] = {}


def _row_entry_mod(n: int, k: int, m: int) -> int:
    if k > n:
        return 0
    rows = _rows_mod_cache.get(m)
    if rows is None or len(rows) <= n:
        rows = [r.entries for r in iter_fibonomial_rows_mod(max(n + 1, 64), m)]
        _rows_mod_cache[m] = rows
    return rows[n][k]


def check_period_mod2(m: int, n: int, k: int) -> bool:
    """Instance check: the triangle mod 2 repeats with period 3 * 2**m in
    the row index, for 0 <= n, k < 3 * 2**m."""
    if m < 0:
        raise ValueError(f"period exponent must be >= 0, got {m}")
    period = 3 * 2 ** m
    if not (0 <= n < period and 0 <= k < period):
        raise ValueError(f"need 0 <= n, k < {period}, got ({n}, {k})")
    return _row_entry_mod(n + period, k, 2) == _row_entry_mod(n, k, 2)


def lucas_binomial_residue(n: int, k: int, p: int) -> int:
    """Ordinary binomial coefficient mod p as the product of digitwise
    binomials in base p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0 or k < 0:
        raise ValueError(f"arguments must be >= 0, got ({n}, {k})")
    nd = expand_base_p(n, p).digits
    kd = expand_base_p(k, p).digits
    out = 1
    for a, b in zip_longest(nd, kd, fillvalue=0):
        out = out * binomial(a, b) % p
    return out
