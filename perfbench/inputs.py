"""Seeded inputs for the four workloads.

Every workload is a stream of CLI commands cut into blocks, and blocks
into rounds; a run is a whole number of rounds. A block has a fixed
composition of command classes. Inside a round, each sized class covers
its log-uniform size range by stratified sampling: its slots in the
round's blocks take every stratum exactly once, and the size is jittered
inside its stratum. So every round holds the same mix of classes and
sizes, which keeps the figures of short runs comparable across seeds. The
seed moves everything else: which block gets which stratum, the jitter,
the moduli, primes and second arguments, and the order inside a block.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from oracle import entry_point, is_prime, next_prime

_GOLDEN = (math.sqrt(5) - 1) / 2
JITTER = 0.25  # share of its stratum a size may move by


@dataclass
class Op:
    """One CLI command with the facts needed to check its output."""

    cls: str
    argv: list[str]
    work: int = 1  # pairs for sweeps, cells for triangles, 1 for queries
    params: dict = field(default_factory=dict)


class _Draws:
    """Seeded draws: per-key Kronecker sequences and per-key stratum offsets."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.offsets: dict[str, float] = {}
        self.shifts: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def u(self, key: str) -> float:
        """Next point of frac(offset + i * golden ratio) for this key."""
        if key not in self.offsets:
            self.offsets[key] = self.rng.random()
        self.counts[key] = self.counts.get(key, 0) + 1
        return (self.offsets[key] + self.counts[key] * _GOLDEN) % 1.0

    def log_uniform(self, key: str, lo: float, hi: float) -> int:
        return int(round(lo * (hi / lo) ** self.u(key)))

    def pick(self, key: str, items: list):
        return items[int(self.u(key) * len(items))]

    def stratum(self, key: str, b: int, t: int, blocks: int, slots: int) -> tuple[int, int]:
        """(stratum, count) of slot t in block b of a round; a round covers each once."""
        count = blocks * slots
        if key not in self.shifts:
            self.shifts[key] = self.rng.randrange(count)
        return (self.shifts[key] + b + blocks * t) % count, count

    def sized(self, key: str, lo: float, hi: float, b: int, t: int,
              blocks: int, slots: int, jitter: float = JITTER) -> int:
        """Log-uniform size in the stratum of slot t, block b, jittered."""
        s, count = self.stratum(key, b, t, blocks, slots)
        u = (s + 0.5 + jitter * (self.u(key) - 0.5)) / count
        return int(round(lo * (hi / lo) ** u))


# --- sweeps ---------------------------------------------------------------

# A block of sweeps has one slot per log-uniform stratum of the row count,
# small to large, each with the primes (z >= p) it takes in turn. Pairs
# per second depend on the prime (more entry-point digits per index for
# small p, up to 1.4 times between primes) and on its cold digit-factor
# cache (exact coefficients for every digit pair below z), so fixing
# which kind of prime meets which size keeps runs comparable. The odd
# slot count puts the median op in the middle stratum, which holds one
# prime, p = 7, in every block. Its neighbours are placed so that their
# ops are well apart in cost: below it p = 3, the fastest per pair, above
# it p = 23, about as slow per pair as p = 7; so the median does not hop
# between strata with the jitter or the machine's noise. p = 163 and 167
# fill a cold cache that costs as much as a mid-sized sweep, so they sit
# with a large one. Most slots hold p <= 7. Primes with z >= p above 170
# are left out: filling their cold cache costs exact coefficients up to
# z, so one sweep at p near 500 and 900 rows takes minutes.
SWEEP_SLOTS = [[43, 103], [7], [67, 83], [3], [7], [23], [3], [163, 167], [5]]
SWEEP_ROWS = (150, 900)
SWEEP_ROUND = 2


def sweep_ops(seed: int, rounds: int, jobs: int) -> list[Op]:
    rng = random.Random(seed)
    draws = _Draws(rng)
    lo, hi = SWEEP_ROWS
    turn = [rng.randrange(2) for _ in SWEEP_SLOTS]
    ops = []
    for b in range(rounds * SWEEP_ROUND):
        block = []
        for j, primes in enumerate(SWEEP_SLOTS):
            p = primes[(turn[j] + b) % len(primes)]
            u = (j + 0.5 + JITTER * (draws.u(f"rows.{j}") - 0.5)) / len(SWEEP_SLOTS)
            rows = int(round(lo * (hi / lo) ** u))
            block.append(Op(cls="sweep", work=rows * (rows + 1) // 2,
                            argv=["verify", "--prime", str(p), "--rows", str(rows),
                                  "--jobs", str(jobs)],
                            params={"p": p, "rows": rows, "jobs": jobs}))
        rng.shuffle(block)
        ops.extend(block)
    return ops


# --- triangles ------------------------------------------------------------

TRIANGLE_FORMATS = ("pgm", "svg", "json", "ascii")
TRIANGLE_KINDS = ("fibonomial", "binomial")
TRIANGLE_ROWS = (100, 800)
# Exact fibonomial json spans the 4,300-digit str limit (about 290 rows)
# in its upper slot; exact ascii stops at 150 rows because its fixed-width
# cells make the document grow with the fourth power of the row count
# (480 MB at 280 rows).
TRIANGLE_EXACT = {
    ("fibonomial", "json", 0): (50, 141),
    ("fibonomial", "json", 1): (141, 400),
    ("binomial", "json", 0): (50, 400),
    ("fibonomial", "ascii", 0): (50, 150),
}
# The largest exact triangle sets the workload's peak memory, which grows
# with the fourth power of its rows, so exact sizes barely move.
EXACT_JITTER = 0.05
TRIANGLE_MOD_SLOTS = 2  # per kind and format in a block
TRIANGLE_ROUND = 4


def triangle_ops(seed: int, rounds: int) -> list[Op]:
    rng = random.Random(seed)
    draws = _Draws(rng)
    ops = []
    for b in range(rounds * TRIANGLE_ROUND):
        slots = [("mod", k, f, t) for k in TRIANGLE_KINDS for f in TRIANGLE_FORMATS
                 for t in range(TRIANGLE_MOD_SLOTS)]
        slots += [("exact", k, f, t) for k, f, t in TRIANGLE_EXACT]
        b_in = b % TRIANGLE_ROUND
        block = []
        for cls, kind, fmt, t in slots:
            if cls == "mod":
                rows = draws.sized(f"{kind}.{fmt}", *TRIANGLE_ROWS, b_in, t,
                                   TRIANGLE_ROUND, TRIANGLE_MOD_SLOTS)
                mod = 2 + int(draws.u("mod") * 63)
            else:
                cls = f"exact_{fmt}"
                lo, hi = TRIANGLE_EXACT[(kind, fmt, t)]
                rows = draws.sized(f"exact.{kind}.{fmt}.{t}", lo, hi, b_in, 0,
                                   TRIANGLE_ROUND, 1, jitter=EXACT_JITTER)
                mod = None
            argv = ["triangle", "--rows", str(rows), "--kind", kind, "--format", fmt]
            if mod is not None:
                argv += ["--mod", str(mod)]
            block.append(Op(cls=cls, argv=argv, work=rows * (rows + 1) // 2,
                            params={"rows": rows, "kind": kind, "format": fmt, "mod": mod}))
        rng.shuffle(block)
        ops.extend(block)
    return ops


# --- queries --------------------------------------------------------------

_SMALL_PRIMES = [p for p in range(2, 1000) if is_prime(p)]
_LESS_PRIMES = [p for p in _SMALL_PRIMES if p > 5 and entry_point(p)[0] < p]

# The eight single-answer CLI commands (`fibonomial n k --mod m`,
# `valuation`, `entry-point`, `fib n --mod m`, exact `fibonomial n k`,
# `verify --counterexample`, `expand`, `lucas`) get equal counts, 14 each
# per round: no command is known to be more common than another. Two are
# split into sub-classes, which are checked and reported apart:
# `valuation` evenly between the carry and the oracle method, and
# `entry-point` into 13 primes up to 2e6 and one in 1e9-1e12, a small
# share that keeps the O(p) walk in the mix without letting its deadline
# dominate the run.
QUERY_BLOCK = {
    "fibonomial_mod": 14,
    "valuation_carry": 7,
    "valuation_oracle": 7,
    "entry_point": 13,
    "entry_point_big": 1,
    "fib_mod": 14,
    "fibonomial_exact": 14,
    "counterexample": 14,
    "expand": 14,
    "lucas": 14,
}
QUERY_CLASSES = tuple(QUERY_BLOCK)
QUERY_ROUND = 1  # 112 queries, so p90 has 12 samples beyond it


def _query(cls: str, d: _Draws, b: int, t: int) -> Op:
    def sized(lo: float, hi: float) -> int:
        return d.sized(cls, lo, hi, b, t, QUERY_ROUND, QUERY_BLOCK[cls])

    if cls == "fibonomial_mod":
        n = sized(50, 3000)
        k = d.log_uniform("fm.k", 1, min(300, n // 2))
        if d.u("fm.side") < 0.5:
            k = n - k
        # Moduli share one magnitude, so the cost of the row recurrence
        # depends on n alone.
        if t % 2:
            m = d.log_uniform("fm.a", 317, 1000) * d.log_uniform("fm.b", 317, 1000)
        else:
            m = next_prime(d.log_uniform("fm.m", 10 ** 5, 10 ** 6))
        return Op(cls, ["fibonomial", str(n), str(k), "--mod", str(m)],
                  params={"n": n, "k": k, "m": m})
    if cls in ("valuation_carry", "valuation_oracle"):
        carry = cls == "valuation_carry"
        n = sized(10, 3000 if carry else 1000)
        k = int(d.u(cls + ".k") * (n + 1))
        p = d.pick(cls + ".p", _SMALL_PRIMES[1:] if carry else _SMALL_PRIMES[:46])
        argv = ["valuation", str(n), str(k), "--prime", str(p)]
        if not carry:
            argv += ["--method", "oracle"]
        return Op(cls, argv, params={"n": n, "k": k, "p": p})
    if cls == "entry_point":
        p = next_prime(sized(3, 2 * 10 ** 6))
        return Op(cls, ["entry-point", str(p)], params={"p": p})
    if cls == "entry_point_big":
        p = next_prime(sized(10 ** 9, 10 ** 12))
        return Op(cls, ["entry-point", str(p)], params={"p": p})
    if cls == "fib_mod":
        n = sized(1, 10 ** 18)
        m = d.log_uniform("fib.m", 2, 10 ** 9)
        return Op(cls, ["fib", str(n), "--mod", str(m)], params={"n": n, "m": m})
    if cls == "fibonomial_exact":
        # k/n follows a fixed Latin pairing with the n stratum, so the
        # share of coefficients past the str limit is the same every round.
        s, count = d.stratum(cls, b, t, QUERY_ROUND, QUERY_BLOCK[cls])
        n = sized(10, 1000)
        k = int((((5 * s) % count + 0.5) / count) * (n + 1))
        return Op(cls, ["fibonomial", str(n), str(k)], params={"n": n, "k": k})
    if cls == "counterexample":
        p = d.pick(cls, _LESS_PRIMES)
        return Op(cls, ["verify", "--prime", str(p), "--counterexample"], params={"p": p})
    if cls == "expand":
        n = sized(1, 10 ** 12)
        p = d.pick("ex.p", _SMALL_PRIMES[1:])
        base = "Fp" if t % 2 else "p"
        return Op(cls, ["expand", str(n), "--base", base, "--prime", str(p)],
                  params={"n": n, "p": p, "base": base})
    if cls == "lucas":
        n = sized(10, 5000)
        k = int(d.u("lu.k") * (n + 1))
        p = d.pick("lu.p", _SMALL_PRIMES[:25])
        return Op(cls, ["lucas", str(n), str(k), "--prime", str(p)],
                  params={"n": n, "k": k, "p": p})
    raise ValueError(f"unknown query class {cls!r}")


def query_ops(seed: int, rounds: int) -> list[Op]:
    rng = random.Random(seed)
    draws = _Draws(rng)
    ops = []
    for b in range(rounds * QUERY_ROUND):
        block = [_query(cls, draws, b % QUERY_ROUND, t)
                 for cls, count in QUERY_BLOCK.items() for t in range(count)]
        rng.shuffle(block)
        ops.extend(block)
    return ops


ROUND_OPS = {
    "sweep": SWEEP_ROUND * len(SWEEP_SLOTS),
    "sweep-par": SWEEP_ROUND * len(SWEEP_SLOTS),
    "triangle": TRIANGLE_ROUND * (len(TRIANGLE_KINDS) * len(TRIANGLE_FORMATS)
                                  * TRIANGLE_MOD_SLOTS + len(TRIANGLE_EXACT)),
    "queries": QUERY_ROUND * sum(QUERY_BLOCK.values()),
}


def workload_ops(workload: str, seed: int, rounds: int) -> list[Op]:
    if workload == "sweep":
        return sweep_ops(seed, rounds, jobs=1)
    if workload == "sweep-par":
        return sweep_ops(seed, rounds, jobs=2)
    if workload == "triangle":
        return triangle_ops(seed, rounds)
    if workload == "queries":
        return query_ops(seed, rounds)
    raise ValueError(f"unknown workload {workload!r}")
