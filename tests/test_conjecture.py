import json
import math
import random
import re
import tracemalloc
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibonomial.conjecture as conjecture
import fibonomial.core as core
from fibonomial.conjecture import (
    ConjectureVerdict,
    SweepRecord,
    digit_product_divisible,
    find_counterexample,
    lucas_binomial_residue,
    verify_conjecture,
)
from fibonomial.core import (
    fib,
    fibonomial_mod,
    iter_fibonomial_rows_mod,
)
from fibonomial.radix import expand_base_p
from fibonomial.valuation import (
    Relation,
    entry_point,
    fibotorial_valuations,
    is_prime,
)

from oracles import (
    digits_le,
    entry_point_walk,
    fib_seq,
    fibonomial_mod_prime,
    fibotorial_seq,
    naive_fibonomial,
    nu,
    primes_below,
    sweep_rows_per_pair,
)


def _base5_digit_exceeds(n, k):
    pairs = zip_longest(digits_le(n, 5), digits_le(k, 5), fillvalue=0)
    return any(b > a for a, b in pairs)


def test_digit_product_divisible_examples():
    p11 = entry_point(11)
    assert digit_product_divisible(100, 10, p11) is True
    assert digit_product_divisible(100, 0, p11) is False
    p13 = entry_point(13)
    assert digit_product_divisible(49, 7, p13) is True
    for p in (2, 3, 5, 7, 11):
        prof = entry_point(p)
        for n in (0, 1, 9, 40, 444):
            assert digit_product_divisible(n, 0, prof) is False


def test_digit_product_matches_brute_force():
    # Rebuild the digit product exactly and compare divisibility.
    ft = fibotorial_seq(30)
    for p in (2, 3, 5, 7):
        prof = entry_point(p)
        for n in range(90):
            for k in range(n + 1):
                nd, kd = [], []
                a, b = n, k
                a, r = divmod(a, prof.p_star)
                nd.append(r)
                b, r = divmod(b, prof.p_star)
                kd.append(r)
                while a or b:
                    a, r = divmod(a, prof.p)
                    nd.append(r)
                    b, r = divmod(b, prof.p)
                    kd.append(r)
                product = 1
                for x, y in zip(nd, kd):
                    product *= naive_fibonomial(x, y, ft)
                assert digit_product_divisible(n, k, prof) == (product % p == 0)


def test_verify_conjecture_small_sweeps():
    rec = verify_conjecture(entry_point(7), 120)
    assert rec.counterexamples == ()
    assert json.loads(rec.jsonl_lines()[0]) == {"p": 7, "rows": 120, "method": "carry"}
    assert rec.rows == 120
    assert rec.seconds >= 0
    rec5 = verify_conjecture(entry_point(5), 500)
    assert rec5.counterexamples == ()


def test_verify_conjecture_oracle_runs():
    # The mod-2 statement over its first full period: the carry test, which
    # the exact big-integer oracle confirms at every pair.
    rec2 = verify_conjecture(entry_point(2), 48)
    assert json.loads(rec2.jsonl_lines()[0]) == {"p": 2, "rows": 48, "method": "carry"}
    assert rec2.counterexamples == ()


def test_verify_conjecture_method_and_relation_guards():
    with pytest.raises(ValueError):
        verify_conjecture(entry_point(11), 10)
    with pytest.raises(ValueError):
        verify_conjecture(entry_point(7), -1)


def test_row_chunks_is_one_span_of_every_row():
    # The benchmark's traced sweep check reads these spans as a partition
    # of [0, rows), whatever --jobs is.
    assert [conjecture._row_chunks(rows, jobs, 8) for rows, jobs in
            ((0, 1), (1, 2), (900, 8))] == [[], [(0, 1)], [(0, 900)]]


def _block_spans(rows, z):
    # [0, rows) in at most three contiguous spans cut at multiples of z, as
    # many as the rows hold blocks of z.
    blocks = -(-rows // z)
    parts = min(3, blocks)
    ends = [min(i * blocks // parts * z, rows) for i in range(parts + 1)]
    return list(zip(ends, ends[1:]))


def _sweeps_agree(p, rows, method="oracle", stride=0):
    # The sweep passes its oracle check whole and in three spans (fewer
    # where the rows hold fewer blocks of z), and the per-pair reference,
    # which computes the digit product on its own, finds no disagreement.
    # method and stride choose how the reference takes its left-hand side;
    # the sweep itself has one path.
    profile = entry_point(p)
    prefix = conjecture.fibotorial_valuations(rows - 1, p)
    assert conjecture._sweep_rows(profile, 0, rows, prefix) is None
    spans = _block_spans(rows, profile.p_star)
    assert [n for lo, hi in spans for n in range(lo, hi)] == list(range(rows))
    for lo, hi in spans:
        assert conjecture._sweep_rows(profile, lo, hi, prefix) is None
    assert sweep_rows_per_pair(profile, 0, rows, prefix, method, stride) == []


@pytest.mark.parametrize("method, stride", [("carry", 0), ("carry", 1), ("carry", 37),
                                            ("oracle", 0)])
@pytest.mark.parametrize("p, rows", [(2, 120), (3, 120), (5, 120), (7, 120), (23, 120),
                                     (163, 200)])
def test_sweep_rows_matches_per_pair_loop(p, rows, method, stride):
    # The reference's oracle method reads no stride.
    _sweeps_agree(p, rows, method, stride)


def _spans_at_place_values(p):
    # Spans around each place value P = z * p**j, j = 0, 1, 2, up to 30,000:
    # the last row just below, at and just above P, whole from row 0 where
    # that is cheap, and from rows inside the digit block below P.
    z = entry_point(p).p_star
    for place in (z, z * p, z * p * p):
        if place <= 30_000:
            for hi in (place, place + 1, place + 2):
                yield (0 if hi <= 200 else hi - 3), hi
            if place <= 200:
                yield place // 2 + 1, place + 1


# Every prime here has z >= p; 43 and 103 have z = p + 1.
SWEEP_PRIMES = [2, 3, 5, 7, 23, 43, 103, 163]


@pytest.mark.parametrize("p, lo, hi", [
    *((p, lo, hi) for p in [*SWEEP_PRIMES, 11, 13]
      for lo, hi in [*_spans_at_place_values(p), (0, 1), (1, 2), (0, 2)]),
    (10007, 0, 30), (10007, 17, 30),
])
def test_sweep_rows_matches_per_pair_loop_at_place_values(p, lo, hi):
    # The row's bits are joined digit by digit, so the digit boundaries and
    # rows 0 and 1 are where a wrong block length, copy count or cut would
    # make the oracle check raise.
    profile = entry_point(p)
    prefix = conjecture.fibotorial_valuations(hi - 1, p)
    bad = sweep_rows_per_pair(profile, lo, hi, prefix)
    if profile.relation is Relation.LESS:
        # z < p, which sweeps refuse: a carry makes a digit of k exceed
        # that of n, a zero digit factor, so the digit product is divisible
        # whenever the coefficient is, and only the converse can fail.
        assert all(v.rhs_divisible and not v.lhs_divisible for v in bad)
        return
    assert conjecture._sweep_rows(profile, lo, hi, prefix) is None
    assert bad == []


# The 17 primes below 400 whose entry point is at least the prime.
DENSE_PRIMES = [2, 3, 5, 7, 23, 43, 67, 83, 103, 127, 163, 167, 223, 227, 283, 367, 383]


def _spans_around_blocks(p):
    # Spans ending at z - 1, z, z + 1, z * p - 1, z * p + 1 and 300: up to
    # 300 rows, whole from row 0 and from inside a block, one row into the
    # last block or past the middle of block 0; past that, the last row
    # alone, z * p - 2 inside a block and z * p at its start.
    z = entry_point(p).p_star
    for hi in sorted({z - 1, z, z + 1, z * p - 1, z * p + 1, 300}):
        if hi > 300:
            yield hi - 1, hi
            continue
        yield 0, hi
        if (lo := max((hi - 1) // z * z, z // 2) + 1) < hi:
            yield lo, hi


@pytest.mark.parametrize("p", DENSE_PRIMES)
def test_sweep_rows_matches_per_pair_loop_around_blocks(p):
    # The sweep checks quotient rows, so block edges and the first place
    # value z * p are where a wrong quotient range, units class or digit
    # place would show.
    assert DENSE_PRIMES == [q for q in range(400) if is_prime(q) and entry_point(q).p_star >= q]
    profile = entry_point(p)
    prefix = conjecture.fibotorial_valuations(max(profile.p_star * p, 299), p)
    for lo, hi in _spans_around_blocks(p):
        assert conjecture._sweep_rows(profile, lo, hi, prefix) is None, (lo, hi)
        assert sweep_rows_per_pair(profile, lo, hi, prefix) == [], (lo, hi)


@pytest.mark.parametrize("p", DENSE_PRIMES)
def test_certified_rows_cover_the_exact_table(p):
    # The exact table certifies every quotient row: at 1 and 2 rows, around
    # the first block, one row past the first place z * p, at 500 and 3,000
    # rows, and at the row bound for a small, a middle and a large block.
    z = entry_point(p).p_star
    bound = [conjecture.MAX_SWEEP_ROWS] if p in (2, 7, 163) else []
    for rows in (1, 2, z, z + 1, z * p + 1, 500, 3000, *bound):
        heads = conjecture.fibotorial_valuations(rows - 1, p)[::z]
        assert conjecture._certified_rows(heads, p) == len(heads), rows


@given(st.sampled_from(SWEEP_PRIMES), st.integers(0, 700), st.integers(1, 12))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_sweep_rows_matches_per_pair_loop_sampled(p, lo, rows):
    profile = entry_point(p)
    prefix = conjecture.fibotorial_valuations(lo + rows - 1, p)
    assert conjecture._sweep_rows(profile, lo, lo + rows, prefix) is None
    assert sweep_rows_per_pair(profile, lo, lo + rows, prefix) == []


def _divisible(x, n, k):
    return x[n] - x[k] - x[n - k] >= 1


def _first_changed_pair(table, true, lo, hi):
    # The first pair (n, k) of rows [lo, hi), in row-major order, whose
    # verdict differs between the two tables, or None; one row at a time.
    for n in range(lo, hi):
        row = [table[n] - table[k] - table[n - k] >= 1 for k in range(n + 1)]
        want = [true[n] - true[k] - true[n - k] >= 1 for k in range(n + 1)]
        if row != want:
            return n, next(k for k, (a, b) in enumerate(zip(row, want)) if a != b)
    return None


def _assert_sweep_flags_changed_verdicts(p, lo, hi, table):
    # The exact table's verdicts are the carry test's. A sweep over a
    # changed table must pass when every pair of rows [lo, hi) keeps its
    # verdict, and otherwise raise naming the first pair that changed, which
    # is returned (None when the sweep passed).
    true = conjecture.fibotorial_valuations(hi - 1, p)
    changed = _first_changed_pair(table, true, lo, hi)
    if changed is None:
        assert conjecture._sweep_rows(entry_point(p), lo, hi, tuple(table)) is None
        return None
    n, k = changed
    message = (f"carry test {_divisible(true, n, k)} disagrees with oracle exponent "
               f"{table[n] - table[k] - table[n - k]} at (n={n}, k={k}, p={p})")
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        conjecture._sweep_rows(entry_point(p), lo, hi, tuple(table))
    return changed


def _first_step_in_block(table, z):
    # The first index whose entry differs from that at the start of its
    # block of z, or None.
    return next((i for i, v in enumerate(table) if v != table[i - i % z]), None)


def _seeded_corruption(rng):
    # The exact table of a drawn dense prime, small ones drawn more often,
    # over up to 160 rows (4z + 7 where z > 8 and that is fewer), with one
    # drawn change: a single entry, a block of z, a block with every entry
    # after it or a run of z * p from a block start, moved by 1 or 2 either
    # way, or a block set to a value from 0 to two past the largest.
    p = rng.choice(DENSE_PRIMES[:5] * 4 + DENSE_PRIMES)
    z = entry_point(p).p_star
    rows = rng.randint(1, 160 if z <= 8 else min(4 * z + 7, 160))
    table = list(conjecture.fibotorial_valuations(rows - 1, p))
    kind, step = rng.randrange(5), rng.choice((1, -1, 2, -2))
    m = rng.randrange(0, rows, z)
    if kind == 0:
        table[rng.randrange(rows)] += step
        return p, table
    end = {1: m + z, 2: rows, 3: m + z * p, 4: m + z}[kind]
    value = rng.randint(0, max(table) + 2)
    for i in range(m, min(end, rows)):
        table[i] = value if kind == 4 else table[i] + step
    return p, table


def test_certified_rows_keep_every_verdict_of_seeded_corruptions():
    # Over 3,000 seeded corruptions, no pair of rows below the L quotient
    # rows that the certificate passes changes its verdict, and the sweep,
    # from row 0 or from a drawn row, passes where no pair of its rows
    # changed and otherwise names the first that did. A table that steps
    # inside a block or holds a negative entry is refused before that. Each
    # outcome occurs: refused, all rows certified, and fewer certified with
    # or without a changed verdict.
    rng = random.Random(31)
    outcomes = {}
    for _ in range(3000):
        p, table = _seeded_corruption(rng)
        z, rows = entry_point(p).p_star, len(table)
        lo = rng.choice((0, rng.randrange(rows)))
        if _first_step_in_block(table, z) is not None or min(table) < 0:
            with pytest.raises(ArithmeticError, match="^oracle table (steps|is negative) "):
                conjecture._sweep_rows(entry_point(p), lo, rows, tuple(table))
            outcome = "refused"
        else:
            heads = tuple(table[::z])
            certified = conjecture._certified_rows(heads, p)
            true = conjecture.fibotorial_valuations(rows - 1, p)
            changed = _first_changed_pair(table, true, 0, rows)
            assert changed is None or changed[0] >= certified * z, (p, table)
            _assert_sweep_flags_changed_verdicts(p, lo, rows, table)
            outcome = (certified == len(heads), changed is None)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert set(outcomes) == {"refused", (True, True), (False, True), (False, False)}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 23])
def test_sweep_rows_raises_exactly_where_a_bumped_entry_changes_a_verdict(p):
    # Each single entry of the table over 4z + 7 rows, raised by one and,
    # where positive, lowered by one, makes the table step inside a block:
    # the sweep raises at the first index that does, whatever the verdicts.
    # Each whole block, and each block with all that follow it, raised and
    # lowered by one keeps the table constant on blocks: the sweep passes
    # where every verdict holds and otherwise names the first pair that
    # changed. Both on the whole span and on spans that open inside a block,
    # one at its last row, where no pair has a larger units digit of k.
    z = entry_point(p).p_star
    rows = 4 * z + 7
    true = conjecture.fibotorial_valuations(rows - 1, p)
    for i in range(rows):
        for step in (1, -1):
            table = list(true)
            table[i] += step
            if table[i] < 0:
                continue
            step_at = _first_step_in_block(table, z)
            for lo in (0, 2 * z + 1):
                if step_at is None:  # the lone entry of the last block
                    _assert_sweep_flags_changed_verdicts(p, lo, rows, table)
                    continue
                m = step_at - step_at % z
                message = (f"oracle table steps inside a block at i={step_at}: "
                           f"{table[step_at]} against {table[m]} at i={m} (z={z}, p={p})")
                with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
                    conjecture._sweep_rows(entry_point(p), lo, rows, tuple(table))
    for m in range(0, rows, z):
        for end in (m + z, rows):
            for step in (1, -1):
                table = [v + step * (m <= i < end) for i, v in enumerate(true)]
                if min(table) >= 0:
                    for lo in (0, 2 * z + 1, 3 * z - 1):
                        _assert_sweep_flags_changed_verdicts(p, lo, rows, table)


@pytest.mark.parametrize("p", DENSE_PRIMES)
def test_sweep_rows_catches_every_single_entry_change(p):
    # Every entry of the exact table over 4z + 7 rows, raised and lowered
    # by one, on a span that opens inside block 2: the sweep raises, for
    # entries below the span too. The one entry it may pass is one alone in
    # the last block, which no block step shows, and then only if every
    # verdict holds.
    z = entry_point(p).p_star
    rows = 4 * z + 7
    true = conjecture.fibotorial_valuations(rows - 1, p)
    for i in range(rows):
        for step in (1, -1):
            table = list(true)
            table[i] += step
            if i == rows - 1 == i - i % z:
                _assert_sweep_flags_changed_verdicts(p, 2 * z + 1, rows, table)
                continue
            with pytest.raises(ArithmeticError):
                conjecture._sweep_rows(entry_point(p), 2 * z + 1, rows, tuple(table))


@pytest.mark.parametrize("p, rows", [(3, 823), (5, 823), (7, 823), (163, 683)])
def test_sweep_rows_flags_changed_blocks_at_benchmark_scale(p, rows):
    # Sweeps as long as the benchmark's: up to 206 quotient rows, where the
    # tests above stop at 7 quotient rows, and past the first place z * p. The
    # exact table passes from row 0 and from inside a middle block. Block 1,
    # a middle block and the last block, each raised and lowered by one,
    # alone and with every block after it, keep the table constant on
    # blocks: the sweep passes where every verdict holds and otherwise names
    # the first pair that changed, from both starts. Here every such change
    # reaches a verdict, in both classes of pair.
    profile = entry_point(p)
    z = profile.p_star
    true = conjecture.fibotorial_valuations(rows - 1, p)
    c = -(-rows // z)
    middle = c // 2 * z
    for lo in (0, middle + z // 2):
        assert conjecture._sweep_rows(profile, lo, rows, true) is None
    changed = []
    for m in (z, middle, (c - 1) * z):
        for end in (m + z, rows):
            for step in (1, -1):
                table = [v + step * (m <= i < end) for i, v in enumerate(true)]
                for lo in (0, middle + z // 2):
                    changed.append(_assert_sweep_flags_changed_verdicts(p, lo, rows, table))
    assert None not in changed
    assert any(k % z > n % z for n, k in changed)


def test_sweep_rows_refuses_a_negative_table():
    # A block set below zero keeps the table constant on blocks, but no
    # valuation is negative: the sweep raises at the first negative index,
    # from any start.
    table = list(conjecture.fibotorial_valuations(39, 7))
    table[16:24] = [-1] * 8
    for lo in (0, 30):
        with pytest.raises(ArithmeticError, match=r"^oracle table is negative at i=16: -1 "
                                                  r"\(z=8, p=7\)$"):
            conjecture._sweep_rows(entry_point(7), lo, 40, tuple(table))


def _table_topped_at(top, rng):
    # a * x + c * z * (i // z) keeps every verdict of x: the second term
    # adds c * z to the exponent of a pair whose units column carries, and
    # 0 to any other. It is constant on blocks of z, like x, and largest at
    # the last index: draw p and rows until a, c put that value exactly at
    # top.
    while True:
        p = rng.choice([2, 3, 5, 7, 23])
        z = entry_point(p).p_star
        rows = rng.randint(z + 1, 4 * z + 7)
        x = conjecture.fibotorial_valuations(rows - 1, p)
        step = z * ((rows - 1) // z)
        for a in range(1, step + 1):
            if a * x[-1] <= top and (top - a * x[-1]) % step == 0:
                c = (top - a * x[-1]) // step
                return p, [a * v + c * z * (i // z) for i, v in enumerate(x)]


def _raise_block(table, z, rng, value=None):
    # One whole block of z entries raised by one, or set to value.
    m = rng.randrange(0, len(table), z)
    for i in range(m, min(m + z, len(table))):
        table[i] = table[i] + 1 if value is None else value


def test_sweep_rows_oracle_at_every_field_width():
    # Tables of every bit length up to 65: seeded tables with the same
    # verdicts as the exact one, their largest value at 2**w - 1 and at
    # 2**w, pass whole and from a random row; the same tables with one block
    # raised by one, and exact tables with one block set to that largest
    # value, so that rows after it have smaller totals, raise exactly where
    # a verdict changes.
    rng = random.Random(23)
    for w in range(1, 65):
        for top in (2 ** w - 1, 2 ** w):
            p, table = _table_topped_at(top, rng)
            z = entry_point(p).p_star
            assert max(table) == top
            lo = rng.randrange(len(table))
            for start in (0, lo):
                _assert_sweep_flags_changed_verdicts(p, start, len(table), table)
            _raise_block(table, z, rng)
            _assert_sweep_flags_changed_verdicts(p, lo, len(table), table)
            table = list(conjecture.fibotorial_valuations(len(table) - 1, p))
            _raise_block(table, z, rng, top)
            _assert_sweep_flags_changed_verdicts(p, 0, len(table), table)


def test_digit_factor_table_from_prefix_matches_triangle_mod_p():
    # The sweep's oracle reads "p divides C(a, b)_F" off exact valuations,
    # where the triangle mod p gives it by the row recurrence. The sweep
    # checks the oracle against the carry test at every pair a, b <
    # max(z, p), and the carries in the base (z, p, p, ...) are the
    # triangle's zeros, in both relation classes.
    classes = set()
    for p in filter(is_prime, range(200)):
        profile = entry_point(p)
        z = profile.p_star
        classes.add(profile.relation is Relation.LESS)
        size = max(z, p)
        assert conjecture._sweep_rows(
            profile, 0, size, fibotorial_valuations(size - 1, p)) is None
        carries = [[k % z > n % z or k // z > n // z for k in range(n + 1)]
                    for n in range(size)]
        zeros = [[e == 0 for e in row.entries]
                 for row in iter_fibonomial_rows_mod(size, p)]
        assert carries == zeros, p
        # Rows below z have no zeros: the digit factors are prime to p.
        assert not any(map(any, zeros[:z])), p
    assert classes == {True, False}


def _recording_table(table, packed):
    # The prefix table, recording the length of every slice taken from it:
    # the sweep takes its rows of the oracle as one slice.
    class Recording(tuple):
        def __getitem__(self, i):
            value = tuple.__getitem__(self, i)
            if isinstance(i, slice):
                packed.append(len(value))
            return value

    return Recording(table)


@pytest.mark.parametrize("method", ["carry", "oracle"])
def test_sweep_rows_on_large_prime_builds_table_for_rows_only(method, monkeypatch):
    # z = 10008 > p = 10007: a table sized by the prime would take ~10^8
    # cells. Every call slices the prefix table once, for its oracle rows,
    # and builds no digit-factor table; no row of the triangle mod p, and
    # no coefficient mod p, is computed.
    packed = []
    oracle = conjecture.fibotorial_valuations

    def refused(*args, **kwargs):
        raise AssertionError(f"coefficients mod p computed with {args}")

    monkeypatch.setattr(conjecture, "fibotorial_valuations",
                        lambda limit, p: _recording_table(oracle(limit, p), packed))
    monkeypatch.setattr(core, "_weighted_rows", refused)
    assert entry_point(10007).p_star == 10008
    _sweeps_agree(10007, 30, method, 1)
    assert packed == [30] + [hi for _, hi in _block_spans(30, 10008)]


def test_sweep_rows_past_entry_point_on_large_prime_builds_no_table():
    # Rows 10006-10011 of p = 10007 straddle z = 10008, past which the high
    # digit is 1. The only slice is that of the oracle rows: no table of
    # ~z rows and ~z**2 / 2 bytes.
    packed = []
    profile = entry_point(10007)
    assert profile.p_star == 10008
    prefix = _recording_table(conjecture.fibotorial_valuations(10011, 10007), packed)
    tracemalloc.start()
    try:
        got = conjecture._sweep_rows(profile, 10006, 10012, prefix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packed == [10012]
    assert got is None
    assert sweep_rows_per_pair(profile, 10006, 10012, prefix) == []
    assert peak < 8 * 2**20, peak


def test_oracle_stride_catches_wrong_carry_valuation(corrupt_oracle):
    # Every pair is checked against the oracle: (16, 1), pair number 137 in
    # row-major order, is one that a check of every 37th pair skipped.
    with pytest.raises(ArithmeticError, match=r"^carry test True disagrees with oracle "
                                              r"exponent 0 at \(n=16, k=1, p=7\)$"):
        verify_conjecture(entry_point(7), 40)


def test_oracle_stride_catches_wrong_carry_test(monkeypatch):
    # The locator is the only code that computes carry digits. Twice the
    # exact table, its last block of quotient row 9 lowered by one, keeps
    # every verdict of 80 rows at p = 7 but fails the certificate at row 9,
    # so the sweep passes with the locator testing row 9. Give the locator
    # the digits of row 8, (1 1), in place of 9's, (2 1): then 2 seems to
    # carry in 2 + 7, which does not, where the oracle reads exponent -1.
    table = [2 * v for v in conjecture.fibotorial_valuations(79, 7)]
    table[72:] = [v - 1 for v in table[72:]]
    assert conjecture._certified_rows(tuple(table[::8]), 7) == 9
    assert conjecture._sweep_rows(entry_point(7), 0, 80, tuple(table)) is None
    digits = conjecture._digit_exceeds
    monkeypatch.setattr(conjecture, "_digit_exceeds",
                        lambda j, q, p: digits(j, q - (q == 9), p))
    with pytest.raises(ArithmeticError, match=r"^carry test True disagrees with oracle "
                                              r"exponent -1 at \(n=72, k=16, p=7\)$"):
        conjecture._sweep_rows(entry_point(7), 0, 80, tuple(table))


def _counting_digit_test(monkeypatch, budget):
    # Records the quotient row of every call to the locator's digit test,
    # and fails once the calls outnumber budget.
    rows, digits = [], conjecture._digit_exceeds

    def counting(j, q, p):
        rows.append(q)
        assert len(rows) <= budget, "the locator tests more than one quotient row"
        return digits(j, q, p)

    monkeypatch.setattr(conjecture, "_digit_exceeds", counting)
    return rows


def test_sweep_rows_locator_starts_at_the_certified_rows(monkeypatch):
    # The certificate leaves the locator nothing on the exact table. With
    # one middle block m raised by one, it fails at quotient row m, which
    # then holds the first changed pair, as does row m + 2 for a span from
    # its first row: the locator starts at the later of the two and raises
    # there, one quotient row of digit tests where starting at row 0 would
    # take about c**2 / 8 of them, c = 33,334 at p = 2 and 100,000 rows.
    profile = entry_point(2)
    rows, z = conjecture.MAX_SWEEP_ROWS, profile.p_star
    true = conjecture.fibotorial_valuations(rows - 1, 2)
    c = -(-rows // z)
    seen = _counting_digit_test(monkeypatch, c)
    for lo in (0, rows // 2, rows - 1):
        assert conjecture._sweep_rows(profile, lo, rows, true) is None
    assert seen == []
    m = c // 2
    table = [v + (i // z == m) for i, v in enumerate(true)]
    assert conjecture._certified_rows(tuple(table[::z]), 2) == m
    for lo, start in ((0, m), (m * z + 1, m), ((m + 2) * z, m + 2)):
        seen.clear()
        with pytest.raises(ArithmeticError, match="^carry test "):
            conjecture._sweep_rows(profile, lo, rows, tuple(table))
        assert set(seen) == {start} and len(seen) <= start + 1


def test_oracle_mismatch_at_interior_k_names_pair_and_exponent():
    # Move the oracle's block [8, 16) of p = 7 by one and sweep from row 21
    # = 2 * 8 + 5. Lowered, 8 + 13 carries nowhere in the entry-point base
    # (8, 7, ...), yet the oracle reads exponent 2 at k = 8, the first k of
    # row 21 whose quotient terms it changes. Raised, 6 + 15 carries in the
    # units column, yet the oracle reads exponent 0 at k = 6, the first k
    # past 5 whose terms it changes.
    for step, verdict, exponent, k in [(-1, False, 2, 8), (1, True, 0, 6)]:
        prefix = list(conjecture.fibotorial_valuations(39, 7))
        prefix[8:16] = [v + step for v in prefix[8:16]]
        with pytest.raises(ArithmeticError, match=f"^carry test {verdict} disagrees with oracle "
                                                  rf"exponent {exponent} at \(n=21, k={k}, p=7\)$"):
            conjecture._sweep_rows(entry_point(7), 21, 40, tuple(prefix))


@pytest.mark.parametrize("p, witness", [
    (11, (100, 10)),
    (13, (49, 7)),
    (17, (81, 9)),
])
def test_find_counterexample_known_witnesses(p, witness):
    n, k, verdict = find_counterexample(entry_point(p))
    assert (n, k) == witness
    assert verdict.lhs_divisible is False
    assert verdict.rhs_divisible is True
    assert verdict.agrees is False


def test_find_counterexample_requires_less_relation():
    for p in (2, 3, 5, 7, 23):
        with pytest.raises(ValueError):
            find_counterexample(entry_point(p))


def test_witness_against_exact_arithmetic():
    # The coefficient at (z*z, z) for p = 13 is genuinely coprime to 13.
    coeff = naive_fibonomial(49, 7)
    assert nu(coeff, 13) == 0
    assert fib(7) % 13 == 0  # while the digit factor F_7 is divisible


@pytest.mark.parametrize("n, k, expected", [
    (5, 1, True),
    (9, 4, False),
    (7, 3, True),
    (0, 0, False),
])
def test_five_divides_fibonomial_examples(n, k, expected):
    # 5 divides the coefficient exactly when some base-5 digit of k exceeds
    # the matching digit of n.
    assert (naive_fibonomial(n, k) % 5 == 0) == expected
    assert _base5_digit_exceeds(n, k) == expected


def test_five_divides_fibonomial_matches_exact_and_digit_product():
    ft = fibotorial_seq(150)
    p5 = entry_point(5)
    for n in range(151):
        for k in range(n + 1):
            want = naive_fibonomial(n, k, ft) % 5 == 0
            assert _base5_digit_exceeds(n, k) == want
            assert digit_product_divisible(n, k, p5) == want


def test_triangle_mod_p_obeys_the_lucas_type_congruence():
    # Every entry of the triangle mod each prime below 60, over at least
    # four blocks of z rows, is the congruence's residue. Two of the paper's
    # lemmas are its instances:
    # - the mod-2 period: z = 3 and F_4 = 1 (mod 2), so with Lucas for
    #   binom(N, K), C(n + 3 * 2**m, k)_F = C(n, k)_F (mod 2) for n, k < 3 * 2**m;
    # - the mod-5 row shift: z = 5 and F_6 = 3 (mod 5), so
    #   C(n + 5, k)_F = 3**k C(n, k)_F (mod 5) for k < 5.
    for p in sorted(primes_below(60)):
        rows = max(4 * entry_point_walk(p) + 5, 100)
        for row in iter_fibonomial_rows_mod(rows, p):
            want = [fibonomial_mod_prime(row.n, k, p) for k in range(row.n + 1)]
            assert list(row.entries) == want, (p, row.n)


def test_fibonomial_mod_obeys_the_lucas_type_congruence():
    # Far past any triangle: n below 10**1 .. 10**12 in turn, min(k, n - k)
    # below 60, primes up to 233.
    rng = random.Random(29)
    primes = sorted(primes_below(234))
    for i in range(300):
        p, n = rng.choice(primes), rng.randrange(10 ** (i % 12 + 1))
        j = rng.randrange(min(n, 59) + 1)
        for k in (j, n - j):
            assert fibonomial_mod(n, k, p) == fibonomial_mod_prime(n, k, p), (n, k, p)


@pytest.mark.parametrize("n, k, p, expected", [
    (109, 7, 7, 1),
    (4, 2, 2, 0),
    (17, 0, 3, 1),
])
def test_lucas_examples(n, k, p, expected):
    assert lucas_binomial_residue(n, k, p) == expected
    assert math.comb(n, k) % p == expected


def test_lucas_matches_comb():
    for p in (2, 3, 5, 7):
        for n in range(0, 301, 3):
            for k in range(0, n + 1, 2):
                assert lucas_binomial_residue(n, k, p) == math.comb(n, k) % p
    with pytest.raises(ValueError):
        lucas_binomial_residue(10, 2, 6)


def test_max_entry_point_primes():
    # Primes up to 110 whose entry point takes its maximum value p + 1.
    hit = [p for p in range(2, 111) if is_prime(p) and entry_point(p).p_star == p + 1]
    assert hit == [2, 3, 7, 23, 43, 67, 83, 103]


def test_entry_point_at_least_p_leaves_digit_factors_prime_to_p():
    # Why sweeps with z >= p find nothing. z divides p - (5/p) (Lucas;
    # Wall), so z is p or p + 1, F_1 .. F_{z-1} are prime to p, and so is
    # every digit factor C(a, b)_F with b <= a < z. The digit product is
    # then divisible when a digit of k exceeds that of n, which is when
    # adding k to n - k carries, which by Knuth and Wilf (1989) is when p
    # divides the coefficient: the sweep builds that one side.
    ft = fibotorial_seq(120)
    fibs = fib_seq(121)
    swept = []
    for p in filter(is_prime, range(120)):
        z = next(i for i, f in enumerate(fibs, 1) if f % p == 0)
        if z < p:
            continue
        swept.append(p)
        assert z in (p, p + 1)
        for a in range(z):
            for b in range(a + 1):
                assert naive_fibonomial(a, b, ft) % p != 0, (p, a, b)
    assert swept == [2, 3, 5, 7, 23, 43, 67, 83, 103]


def test_sweep_record_jsonl_schema():
    verdicts = (
        ConjectureVerdict.compare(11, 100, 10, False, True),
        ConjectureVerdict.compare(11, 100, 20, True, True),
    )
    record = SweepRecord(11, 120, verdicts, 1.25)
    lines = record.jsonl_lines()
    assert json.loads(lines[0]) == {"p": 11, "rows": 120, "method": "carry"}
    assert json.loads(lines[1]) == {"p": 11, "n": 100, "k": 10,
                                    "lhs": False, "rhs": True, "agree": False}
    assert json.loads(lines[2]) == {"p": 11, "n": 100, "k": 20,
                                    "lhs": True, "rhs": True, "agree": True}
    assert json.loads(lines[3]) == {"counterexamples": 2, "seconds": None}


@pytest.mark.parametrize("p, rows", [(2, 0), (7, 365), (103, 1), (100049, 10**9)])
def test_sweep_record_lines_are_the_json_dumps_text(p, rows):
    # The lines are written as literal text; each must be byte for byte what
    # json.dumps gives for its object.
    verdicts = tuple(ConjectureVerdict.compare(p, n, k, lhs, rhs)
                     for n, k, lhs, rhs in [(rows, 3, False, True), (rows + 1, 0, True, True),
                                            (5, 2, False, False), (9, 4, True, False)])
    for counterexamples in ((), verdicts):
        record = SweepRecord(p, rows, counterexamples, 0.5)
        assert record.jsonl_lines() == [
            json.dumps({"p": p, "rows": rows, "method": "carry"}),
            *(json.dumps({"p": v.p, "n": v.n, "k": v.k, "lhs": v.lhs_divisible,
                          "rhs": v.rhs_divisible, "agree": v.agrees})
              for v in counterexamples),
            json.dumps({"counterexamples": len(counterexamples), "seconds": None}),
        ]

