"""Spans around calls into the package's modules, recorded from outside.

`install` replaces functions in the module namespaces where their callers
look them up (for example `fibonomial.conjecture.expand_base_fp`) with
wrappers that record a span: name, start, end and parent. Span names are
`<layer>.<function>`, the layer being the package module. Aggregates
(count, inclusive time, self time per name, self time per layer) are kept
for every span; the raw spans are kept in memory up to a cap and written
out when the run ends, because a sweep makes millions of them.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import os
import pickle
import time
from collections import defaultdict

LAYERS = ("cli", "core", "radix", "valuation", "conjecture", "render")
ROOT = "cli.main"
_clock = time.perf_counter


class Recorder:
    def __init__(self, keep: int = 20_000):
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.covered = 0.0  # time in spans other than the root, at the top
        self.spans: list[tuple] = []
        self.keep = keep
        self.next_id = 0
        self.last_prefix: tuple = ()
        self.last_chunks: list | None = None
        # Pool workers fork from a traced process; their spans never come
        # back, so they stop recording.
        self.on = True
        os.register_at_fork(after_in_child=self._off)

    def _off(self) -> None:
        self.on = False

    def enter(self, name: str) -> None:
        self.next_id += 1
        self.stack.append([name, _clock(), 0.0, self.next_id])

    def exit(self) -> None:
        end = _clock()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        pname = parent[0] if parent else ""
        self.count[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.edges[(pname, name)] += 1
        if parent is not None:
            parent[2] += dur
        if (parent is None and name != ROOT) or pname == ROOT:
            self.covered += dur
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent[3] if parent else 0, name, start, end))

    def parent_name(self) -> str:
        return self.stack[-1][0] if self.stack else ""

    def add(self, counter: str, n: float = 1) -> None:
        self.counters[counter] += n

    def summary(self) -> dict:
        return {
            "count": dict(self.count),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "edges": [[a, b, n] for (a, b), n in self.edges.items()],
            "counters": dict(self.counters),
            "covered": self.covered,
            "spans": self.spans,
        }


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per process or per worker)."""
    out = {"count": defaultdict(int), "total": defaultdict(float),
           "self": defaultdict(float), "edges": defaultdict(int),
           "counters": defaultdict(float), "covered": 0.0, "spans": []}
    for s in summaries:
        for key in ("count", "total", "self", "counters"):
            for name, v in s[key].items():
                out[key][name] += v
        for a, b, n in s["edges"]:
            out["edges"][(a, b)] += n
        out["covered"] += s["covered"]
        out["spans"].extend(s["spans"])
    out["edges"] = [[a, b, n] for (a, b), n in out["edges"].items()]
    return out


def _span(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(out, args)
        return out
    return traced


def _rows(rec: Recorder, fn):
    """Wrap a row iterator so each step of the recurrence is one span."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)

        if not rec.on:
            return it

        def steps():
            while True:
                rec.enter("core.row_recurrence")
                try:
                    row = next(it)
                except StopIteration:
                    return
                finally:
                    rec.exit()
                rec.add("core.row_cells", len(row.entries))
                yield row
        return steps()
    return traced


class CountingPrefix(tuple):
    """The oracle prefix table; counts the lookups the sweep makes in it."""

    rec: Recorder | None = None

    def __getitem__(self, i):
        if CountingPrefix.rec is not None and CountingPrefix.rec.on:
            CountingPrefix.rec.add("valuation.prefix_lookups")
        return tuple.__getitem__(self, i)


class _File:
    def __init__(self, rec: Recorder, fh):
        self._rec, self._fh = rec, fh

    def write(self, text: str) -> int:
        self._rec.enter("cli.write")
        try:
            return self._fh.write(text)
        finally:
            self._rec.exit()
            self._rec.add("cli.bytes_out", len(text))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._rec.enter("cli.write")
        try:
            self._fh.close()
        finally:
            self._rec.exit()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def install(rec: Recorder) -> None:
    """Wrap the package's functions where the CLI and its callees find them."""
    cli, core, radix, valuation, conjecture, render = (
        importlib.import_module(f"fibonomial.{layer}") for layer in LAYERS)

    def rows_needed(rows, _args):
        rec.add("core.cells_needed", sum(len(r.entries) for r in rows))

    def one_cell(_row, _args):
        rec.add("core.cells_needed", 1)

    def carry_seen(val, _args):
        if rec.parent_name() == "conjecture.sweep_rows":
            rec.add("conjecture.lhs_divisible", val.exponent >= 1)

    def digit_seen(divisible, _args):
        if rec.parent_name() == "conjecture.sweep_rows":
            rec.add("conjecture.pairs")
            rec.add("conjecture.rhs_divisible", bool(divisible))

    def columns(report, _args):
        rec.add("radix.carry_columns", len(report.digit_sums))

    def chunks(spans, args):
        rec.last_chunks = [list(span) for span in spans]
        rec.add("conjecture.sweeps")
        rec.add("conjecture.chunks", len(spans))
        if args[1] <= 1 or len(spans) <= 1:
            return
        sizes = [sum(n + 1 for n in range(lo, hi)) for lo, hi in spans]
        rec.add("conjecture.chunk_max_pairs", max(sizes))
        rec.add("conjecture.chunk_mean_pairs", sum(sizes) / len(sizes))
        rec.add("conjecture.pool_sweeps")
        rec.add("conjecture.prefix_bytes_sent",
                len(pickle.dumps(tuple(rec.last_prefix))) * len(spans))

    CountingPrefix.rec = rec

    def traced_open(*args, **kwargs):
        rec.enter("cli.write")
        try:
            fh = builtins.open(*args, **kwargs)
        finally:
            rec.exit()
        return _File(rec, fh)

    def counting_prefix(fn):
        traced = _span(rec, "valuation.fibotorial_valuations", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.last_prefix = traced(*args, **kwargs)
            return CountingPrefix(rec.last_prefix)
        return wrapper

    patches = [
        (cli, "fib", _span(rec, "core.fib", core.fib)),
        (cli, "fib_mod", _span(rec, "core.fib_mod", core.fib_mod)),
        (cli, "fibonomial", _span(rec, "core.fibonomial_exact", core.fibonomial)),
        (cli, "fibonomial_row_mod",
         _span(rec, "core.fibonomial_row_mod", core.fibonomial_row_mod, one_cell)),
        (cli, "entry_point", _span(rec, "valuation.entry_point", valuation.entry_point)),
        (cli, "carry_valuation",
         _span(rec, "valuation.carry_valuation", valuation.carry_valuation)),
        (cli, "nu_p_fibonomial_oracle",
         _span(rec, "valuation.nu_p_fibonomial_oracle", valuation.nu_p_fibonomial_oracle)),
        (cli, "expand_base_fp", _span(rec, "radix.expand_base_fp", radix.expand_base_fp)),
        (cli, "expand_base_p", _span(rec, "radix.expand_base_p", radix.expand_base_p)),
        (cli, "lucas_binomial_residue",
         _span(rec, "conjecture.lucas_binomial_residue", conjecture.lucas_binomial_residue)),
        (cli, "find_counterexample",
         _span(rec, "conjecture.find_counterexample", conjecture.find_counterexample)),
        (cli, "verify_conjecture",
         _span(rec, "conjecture.verify_conjecture", conjecture.verify_conjecture)),
        (cli, "render", _span(rec, "render.render", render.render,
                              lambda doc, _a: rec.add("render.bytes", len(doc)))),
        (cli, "open", traced_open),
        (conjecture, "expand_base_fp", _span(rec, "radix.expand_base_fp", radix.expand_base_fp)),
        (conjecture, "_pairs_divisible",
         _span(rec, "conjecture.digit_product", conjecture._pairs_divisible, digit_seen)),
        (conjecture, "carry_valuation",
         _span(rec, "valuation.carry_valuation", valuation.carry_valuation, carry_seen)),
        (conjecture, "fibotorial_valuations", counting_prefix(valuation.fibotorial_valuations)),
        (conjecture, "_row_chunks", _span(rec, "conjecture.row_chunks", conjecture._row_chunks, chunks)),
        (conjecture, "_sweep_rows", _span(rec, "conjecture.sweep_rows", conjecture._sweep_rows)),
        (conjecture, "fibonomial", _span(rec, "core.fibonomial_exact", core.fibonomial)),
        (conjecture, "is_prime", _span(rec, "valuation.is_prime", valuation.is_prime)),
        (valuation, "add_with_carries",
         _span(rec, "radix.add_with_carries", radix.add_with_carries, columns)),
        (valuation, "is_prime", _span(rec, "valuation.is_prime", valuation.is_prime)),
        (valuation, "fib", _span(rec, "core.fib", core.fib)),
        (valuation, "fibotorial_valuations",
         _span(rec, "valuation.fibotorial_valuations", valuation.fibotorial_valuations)),
        (radix, "expand_base_p", _span(rec, "radix.expand_base_p", radix.expand_base_p)),
        (core, "iter_fibonomial_rows_mod", _rows(rec, core.iter_fibonomial_rows_mod)),
        (render, "triangle_rows",
         _span(rec, "render.triangle_rows", render.triangle_rows, rows_needed)),
    ]
    for name in ("iter_fibonomial_rows_mod", "iter_fibonomial_rows_exact",
                 "iter_binomial_rows_mod", "iter_binomial_rows_exact"):
        patches.append((render, name, _rows(rec, getattr(core, name))))
    for module, name, fn in patches:
        setattr(module, name, fn)


def read_caches(rec: Recorder) -> None:
    """Fold the package's lru_cache statistics for one op into counters."""
    import fibonomial.conjecture as conjecture
    import fibonomial.valuation as valuation

    for key, cached in (("entry_point", valuation.entry_point),
                        ("digit_cache", conjecture._digit_factor_divisible)):
        info = cached.cache_info()
        rec.add(f"{key}.hits", info.hits)
        rec.add(f"{key}.misses", info.misses)


def clear_caches() -> None:
    """Start an in-process op as cold as a fresh CLI process."""
    import fibonomial.conjecture as conjecture
    import fibonomial.valuation as valuation

    valuation.entry_point.cache_clear()
    conjecture._digit_factor_divisible.cache_clear()
    conjecture._rows_mod_cache.clear()
