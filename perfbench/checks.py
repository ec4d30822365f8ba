"""Expected outcomes and output checks, computed with `oracle`, never the package.

Each `check_*` function classifies one finished op:

- "ok": the output is the correct answer;
- "defect": the op failed in the documented way of a known defect of the
  program (the 4,300-digit int-to-str limit on exact output, or the O(p)
  entry-point walk missing its deadline); it counts toward `fail_ratio`
  and the per-class failure counts;
- "fail": anything else: a wrong answer, an unexpected exit code, a crash,
  or a missed deadline outside the known defect.
"""

from __future__ import annotations

import json
import math
import re

import oracle

STR_LIMIT = 4300  # CPython's default int-to-str digit limit
_LIMIT_MESSAGE = "Exceeds the limit"
_VIRIDIS = ("#440154", "#46327e", "#365c8d", "#277f8e",
            "#1fa187", "#4ac16d", "#a0da39", "#fde725")
_SVG_CELL = 10
_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="10" height="10" fill="(#[0-9a-f]{6})"/>')


def _limit_failure(code, stderr: str) -> bool:
    return code == 2 and _LIMIT_MESSAGE in stderr


def _exact_too_long(value: int) -> bool:
    return len(str(value)) > STR_LIMIT


# --- sweeps ---------------------------------------------------------------

def _partitions(spans: list, rows: int) -> bool:
    """Whether the row spans cover [0, rows) once each, in order."""
    edge = 0
    for lo, hi in spans:
        if lo != edge or hi <= lo:
            return False
        edge = hi
    return edge == rows or (rows == 0 and not spans)


def check_sweep(op, code, stdout: str, out_text: str | None, traced: dict | None = None) -> str:
    """The output says no counterexample (z >= p), and, on a traced pass,
    the sweep covered every pair: its row spans partition [0, rows), and a
    serial sweep compared R(R+1)/2 pairs. A sweep whose pair comparisons
    are no longer seen by the wrappers (a count of 0) is not held to the
    count; `conjecture.pairs` then reads 0."""
    p, rows = op.params["p"], op.params["rows"]
    if code != 0 or out_text is None:
        return "fail"
    lines = stdout.splitlines()
    if not lines or not re.fullmatch(
            rf"p={p} rows={rows} method=carry counterexamples=0 seconds=\d+\.\d\d", lines[0]):
        return "fail"
    want = [{"p": p, "rows": rows, "method": "carry"},
            {"counterexamples": 0, "seconds": None}]
    try:
        got = [json.loads(line) for line in out_text.splitlines()]
    except ValueError:
        return "fail"
    if got != want:
        return "fail"
    if traced is not None:
        if traced["chunks"] is not None and not _partitions(traced["chunks"], rows):
            return "fail"
        if op.params["jobs"] == 1 and traced["pairs"] and traced["pairs"] != op.work:
            return "fail"
    return "ok"


# --- triangles ------------------------------------------------------------

def expected_triangle(params: dict) -> list[list[int]]:
    rows, kind, m = params["rows"], params["kind"], params["mod"]
    if kind == "binomial":
        return oracle.binomial_rows_mod(rows, m)
    if m is None:
        return oracle.fibonomial_rows_exact(rows)
    return oracle.fibonomial_rows_mod(rows, m)


def _parse_pgm(doc: str, rows: int, m: int, want) -> bool:
    lines = doc.split("\n")
    width = 2 * rows - 1
    if lines[:3] != ["P2", f"{width} {rows}", "255"] or lines[3 + rows:] != [""]:
        return False
    for n, row in enumerate(want):
        expect = [255] * width
        for k, r in enumerate(row):
            expect[rows - 1 - n + 2 * k] = 255 * r // (m - 1)
        if [int(v) for v in lines[3 + n].split()] != expect:
            return False
    return True


def _parse_svg(doc: str, rows: int, m: int, want) -> bool:
    size = rows * _SVG_CELL
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">')
    if head not in doc.split("\n", 2)[1] or not doc.endswith("</svg>\n"):
        return False
    got = _RECT.findall(doc)
    expect = []
    for n, row in enumerate(want):
        for k, r in enumerate(row):
            x = (rows - 1 - n) * _SVG_CELL // 2 + k * _SVG_CELL
            fill = _VIRIDIS[round(r * (len(_VIRIDIS) - 1) / (m - 1))]
            expect.append((str(x), str(n * _SVG_CELL), fill))
    return got == expect


def _parse_ascii(doc: str, want) -> bool:
    if not doc.endswith("\n"):
        return False
    lines = doc[:-1].split("\n")
    return len(lines) == len(want) and all(
        [int(t) for t in line.split()] == row for line, row in zip(lines, want))


def check_triangle(op, code, stderr: str, doc: str | None) -> str:
    params = op.params
    want = expected_triangle(params)
    if params["mod"] is None and _exact_too_long(max(want[-1])):
        if _limit_failure(code, stderr):
            return "defect"
    if code != 0 or doc is None:
        return "fail"
    fmt, rows, m = params["format"], params["rows"], params["mod"]
    try:
        if fmt == "json":
            ok = json.loads(doc) == {"kind": params["kind"], "rows": rows,
                                     "modulus": m, "triangle": want}
        elif fmt == "ascii":
            ok = _parse_ascii(doc, want)
        elif fmt == "pgm":
            ok = _parse_pgm(doc, rows, m, want)
        else:
            ok = _parse_svg(doc, rows, m, want)
    except ValueError:
        ok = False
    return "ok" if ok else "fail"


# --- queries --------------------------------------------------------------

def expected_query(op) -> tuple[int, str]:
    """(exit code, stdout) a correct program gives for a query op."""
    q, cls = op.params, op.cls
    if cls == "fibonomial_mod":
        return 0, f"{oracle.fibonomial(q['n'], q['k']) % q['m']}\n"
    if cls in ("valuation_carry", "valuation_oracle"):
        return 0, f"{oracle.fibonomial_valuation(q['n'], q['k'], q['p'])}\n"
    if cls in ("entry_point", "entry_point_big"):
        z, e, rel = oracle.entry_point(q["p"])
        return 0, f"p={q['p']} p_star={z} nu_p_F_pstar={e} relation={rel}\n"
    if cls == "fib_mod":
        return 0, f"{oracle.fib_mod(q['n'], q['m'])}\n"
    if cls == "fibonomial_exact":
        return 0, f"{oracle.fibonomial(q['n'], q['k'])}\n"
    if cls == "counterexample":
        p = q["p"]
        z, _, rel = oracle.entry_point(p)
        n = z * z
        lhs = sum(oracle.fib_valuation(n - z + i, p) - oracle.fib_valuation(i, p)
                  for i in range(1, z + 1)) >= 1
        rhs = oracle.digit_product_divisible(n, z, p, z)
        return (1 if lhs != rhs else 0,
                f"p={p} p_star={z} relation={rel}\n"
                f"witness n={n} k={z}: lhs_divisible={lhs} rhs_divisible={rhs} "
                f"agrees={lhs == rhs}\n")
    if cls == "expand":
        if q["base"] == "p":
            digits = oracle.digits_p(q["n"], q["p"])
        else:
            digits = oracle.digits_fp(q["n"], q["p"], oracle.entry_point(q["p"])[0])
        return 0, "(" + " ".join(map(str, digits)) + ")\n"
    if cls == "lucas":
        return 0, f"{math.comb(q['n'], q['k']) % q['p']}\n"
    raise ValueError(f"unknown query class {cls!r}")


def check_query(op, expected: tuple[int, str], code, stdout: str, stderr: str,
                timed_out: bool) -> str:
    if not timed_out and (code, stdout) == expected:
        return "ok"
    if op.cls == "entry_point_big" and timed_out:
        return "defect"
    if op.cls == "fibonomial_exact" and len(expected[1]) - 1 > STR_LIMIT \
            and _limit_failure(code, stderr):
        return "defect"
    return "fail"
