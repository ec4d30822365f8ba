"""Triangle rendering: centered ASCII, plain-PGM and SVG rasters, and JSON.

ASCII uses fixed-width cells sized by the widest entry, each row indented
half a pitch relative to the next, which reproduces the classic centered
triangle layout. Raster formats need a modulus: residue r maps to gray
level floor(255 * r / (m - 1)) in PGM and to a discrete viridis-like
color in SVG, so zero residues are visually distinct in both.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

from .core import (
    TriangleRow,
    iter_binomial_rows_exact,
    iter_binomial_rows_mod,
    iter_fibonomial_rows_exact,
    iter_fibonomial_rows_mod,
)

KINDS = ("fibonomial", "binomial")

_VIRIDIS = (
    "#440154", "#46327e", "#365c8d", "#277f8e",
    "#1fa187", "#4ac16d", "#a0da39", "#fde725",
)

_SVG_CELL = 10


class RenderSpec(NamedTuple):
    """What to draw: row count, triangle kind, optional modulus, format."""

    rows: int
    kind: str = "fibonomial"
    modulus: int | None = None
    format: str = "ascii"


def triangle_rows(spec: RenderSpec) -> list[TriangleRow]:
    """Materialize the rows a spec asks for."""
    if spec.rows < 1:
        raise ValueError(f"need at least one row, got {spec.rows}")
    if spec.kind not in KINDS:
        raise ValueError(f"unknown triangle kind {spec.kind!r}")
    if spec.modulus is not None and spec.modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {spec.modulus}")
    if spec.kind == "fibonomial":
        if spec.modulus is None:
            it = iter_fibonomial_rows_exact(spec.rows)
        else:
            it = iter_fibonomial_rows_mod(spec.rows, spec.modulus)
    else:
        if spec.modulus is None:
            it = iter_binomial_rows_exact(spec.rows)
        else:
            it = iter_binomial_rows_mod(spec.rows, spec.modulus)
    return list(it)


def _printable_rows(spec: RenderSpec) -> list[TriangleRow]:
    """triangle_rows, held to Python's int-to-str digit limit.

    Exact entries are Decimals, which print at any length, so the limit is
    applied on purpose: when the largest entry, the middle of the last row
    (both kinds of row are unimodal), has more digits than a nonzero limit,
    this raises the ValueError that printing it as an int would.
    """
    rows = triangle_rows(spec)
    if spec.modulus is None:
        last = rows[-1].entries
        digits = last[len(last) // 2].adjusted() + 1
        limit = sys.get_int_max_str_digits()
        if limit and digits > limit:
            raise ValueError(
                f"Exceeds the limit ({limit} digits) for integer string "
                "conversion; use sys.set_int_max_str_digits() to increase the limit")
    return rows


def render(spec: RenderSpec) -> str:
    """Dispatch on spec.format; every path returns a complete document."""
    if spec.format == "ascii":
        return render_ascii(spec)
    if spec.format == "pgm":
        return render_pgm(spec)
    if spec.format == "svg":
        return render_svg(spec)
    if spec.format == "json":
        return render_json(spec)
    raise ValueError(f"unknown format {spec.format!r}")


def render_ascii(spec: RenderSpec) -> str:
    rows = _printable_rows(spec)
    cells = [[str(e) for e in row.entries] for row in rows]
    width = max(len(c) for row in cells for c in row)
    gap = " " * width
    lines = []
    for n, row in enumerate(cells):
        indent = " " * (width * (len(cells) - 1 - n))
        lines.append((indent + gap.join(c.rjust(width) for c in row)).rstrip())
    return "\n".join(lines) + "\n"


def _require_modulus(spec: RenderSpec) -> int:
    if spec.modulus is None:
        raise ValueError(f"{spec.format} output requires a modulus")
    return spec.modulus


def render_pgm(spec: RenderSpec) -> str:
    """Plain (P2) grayscale raster, one pixel per cell, rows top-down.

    The triangle is centered on a white background: row n occupies columns
    (rows-1-n) + 2k for k = 0..n in a canvas 2*rows-1 wide.
    """
    m = _require_modulus(spec)
    rows = triangle_rows(spec)
    width = 2 * spec.rows - 1
    lines = ["P2", f"{width} {spec.rows}", "255"]
    for n, row in enumerate(rows):
        pixels = [255] * width
        for k, e in enumerate(row.entries):
            pixels[spec.rows - 1 - n + 2 * k] = 255 * e // (m - 1)
        lines.append(" ".join(str(v) for v in pixels))
    return "\n".join(lines) + "\n"


def _fill(residue: int, m: int) -> str:
    index = round(residue * (len(_VIRIDIS) - 1) / (m - 1))
    return _VIRIDIS[index]


def render_svg(spec: RenderSpec) -> str:
    """SVG 1.1 document, one square per cell, rows offset by half a cell."""
    m = _require_modulus(spec)
    rows = triangle_rows(spec)
    s = _SVG_CELL
    width = spec.rows * s
    height = spec.rows * s
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for n, row in enumerate(rows):
        y = n * s
        for k, e in enumerate(row.entries):
            x = (spec.rows - 1 - n) * s // 2 + k * s
            lines.append(
                f'  <rect x="{x}" y="{y}" width="{s}" height="{s}" '
                f'fill="{_fill(e, m)}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_json(spec: RenderSpec) -> str:
    """The text json.dumps gives for {"kind", "rows", "modulus", "triangle"},
    plus a newline. Each row is written from its entries' own str, which for
    exact rows is linear in their digits, and the pieces are joined once."""
    rows = _printable_rows(spec)
    head = json.dumps({"kind": spec.kind, "rows": spec.rows, "modulus": spec.modulus})
    parts = [head[:-1], ', "triangle": [']
    for row in rows:
        parts += ("[", ", ".join(map(str, row.entries)), "], ")
    parts[-1] = "]]}\n"
    return "".join(parts)
