import json
import math
import pathlib

import pytest

from fibonomial.core import fibonomial, fibonomial_row_mod
from fibonomial.render import RenderSpec, render, render_json, triangle_rows

from oracles import fibotorial_seq, naive_fibonomial

GOLDENS = pathlib.Path(__file__).parent / "goldens"

GOLDEN_SPECS = {
    "pascal_8": RenderSpec(rows=8, kind="binomial"),
    "pascal_mod2_8": RenderSpec(rows=8, kind="binomial", modulus=2),
    "fibonomial_8": RenderSpec(rows=8, kind="fibonomial"),
    "fibonomial_mod2_9": RenderSpec(rows=9, kind="fibonomial", modulus=2),
    "fibonomial_mod5_10": RenderSpec(rows=10, kind="fibonomial", modulus=5),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_ascii_goldens_byte_exact(name):
    expected = (GOLDENS / f"{name}.txt").read_bytes()
    assert render(GOLDEN_SPECS[name]).encode("ascii") == expected


def test_golden_rows_carry_the_published_entries():
    # Bottom rows as printed in the reference triangles.
    assert render(GOLDEN_SPECS["fibonomial_8"]).splitlines()[-1].split() == [
        "1", "13", "104", "260", "260", "104", "13", "1"]
    assert render(GOLDEN_SPECS["fibonomial_mod5_10"]).splitlines()[5].split() == [
        "1", "0", "0", "0", "0", "1"]
    assert render(GOLDEN_SPECS["pascal_8"]).splitlines()[-1].split() == [
        "1", "7", "21", "35", "35", "21", "7", "1"]
    assert render(GOLDEN_SPECS["fibonomial_mod2_9"]).splitlines()[-1].split() == [
        "1", "1", "1", "0", "0", "0", "1", "1", "1"]


def test_triangle_rows_match_row_mod():
    rows = triangle_rows(RenderSpec(rows=12, kind="fibonomial", modulus=7))
    for row in rows:
        assert row.entries == fibonomial_row_mod(row.n, 7).entries


def test_pgm_layout():
    doc = render(RenderSpec(rows=4, kind="fibonomial", modulus=2, format="pgm"))
    lines = doc.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "7 4"
    assert lines[2] == "255"
    grid = [[int(v) for v in line.split()] for line in lines[3:]]
    assert len(grid) == 4 and all(len(r) == 7 for r in grid)
    # apex centered; residue 1 -> 255, residue 0 -> 0, background 255
    assert grid[0][3] == 255
    # row 3 is 1 0 0 1 at even columns, background 255 between
    assert grid[3] == [255, 255, 0, 255, 0, 255, 255]
    row3 = fibonomial_row_mod(3, 2).entries
    assert row3 == (1, 0, 0, 1)
    assert [grid[3][0 + 2 * k] for k in range(4)] == [255 * r for r in row3]


def test_pgm_gray_formula():
    doc = render(RenderSpec(rows=10, kind="fibonomial", modulus=5, format="pgm"))
    lines = doc.splitlines()
    grid = [[int(v) for v in line.split()] for line in lines[3:]]
    bottom = fibonomial_row_mod(9, 5).entries
    for k, r in enumerate(bottom):
        assert grid[9][0 + 2 * k] == 255 * r // 4


def test_svg_structure():
    doc = render(RenderSpec(rows=6, kind="fibonomial", modulus=2, format="svg"))
    assert doc.startswith('<?xml version="1.0"')
    assert '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"' in doc
    assert doc.count("<rect") == 6 * 7 // 2
    assert '#440154' in doc  # zero residue gets the darkest fill
    assert doc.rstrip().endswith("</svg>")


def test_json_round_trip_exact():
    doc = render_json(RenderSpec(rows=9, kind="fibonomial"))
    obj = json.loads(doc)
    assert obj["kind"] == "fibonomial"
    assert obj["modulus"] is None
    assert obj["rows"] == 9
    for n, row in enumerate(obj["triangle"]):
        assert row == [fibonomial(n, k) for k in range(n + 1)]


def test_json_round_trip_mod():
    doc = render_json(RenderSpec(rows=10, kind="fibonomial", modulus=5))
    obj = json.loads(doc)
    assert obj["triangle"][9] == [1, 4, 4, 1, 1, 1, 1, 4, 4, 1]


@pytest.mark.parametrize("kind", ["fibonomial", "binomial"])
@pytest.mark.parametrize("modulus", [None, 2, 5, 64])
def test_json_is_json_dumps_of_int_rows(kind, modulus):
    ft = fibotorial_seq(129)
    for rows in (1, 2, 3, 17, 130):
        want = [[naive_fibonomial(n, k, ft) if kind == "fibonomial" else math.comb(n, k)
                 for k in range(n + 1)] for n in range(rows)]
        if modulus is not None:
            want = [[e % modulus for e in row] for row in want]
        doc = json.dumps({"kind": kind, "rows": rows, "modulus": modulus,
                          "triangle": want}) + "\n"
        assert render_json(RenderSpec(rows, kind, modulus, "json")) == doc


def test_render_domain_errors():
    with pytest.raises(ValueError):
        render(RenderSpec(rows=0))
    with pytest.raises(ValueError):
        render(RenderSpec(rows=3, kind="triangular"))
    with pytest.raises(ValueError):
        render(RenderSpec(rows=3, format="bmp"))
    with pytest.raises(ValueError):
        render(RenderSpec(rows=3, modulus=1))
    with pytest.raises(ValueError):
        render(RenderSpec(rows=3, format="pgm"))  # rasters need a modulus
    with pytest.raises(ValueError):
        render(RenderSpec(rows=3, format="svg"))
