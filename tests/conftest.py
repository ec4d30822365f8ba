"""Keeps tests importable as top-level modules (oracles, helpers), and
holds the fixtures that more than one test module uses."""

import pytest

import fibonomial.conjecture as conjecture
from fibonomial.valuation import entry_point


@pytest.fixture
def corrupt_oracle(monkeypatch):
    """Hand every sweep the exact prefix table with its second block of z
    rows, [z, 2z), one too high: the table still steps only at multiples
    of z, so no block-step check catches it. At p = 7 the oracle then calls
    (16, 1) not divisible, where 1 + 15 carries in the units column."""
    oracle = conjecture.fibotorial_valuations

    def raised(limit, p):
        z = entry_point(p).p_star
        return tuple(v + (z <= i < 2 * z) for i, v in enumerate(oracle(limit, p)))

    monkeypatch.setattr(conjecture, "fibotorial_valuations", raised)
