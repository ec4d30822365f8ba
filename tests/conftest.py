"""Keeps tests importable as top-level modules (oracles, helpers), and
holds the fixtures that more than one test module uses."""

import pytest

import fibonomial.conjecture as conjecture


class _RowTotalOffByOne(tuple):
    """An oracle prefix table whose total for row 8, read by index, is one
    too high; the slices a sweep reads each row's terms from are right."""

    def __getitem__(self, i):
        value = tuple.__getitem__(self, i)
        return value + 1 if i == 8 else value


@pytest.fixture
def corrupt_oracle(monkeypatch):
    """Hand every sweep the prefix table above. At p = 7 the oracle then
    calls (8, 0) divisible, which the carry test does not."""
    oracle = conjecture.fibotorial_valuations
    monkeypatch.setattr(conjecture, "fibotorial_valuations",
                        lambda limit, p: _RowTotalOffByOne(oracle(limit, p)))
