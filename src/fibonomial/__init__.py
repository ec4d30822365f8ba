"""Fibonomial coefficients: exact and modular triangles, entry-point digit
expansions, p-adic valuations in closed form, and divisibility sweeps."""

from .conjecture import (
    ConjectureVerdict,
    SweepRecord,
    digit_product_divisible,
    find_counterexample,
    lucas_binomial_residue,
    verify_conjecture,
)
from .core import (
    TriangleRow,
    binomial,
    fib,
    fib_mod,
    fibonomial,
    fibonomial_mod,
    fibonomial_row_mod,
    fibotorial,
)
from .radix import (
    CarryReport,
    add_with_carries,
    expand_base_fp,
    expand_base_p,
)
from .render import RenderSpec, render
from .valuation import (
    PrimeProfile,
    Relation,
    Valuation,
    carry_valuation,
    entry_point,
    fibotorial_valuations,
    is_prime,
    nu_p_fibonomial_oracle,
)

__all__ = [
    "CarryReport",
    "ConjectureVerdict",
    "PrimeProfile",
    "Relation",
    "RenderSpec",
    "SweepRecord",
    "TriangleRow",
    "Valuation",
    "add_with_carries",
    "binomial",
    "carry_valuation",
    "digit_product_divisible",
    "entry_point",
    "expand_base_fp",
    "expand_base_p",
    "fib",
    "fib_mod",
    "fibonomial",
    "fibonomial_mod",
    "fibonomial_row_mod",
    "fibotorial",
    "fibotorial_valuations",
    "find_counterexample",
    "is_prime",
    "lucas_binomial_residue",
    "nu_p_fibonomial_oracle",
    "render",
    "verify_conjecture",
]
