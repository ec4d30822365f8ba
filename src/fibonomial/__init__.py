"""Fibonomial coefficients: exact and modular triangles, entry-point digit
expansions and the Lucas residue of a binomial, p-adic valuations in closed
form, and divisibility sweeps.

Each public name is imported from its module on first use, so a program
that needs one module loads only that module and the modules it imports.
"""

import sys
from importlib import import_module

_MODULES = {
    "conjecture": "ConjectureVerdict SweepRecord digit_product_divisible "
                  "find_counterexample verify_conjecture",
    "core": "TriangleRow fib fib_mod fibonomial fibonomial_mod fibonomial_row_mod",
    "radix": "CarryReport add_with_carries expand_base_fp expand_base_p "
             "lucas_binomial_residue",
    "render": "RenderSpec render",
    "valuation": "PrimeProfile Relation Valuation carry_valuation entry_point "
                 "fibotorial_valuations is_prime nu_p_fibonomial_oracle",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    def __setattr__(self, name: str, value) -> None:
        # Importing the render module sets it on the package; the public
        # name render stays the function.
        if name != "render" or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
