"""Exact-arithmetic asymptotic invariants of graded semigroups, monomial
ideal families, and monomial linear series.

The names below, and the six modules that define them, are re-exported
lazily (PEP 562): ``import gradedlimits`` loads no submodule, and the first
access to a name imports the one module that defines it.  A CLI job so
loads only the modules its subcommand runs.

``_integer`` is the integer rule every module applies to indices, horizons,
counts and exponents, with their lower bounds.  It lives here so that a
module can apply it without loading another: a semigroup job loads no
``monomial``.
"""

import importlib
import numbers

_EXPORTS = {
    "lattice": (
        "IntegerLattice",
        "RationalPolytope",
        "convex_hull",
        "hermite_basis",
        "lattice_volume",
        "sublattice_index",
    ),
    "monomial": (
        "MonomialIdeal",
        "NilPairIdeal",
        "colength",
        "multiplicity",
        "unit_ideal",
    ),
    "semigroup": (
        "GradedSemigroup",
        "OkounkovBody",
        "SemigroupInvariants",
        "invariants",
        "truncate",
    ),
    "families": (
        "BlockSchedule",
        "GradedFamily",
        "artin_tau_family",
        "check_graded",
        "counting_identity",
        "nilpair_sigma_family",
        "perturbed_power_family",
        "power_family",
        "saturation_family",
        "symbolic_family",
        "valuation_family",
    ),
    "series": (
        "Block",
        "MonomialLinearSeries",
        "WeightedAmbient",
        "count_weighted_monomials",
        "index_estimate",
        "kodaira_iitaka",
    ),
    "experiments": (
        "ConvergenceReport",
        "ScaledSequence",
        "convergence_report",
        "length_sequence",
        "semigroup_limit_report",
        "volume_equals_multiplicity",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def _integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int by the rule of ``hermite_basis``: an integral
    Fraction or float counts as one.  Anything else, or an int below
    ``low``, raises one ValueError that names ``name``."""
    if not isinstance(value, numbers.Real) or value % 1:
        raise ValueError(f"{name} is not an integer: {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
