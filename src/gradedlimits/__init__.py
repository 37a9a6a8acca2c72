"""Exact-arithmetic asymptotic invariants of graded semigroups, monomial
ideal families, and monomial linear series.

The names below, and the six modules that define them, are re-exported
lazily (PEP 562): ``import gradedlimits`` loads no submodule, and the first
access to a name imports the one module that defines it.  A CLI job so
loads only the modules its subcommand runs.  ``BlockSchedule`` is defined
here.

``_integer`` is the integer rule every module applies to indices, horizons,
counts and exponents, with their lower bounds.  ``_Value`` is the base of
the validated values.  ``BlockSchedule`` drives both the families and the
series.  They live here so that a module can use them without loading
another: a semigroup job loads no ``monomial``, and a series job no
``families``.
"""

import importlib
import numbers
from bisect import bisect_right

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

__all__ = ["BlockSchedule", *_MODULE_OF]

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


class _Value:
    """Base of the validated values.  A subclass names its fields in
    ``_fields`` and checks them in ``__init__``; equality, hashing and the
    repr read the field tuple, and no attribute is assigned once built."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class BlockSchedule(_Value):
    """Breakpoints 2 = i_1 < i_2 < ... with i_{j+1} even and > 2^j * i_j.

    sigma(n) is i_j / 2 on the block [i_j, i_{j+1}) (and 1 at n = 1); tau(n)
    alternates 0/1 between blocks.  Block lengths at least double each time,
    which is what makes sigma(n)/n visit both ~1/2 and ~0 in every residue
    class; all non-convergence fixtures are driven by this.
    """

    _fields = ("breakpoints",)

    def __init__(self, breakpoints: tuple[int, ...]):
        bp = breakpoints
        if not bp or bp[0] != 2:
            raise ValueError("first breakpoint must be 2")
        for j in range(1, len(bp)):
            if bp[j] % 2 or bp[j] <= (2 ** j) * bp[j - 1]:
                raise ValueError("breakpoint growth condition violated")
        super().__init__(bp)

    @classmethod
    def default(cls, horizon: int = 210) -> "BlockSchedule":
        horizon = _integer(horizon, "horizon", 0)
        bp = [2]
        while (2 ** len(bp)) * bp[-1] < horizon:
            bp.append((2 ** len(bp)) * bp[-1] + 2)
        return cls(tuple(bp))

    @property
    def limit(self) -> int:
        """Largest n on which sigma/tau are determined by the breakpoints."""
        j = len(self.breakpoints)
        return (2 ** j) * self.breakpoints[-1]

    def _block(self, n: int) -> int:
        if n < 1 or n > self.limit:
            raise ValueError(f"schedule only covers 1..{self.limit}")
        return bisect_right(self.breakpoints, n)

    def sigma(self, n: int) -> int:
        if n == 1:
            return 1
        # the first breakpoint is 2, so every n >= 2 lies in a block j >= 1
        return self.breakpoints[self._block(n) - 1] // 2

    def sigma_capped(self, n: int) -> int:
        # capped at n - 1 so exponent bookkeeping stays nonnegative at n = 1
        return min(self.sigma(n), n - 1)

    def tau(self, n: int) -> int:
        return self._block(n) % 2


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
