"""Exact-arithmetic asymptotic invariants of graded semigroups, monomial
ideal families, and monomial linear series."""

from .lattice import (
    IntegerLattice,
    RationalPolytope,
    convex_hull,
    hermite_basis,
    lattice_volume,
    sublattice_index,
)
from .monomial import (
    MonomialIdeal,
    NilPairIdeal,
    colength,
    max_ideal_power,
    multiplicity,
    unit_ideal,
    zero_ideal,
)
from .semigroup import (
    GradedSemigroup,
    OkounkovBody,
    SemigroupInvariants,
    invariants,
    truncate,
)
from .families import (
    BlockSchedule,
    GradedFamily,
    artin_tau_family,
    check_graded,
    counting_identity,
    nilpair_sigma_family,
    perturbed_power_family,
    power_family,
    saturation_family,
    symbolic_family,
    valuation_family,
)
from .series import (
    Block,
    MonomialLinearSeries,
    WeightedAmbient,
    count_weighted_monomials,
    index_estimate,
    kodaira_iitaka,
)
from .experiments import (
    ConvergenceReport,
    ScaledSequence,
    convergence_report,
    epsilon_multiplicity_report,
    length_sequence,
    semigroup_limit_report,
    volume_equals_multiplicity,
)

__version__ = "0.1.0"
