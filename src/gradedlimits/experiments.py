"""Experiment layer: exact scaled sequences, dyadic-window convergence
verdicts over residue classes, and the volume/multiplicity and saturation
experiments.

Every report is a pure function of its inputs, computed in one thread in
input order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import _Value, _integer

if TYPE_CHECKING:
    from .families import GradedFamily
    from .monomial import MonomialIdeal
    from .semigroup import GradedSemigroup, SemigroupInvariants
    from .series import MonomialLinearSeries

DEFAULT_TOL = Fraction(1, 50)


# ---------------------------------------------------------------------------
# scaled sequences
# ---------------------------------------------------------------------------

class ScaledSequence(_Value):
    """Exact sequence n -> raw/n^exponent: ``entries`` are the triples
    (n, raw, scaled).

    ``normalization`` is the human-readable formula used in report headers.
    """

    _fields = ("label", "exponent", "normalization", "entries")

    def __init__(self, label: str, exponent: int, normalization: str,
                 entries: tuple[tuple[int, Fraction, Fraction], ...]):
        if not entries:
            raise ValueError(f"{label} has no entries: give at least one index")
        super().__init__(label, exponent, normalization, entries)

    @property
    def n_max(self) -> int:
        return max(m for m, _, _ in self.entries)


def _scaled_sequence(label: str, normalization: str, exponent: int, n_max: int,
                     raw: Callable[[int], int | Fraction]) -> ScaledSequence:
    """Entries (n, raw(n), raw(n)/n^exponent) for n = 1 .. n_max, in order."""
    entries = []
    for n in range(1, _integer(n_max, "horizon", 1) + 1):
        value = Fraction(raw(n))
        entries.append((n, value, value / Fraction(n) ** exponent))
    return ScaledSequence(label=label, exponent=exponent,
                          normalization=normalization, entries=tuple(entries))


def length_sequence(family: GradedFamily, n_max: int) -> ScaledSequence:
    """Exact lengths of R/I_n scaled by n^d, d = dim R (unscaled in the
    zero-dimensional Artin model), for n = 1 .. n_max."""
    exponent = family.dim

    def raw(n: int) -> int:
        try:
            return family.length(n)
        except ValueError as exc:
            raise ValueError(f"level {n}: {exc}") from exc

    return _scaled_sequence(f"length[{family.name}]", f"length/n^{exponent}",
                            exponent, n_max, raw)


def dim_sequence(series: MonomialLinearSeries, n_max: int,
                 exponent: int) -> ScaledSequence:
    """Exact series dimensions scaled by n^exponent."""
    return _scaled_sequence(f"dim[{series.name}]", f"dim/n^{exponent}",
                            exponent, n_max, series.dim)


def saturation_gap_sequence(ideal: MonomialIdeal, n_max: int) -> ScaledSequence:
    """len((I^n)^sat / I^n) * d! / n^d, the local-cohomology length sequence
    whose limit is the epsilon multiplicity."""
    from .families import power_family
    from .monomial import saturation_quotient_colength

    d = ideal.num_vars
    d_fact = math.factorial(d)
    power = power_family(ideal).provider
    return _scaled_sequence(
        "saturation_gap", f"len*{d_fact}/n^{d}", d, n_max,
        lambda n: saturation_quotient_colength(power(n)) * d_fact)


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------

CONVERGES = "converges"
OSCILLATES = "oscillates"
INCONCLUSIVE = "inconclusive"


class ClassVerdict(NamedTuple):
    modulus: int
    residue: int
    verdict: str
    liminf_est: Fraction | None
    limsup_est: Fraction | None
    limit_estimate: Fraction | None
    points: int


class ConvergenceReport(NamedTuple):
    """Per-residue-class verdicts from the last two dyadic windows.

    A class converges when both windows have spread below tol and their
    means agree within tol.  It oscillates when the last window alone has
    spread above 2*tol, or when the window means jump by more than 2*tol
    (block-constant counterexamples oscillate only across windows).  A
    slowly decaying but convergent sequence fails both tests and stays
    inconclusive until the horizon resolves it.  liminf/limsup estimates
    are the min/max across the union of both windows.  tol is absolute on
    the scaled values (the normalization keeps them of order one).
    """

    tol: Fraction
    window_lo: int
    window_mid: int
    window_hi: int
    classes: tuple[ClassVerdict, ...]

    @property
    def overall(self) -> ClassVerdict:
        return next(c for c in self.classes if c.modulus == 1)

    @property
    def liminf_est(self) -> Fraction | None:
        return self.overall.liminf_est

    @property
    def limsup_est(self) -> Fraction | None:
        return self.overall.limsup_est

    def all_verdicts(self, expected: str) -> bool:
        return all(c.verdict == expected for c in self.classes)


def _mean(values: Sequence[Fraction]) -> Fraction:
    return sum(values, Fraction(0)) / len(values)


def convergence_report(seq: ScaledSequence, max_modulus: int = 4,
                       tol: Fraction = DEFAULT_TOL) -> ConvergenceReport:
    max_modulus = _integer(max_modulus, "max_modulus", 1)
    n_hi = seq.n_max
    n_mid = n_hi // 2
    n_lo = -(-n_hi // 4)
    # (n, value) in order of n, and in each window
    by_n = sorted({n: v for n, _, v in seq.entries}.items())
    lower = [(n, v) for n, v in by_n if n_lo <= n < n_mid]
    upper = [(n, v) for n, v in by_n if n_mid <= n <= n_hi]
    classes = []
    for r in range(1, max_modulus + 1):
        for a in range(r):
            w1 = [v for n, v in lower if n % r == a]
            w2 = [v for n, v in upper if n % r == a]
            if len(w1) < 2 or len(w2) < 2:
                union = w1 + w2
                classes.append(ClassVerdict(r, a, INCONCLUSIVE,
                                            min(union, default=None),
                                            max(union, default=None),
                                            None, len(union)))
                continue
            lo1, hi1, lo2, hi2 = min(w1), max(w1), min(w2), max(w2)
            mean2 = _mean(w2)
            jump = abs(_mean(w1) - mean2)
            if hi1 - lo1 < tol and hi2 - lo2 < tol and jump < tol:
                verdict, est = CONVERGES, mean2
            elif hi2 - lo2 > 2 * tol or jump > 2 * tol:
                verdict, est = OSCILLATES, None
            else:
                verdict, est = INCONCLUSIVE, None
            classes.append(ClassVerdict(r, a, verdict, min(lo1, lo2), max(hi1, hi2),
                                        est, len(w1) + len(w2)))
    return ConvergenceReport(tol, n_lo, n_mid, n_hi, tuple(classes))


# ---------------------------------------------------------------------------
# semigroup limit experiment
# ---------------------------------------------------------------------------

class TruncationRow(NamedTuple):
    p: int
    q_truncated: int
    rescaled_limit: Fraction
    dimension_drop: bool
    gap: Fraction


class SemigroupLimitReport(NamedTuple):
    invariants: SemigroupInvariants
    entries: tuple[tuple[int, int, Fraction], ...]  # (k, count, scaled)
    relative_gap: Fraction
    within_tol: bool
    truncations: tuple[TruncationRow, ...]


def semigroup_limit_report(s: GradedSemigroup, horizon: int,
                           truncation_levels: Sequence[int] = (1, 2, 4, 8),
                           rtol: Fraction = DEFAULT_TOL) -> SemigroupLimitReport:
    """Predicted vs empirical scaled level counts, plus a truncation sweep.

    The empirical tail is the last scaled count at the horizon; truncations
    rescale the predicted limit of the level-p sub-semigroup by p^q and flag
    a dimension drop.  A horizon that is not an integer (by the rule of
    ``_integer``) or is below 1 raises ValueError.
    """
    from .semigroup import invariants, truncate

    horizon = _integer(horizon, "horizon", 1)
    inv = invariants(s)
    if horizon < inv.m:
        raise ValueError(f"horizon {horizon} is below the degree index m = {inv.m}")
    entries = tuple((n // inv.m, count, Fraction(count, (n // inv.m) ** inv.q))
                    for n, count in s.level_sizes(horizon) if n % inv.m == 0)
    predicted = inv.predicted_limit
    tail = entries[-1][2]
    gap = abs(tail - predicted) / predicted if predicted else abs(tail)
    rows = []
    for p in truncation_levels:
        sub = truncate(s, p)
        sub_inv = invariants(sub)
        rescaled = sub_inv.predicted_limit / Fraction(p) ** inv.q
        rows.append(TruncationRow(p=p, q_truncated=sub_inv.q,
                                  rescaled_limit=rescaled,
                                  dimension_drop=sub_inv.q < inv.q,
                                  gap=abs(rescaled - predicted)))
    return SemigroupLimitReport(inv, entries, gap, gap <= rtol, tuple(rows))


# ---------------------------------------------------------------------------
# volume = multiplicity experiment
# ---------------------------------------------------------------------------

class VolMultReport(NamedTuple):
    """Scaled multiplicities e(I_p)/p^d against the scaled length tail.

    The right side is exact per p; the left side is d! * len(R/I_n)/n^d at
    the horizon.  The two converge to a common value as p and n grow.
    """

    lhs_at: int
    lhs: Fraction
    rows: tuple[tuple[int, Fraction, Fraction], ...]  # (p, rhs, |rhs - lhs|)


def volume_equals_multiplicity(family: GradedFamily, p_list: Sequence[int],
                               horizon: int) -> VolMultReport:
    """Compare e(I_p)/p^d for each p in `p_list` with the scaled length tail.

    Each row holds the exact e(I_p)/p^d for its own p.  `lhs` is
    d! * len(R/I_n)/n^d at n = `horizon`.  The theorem equates only the
    limits of the two sides, so a row for small p may differ from `lhs`.
    Every p and the horizon must be at least 1.
    """
    from .monomial import multiplicity

    if not family.is_polynomial():
        raise ValueError("multiplicity experiment needs the polynomial model")
    p_list = [_integer(p, "power p", 1) for p in p_list]
    horizon = _integer(horizon, "horizon", 1)
    d = family.dim
    rhs_vals = [multiplicity(family.ideal(p)) / Fraction(p) ** d for p in p_list]
    lhs = Fraction(math.factorial(d)) * Fraction(family.length(horizon)) / horizon ** d
    rows = tuple((p, v, abs(v - lhs)) for p, v in zip(p_list, rhs_vals))
    return VolMultReport(lhs_at=horizon, lhs=lhs, rows=rows)
