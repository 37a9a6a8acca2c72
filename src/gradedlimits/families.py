"""Graded families of ideals: n -> I_n with I_a * I_b inside I_{a+b}.

Covers power, valuation, saturation and symbolic families over a polynomial
ring, the block-schedule driven nilpotent-pair families over the square-zero
extension, and the zero-dimensional Artin family.  The ring model lives in
the values: a MonomialIdeal or a NilPairIdeal supplies its own length,
unit test, product and containment witness.  Includes the graded-axiom
checker, which asks each target level whether it holds the products of all
the level pairs of its total (``holds_products``, decided without building
a product for d = 1 ideals, d = 2 staircases and nilpotent pairs, so for
every shipped family), and only when that is not settled builds each
pair's product and asks it for its first generator outside the target
(``first_escape``), and the counting identity len(R/I_n) = #box - #S_n,
where S_n is the set of exponents of I_n in a simplex box.  Levels, horizons and parameters are read by the package's
integer rule, so a bad one raises one ValueError.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import BlockSchedule, _integer
from .monomial import (
    MonomialIdeal,
    NilPairIdeal,
    _degree_tuples,
    check_stack_depth,
    colon_ideal_infinity,
    madic_order,
    minimal_generators,
    unit_ideal,
)


# ---------------------------------------------------------------------------
# the family abstraction
# ---------------------------------------------------------------------------

class GradedFamily(NamedTuple):
    """A graded family of ideals, given by its levels n -> I_n.

    provider(n) returns I_n as a MonomialIdeal over polynomial(d) or a
    NilPairIdeal over the square-zero extension of polynomial(d); the value
    carries the ring model.  ``dim`` is the Krull dimension of the ring, the
    power of n that normalizes lengths.  Levels are not memoized: a consumer
    that reads a level twice keeps it itself.  The power builders keep only
    the last power read, so an ascending read costs one product per level.
    Bounds such as the box of the counting identity are read off the ideals
    where they are needed.
    """

    name: str
    dim: int
    provider: Callable[[int], MonomialIdeal | NilPairIdeal]

    def ideal(self, n: int):
        return self.provider(_integer(n, "index", 0))

    def length(self, n: int) -> int:
        """Length of R/I_n in the family's ring model."""
        return self.ideal(n).length()

    def is_polynomial(self) -> bool:
        """True when the values are MonomialIdeals in ``dim`` variables, the
        reduced polynomial model."""
        unit = self.ideal(0)
        return isinstance(unit, MonomialIdeal) and unit.num_vars == self.dim


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def power_family(ideal: MonomialIdeal) -> GradedFamily:
    """I_n = I^n, streamed: only the last power read is kept.  A read at or
    above it multiplies it forward by I; a read below it starts again from
    I^0, at most n products."""
    last = (0, unit_ideal(ideal.num_vars))

    def provider(n: int) -> MonomialIdeal:
        nonlocal last
        k, power = last if n >= last[0] else (0, unit_ideal(ideal.num_vars))
        for _ in range(k, n):
            power = power * ideal
        last = (n, power)
        return power

    return GradedFamily(name="power", dim=ideal.num_vars, provider=provider)


def saturation_family(ideal: MonomialIdeal) -> GradedFamily:
    """I_n = saturation of I^n with respect to the maximal ideal."""
    power = power_family(ideal).provider

    def provider(n: int) -> MonomialIdeal:
        return power(n).saturate()

    return GradedFamily(name="saturation", dim=ideal.num_vars, provider=provider)


def symbolic_family(ideal: MonomialIdeal, other: MonomialIdeal) -> GradedFamily:
    """I_n = I^n : J^infty, the symbolic powers along J."""
    ideal._check(other)
    power = power_family(ideal).provider

    def provider(n: int) -> MonomialIdeal:
        return colon_ideal_infinity(power(n), other)

    return GradedFamily(name="symbolic", dim=ideal.num_vars, provider=provider)


def _weight_vector(weights: Sequence) -> tuple[Fraction, ...]:
    out = []
    for w in weights:
        if isinstance(w, float):
            raise ValueError("irrational or float weights are not supported; "
                             "use rational approximation explicitly")
        out.append(Fraction(w))
    if not out:
        raise ValueError("valuation weights: need at least one weight")
    if any(w < 1 for w in out):
        raise ValueError("valuation weights must be at least 1")
    return tuple(out)


def valuation_gens(weights: tuple[Fraction, ...], n: int) -> tuple:
    """Minimal exponent vectors a with <weights, a> >= n, sorted: the
    canonical generators of the ideal they generate.

    The weights are scaled once to integers by the lcm of their
    denominators.  Enumerates the prefix box; candidates with equal last
    entry are minimalized among themselves (distinct last entries never
    divide).  In two variables the last entry falls as the first rises, so
    the staircase keeps each prefix at which it drops.
    """
    d = len(weights)
    if n <= 0:
        return ((0,) * d,)
    scale = math.lcm(*(w.denominator for w in weights))
    ws = [w.numerator * (scale // w.denominator) for w in weights]
    target = n * scale
    *head, w_last = ws
    if d == 2:
        gens = []
        for a in range(-(-target // head[0]) + 1):
            rem = target - head[0] * a
            last = -(-rem // w_last) if rem > 0 else 0
            if not gens or last < gens[-1][1]:
                gens.append((a, last))
        return tuple(gens)
    groups: dict[int, list[tuple]] = {}
    for prefix in itertools.product(*(range(-(-target // w) + 1) for w in head)):
        rem = target - sum(w * a for w, a in zip(head, prefix))
        last = -(-rem // w_last) if rem > 0 else 0
        groups.setdefault(last, []).append(prefix)
    gens = []
    for last, prefixes in groups.items():
        for p in minimal_generators(prefixes):
            gens.append(p + (last,))
    return tuple(sorted(gens))


def valuation_family(weights: Sequence) -> GradedFamily:
    """I_n cut out by a monomial valuation: exponents a with <weights, a> >= n."""
    lams = _weight_vector(weights)
    d = len(lams)

    def provider(n: int) -> MonomialIdeal:
        return MonomialIdeal._of(d, valuation_gens(lams, n))

    return GradedFamily(name="valuation", dim=d, provider=provider)


def _nilpair_family(name: str, dim: int, offset: Callable[[int], int]) -> GradedFamily:
    """Pairs (m^n, y*m^{n - offset(n)}) in the square-zero extension of
    polynomial(dim).  Nothing here recurses, but a dim too deep for the slice
    index is still refused before any level is built, as the CLI pins."""
    dim = _integer(dim, "dim", 1)
    check_stack_depth(dim)

    def provider(n: int) -> NilPairIdeal:
        return NilPairIdeal(dim, n, max(0, n - offset(n)) if n else 0)

    return GradedFamily(name=name, dim=dim, provider=provider)


def nilpair_sigma_family(dim: int, schedule: BlockSchedule | None = None) -> GradedFamily:
    """Pairs (m^n, y*m^{n - sigma(n)}) in the square-zero extension.

    The schedule makes the scaled lengths track 2 - sigma(n)/n, which has no
    limit along any arithmetic progression.
    """
    schedule = schedule or BlockSchedule.default()
    return _nilpair_family("nilpair_sigma", dim, schedule.sigma)


def perturbed_power_family(dim: int, schedule: BlockSchedule | None = None) -> GradedFamily:
    """m^n perturbed by a square-zero element: m^n + x*m^{n - sigma(n)}.

    The general construction takes x with prime annihilator; this is its
    square-zero monomial instance and produces the same pairs as
    nilpair_sigma_family.
    """
    schedule = schedule or BlockSchedule.default()
    return _nilpair_family("perturbed_power", dim, schedule.sigma)


def artin_tau_family(t: int, schedule: BlockSchedule | None = None) -> GradedFamily:
    """I_n = m^{t + tau(n)} in the Artin ring k[y]/(y^{t+1}).

    Lengths alternate between t and t+1 on schedule blocks, so no limit
    exists along any arithmetic progression.  Each I_n (n >= 1) is kept as
    the ideal (y^{t + tau(n)}) of k[y]: it contains y^{t+1}, so its length
    and the containments I_a * I_b inside I_{a+b} are the same over k[y] as
    over the quotient.  The ring has dimension 0.
    """
    t = _integer(t, "socle degree t", 1)
    schedule = schedule or BlockSchedule.default()

    def provider(n: int) -> MonomialIdeal:
        if n == 0:
            return unit_ideal(1)
        return MonomialIdeal._canonical(1, ((t + schedule.tau(n),),))

    return GradedFamily(name="artin_tau", dim=0, provider=provider)


def corrupted_sigma_family(dim: int = 1) -> GradedFamily:
    """Deliberately broken fixture: the schedule offset decreases with n,
    which violates the graded containment (used to exercise the checker)."""
    return _nilpair_family("corrupted_sigma", dim, lambda n: max(1, 6 - n))


# ---------------------------------------------------------------------------
# the graded axiom checker
# ---------------------------------------------------------------------------

class GradedCheckReport(NamedTuple):
    checked_pairs: int
    violations: list[tuple[int, int, str]]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_graded(family: GradedFamily, horizon: int) -> GradedCheckReport:
    """Verify I_a * I_b inside I_{a+b} for all a + b <= horizon.

    Containment of monomial ideals reduces to their generators, so the check
    is exhaustive.  The pairs (a, total - a) of one total are first decided
    together by ``I_total.holds_products``, which builds no product.  A
    total that test does not settle is decided pair by pair: each product is
    built and names its first generator outside the target as the witness.
    Each level is built once and kept for the pairs that read it.  A horizon
    that is not a non-negative integer raises ValueError.
    """
    horizon = _integer(horizon, "horizon", 0)
    levels = [family.ideal(n) for n in range(horizon + 1)]
    violations: list[tuple[int, int, str]] = []
    checked = 0
    if not levels[0].is_unit():
        violations.append((0, 0, "I_0 is not the unit ideal"))
    for total in range(2, horizon + 1):
        target = levels[total]
        pairs = [(levels[a], levels[total - a]) for a in range(1, total // 2 + 1)]
        checked += len(pairs)
        if target.holds_products(pairs):
            continue
        for a, (first, second) in enumerate(pairs, 1):
            witness = (first * second).first_escape(target)
            if witness is not None:
                violations.append((a, total - a, f"{witness} escapes I_{total}"))
    return GradedCheckReport(checked, violations)


# ---------------------------------------------------------------------------
# counting identity
# ---------------------------------------------------------------------------

class CountingIdentityReport(NamedTuple):
    beta: int
    rows: list[tuple[int, int, int, int, bool]]  # n, colength, box, members, ok

    @property
    def ok(self) -> bool:
        return all(r[4] for r in self.rows)


def counting_identity(family: GradedFamily, horizon: int,
                      beta: int | None = None) -> tuple[CountingIdentityReport, dict]:
    """Check len(R/I_n) = #box - #S_n for n = 1 .. horizon.

    S_n is the set of exponents of I_n in the box |a| <= beta*n, so the
    length is a difference of lattice counts.  The default beta is the
    paper's c = madic_order(I_1): m^c inside I_1 gives m^{cn} inside
    I_1^n inside I_n, so every standard monomial of I_n has degree below
    c*n.  Returns the report and the level sets {n: S_n}.  Requires every
    level up to the horizon to be m-primary.
    """
    if not family.is_polynomial():
        raise ValueError("the counting identity is defined over the polynomial model")
    if beta is None:
        first = family.ideal(1)
        if not first.is_m_primary():
            raise ValueError("level 1 is not primary to the maximal ideal")
        beta = madic_order(first)
    beta = _integer(beta, "beta", 0)
    d = family.dim
    levels: dict[int, frozenset] = {}
    rows = []
    for n in range(1, _integer(horizon, "horizon", 0) + 1):
        ideal = family.ideal(n)
        if not ideal.is_m_primary():
            raise ValueError(f"level {n} is not primary to the maximal ideal")
        members = frozenset(pt for k in range(beta * n + 1)
                            for pt in _degree_tuples(d, k) if ideal.contains(pt))
        levels[n] = members
        box_total = math.comb(beta * n + d, d)
        ell = ideal.length()
        rows.append((n, ell, box_total, len(members),
                     ell == box_total - len(members)))
    return CountingIdentityReport(beta, rows), levels
