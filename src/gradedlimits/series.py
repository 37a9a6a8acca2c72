"""Monomial-model graded linear series on weighted, possibly nonreduced
projective models: level dimensions, Kodaira-Iitaka dimension, index, and the
oscillating constructions driven by block schedules.

A series stores, per level n, a finite set of basis monomials; each monomial
is an exponent vector over the weighted variables plus a flag marking a
factor of the square-zero generator.  Nil-flagged monomials multiply to zero
with each other (and, in the annihilator model, with everything).

Providers describe a level as a few disjoint ``Block``s, each a shifted set
of all monomials of one weighted degree in the leading variables.  The degree
and sign of a level are checked once per block, never per monomial, and a
level's dimension and Kodaira-Iitaka lattice are read off its blocks.  When
every level holds one block, span or point, of each lane ``(nil, free)``
whose products do not all vanish, the closure of a whole total is decided
at once on the lanes' shift columns; any other total is searched monomial by
monomial for its witnesses.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product
from operator import add
from typing import Callable, Collection, Iterable, NamedTuple

from . import BlockSchedule, _Value, _integer

NEG_INF = float("-inf")


class Block(NamedTuple):
    """The monomials ``shift + (m, 0, ..., 0)`` with the given nil flag, m
    running over the exponent vectors of weighted degree ``degree`` in the
    first ``free`` ambient weights.  ``Block(exps, nil)`` is a single point.
    """

    shift: tuple
    nil: bool
    free: int = 0
    degree: int = 0


class WeightedAmbient(_Value):
    """Weighted variables z_0..z_r (deg z_0 = 1) with an optional square-zero
    generator of degree ``nil_degree``.

    ``nil_annihilates_base`` adds the relation that the square-zero generator
    also kills the designated base monomials (the annihilator model used by
    the pulse construction); products with a nil factor then always vanish.
    """

    _fields = ("weights", "nil_degree", "nil_annihilates_base")

    def __init__(self, weights: tuple[int, ...], nil_degree: int | None = None,
                 nil_annihilates_base: bool = False):
        weights = tuple(_integer(w, "weight", 1) for w in weights)
        if not weights or weights[0] != 1:
            raise ValueError("first weight must be 1")
        if nil_degree is not None:
            nil_degree = _integer(nil_degree, "nilpotent degree", 1)
        super().__init__(weights, nil_degree, nil_annihilates_base)

    def product_vanishes(self, nil_a: bool, nil_b: bool) -> bool:
        if nil_a and nil_b:
            return True
        return self.nil_annihilates_base and (nil_a or nil_b)


class MonomialLinearSeries:
    """Level-indexed monomial bases L_n; levels are built on each call.

    ``provider(n)`` returns the level's blocks, which must be disjoint: the
    level is their union, and ``dim`` sums their sizes without expanding them.
    The twist (at least 1) and the horizon (at least 0) go by the package's
    integer rule.
    """

    def __init__(self, name: str, ambient: WeightedAmbient, twist: int,
                 provider: Callable[[int], Iterable[Block]],
                 horizon: int, natural_exponent: int = 0):
        self.name = name
        self.ambient = ambient
        self.twist = _integer(twist, "twist", 1)
        self.horizon = _integer(horizon, "horizon", 0)
        self.natural_exponent = natural_exponent
        self._provider = provider

    def blocks(self, n: int) -> list[Block]:
        """The provider's blocks of level n, each checked for integrality, sign,
        degree and at least one monomial, and all checked to be disjoint.
        Level 0 is the unit point, L_0 = k, and asks the provider nothing."""
        n = _integer(n, "level", 0)
        if n > self.horizon:
            raise ValueError(f"level {n} beyond series horizon {self.horizon}")
        weights = self.ambient.weights
        if n == 0:
            return [Block((0,) * len(weights), False)]
        out = []
        for shift, nil, free, degree in self._provider(n):
            try:
                shift = tuple(_integer(e, "shift exponent", 0) for e in shift)
            except ValueError as exc:
                raise ValueError(f"level {n} block {shift}: {exc}") from None
            if len(shift) != len(weights) or not 0 <= free <= len(weights):
                raise ValueError(f"level {n} block {shift} does not fit the "
                                 f"{len(weights)} weighted variables")
            if degree < 0 or (degree and not free):
                raise ValueError(f"level {n} block {shift} holds no monomial")
            deg = sum(w * e for w, e in zip(weights, shift)) + degree
            if nil:
                if self.ambient.nil_degree is None:
                    raise ValueError(f"level {n} has a nil block but the ambient "
                                     "has no square-zero generator")
                deg += self.ambient.nil_degree
            if deg != self.twist * n:
                raise ValueError(f"level {n} monomial {shift} has degree {deg}, "
                                 f"expected {self.twist * n}")
            out.append(Block(shift, bool(nil), free, degree))
        _check_disjoint(n, out, weights)
        return out

    def level(self, n: int) -> frozenset:
        return _expand(self.ambient.weights, self.blocks(n))

    def dim(self, n: int) -> int:
        return sum(count_weighted_monomials(self.ambient.weights[:b.free], b.degree)
                   for b in self.blocks(n))


def _check_disjoint(n: int, blocks: list[Block], weights: tuple[int, ...]) -> None:
    """Raise ValueError naming level n and two of its blocks that overlap.

    Points overlap only when equal.  Blocks a and b, ``a.free <= b.free``,
    meet when their shifts agree past ``b.free``, a's reaches b's up to it,
    and the least monomial both allow fits a's degree: the rest goes to z_0,
    of weight 1, and the level's one degree puts that monomial in b too.
    """
    points, spans = set(), []
    for block in blocks:
        if block.free:
            spans.append(block)
        elif block in points:
            raise ValueError(f"level {n} blocks {block} and {block} overlap")
        else:
            points.add(block)
    for i, span in enumerate(spans):
        for other in [*spans[:i], *points]:
            a, b = sorted((other, span), key=lambda blk: blk.free)
            lo, hi = a.free, b.free
            if (a.nil == b.nil and a.shift[hi:] == b.shift[hi:]
                    and all(x >= y for x, y in zip(a.shift[lo:hi], b.shift[lo:hi]))
                    and sum(w * max(y - x, 0) for w, x, y
                            in zip(weights[:lo], a.shift, b.shift)) <= a.degree):
                raise ValueError(f"level {n} blocks {other} and {span} overlap")


class SeriesInvariants(NamedTuple):
    kappa: float | int
    index_estimate: int | None
    horizon_dependent: bool


def _horizon(requested: int | None, series: MonomialLinearSeries) -> int:
    """``requested`` (an integer of at least 1) capped at the series horizon,
    or the series horizon for None."""
    return min(series.horizon if requested is None else _integer(requested, "horizon", 1),
               series.horizon)


def kodaira_iitaka(series: MonomialLinearSeries, horizon: int | None = None):
    """Kodaira-Iitaka dimension: rank of the lattice of (exponents, level)
    points of the non-nil monomials, minus one; -inf when none occur.

    A monomial-spanned graded algebra has Krull dimension equal to that
    lattice rank, and nil monomials never witness algebraic independence
    (their squares vanish).  Returns (kappa, horizon_dependent): the flag is
    set when the rank still grew in the final quarter of the horizon.

    A block of degree D adds ``shift + D z_0`` and, for each free i >= 1 with
    w_i <= D, ``shift + (D - w_i) z_0 + z_i``: as w_0 = 1, these span the
    lattice of the block's monomials.
    """
    from .lattice import hermite_basis

    horizon = _horizon(horizon, series)
    basis: tuple = ()
    weights = series.ambient.weights
    width = len(weights) + 1
    growth_marks: list[int] = []
    for n in range(1, horizon + 1):
        rows = []
        for shift, nil, free, degree in series.blocks(n):
            if not nil:
                top = (shift[0] + degree,) + shift[1:] + (n,)
                rows += [top] + [(top[0] - w,) + top[1:i] + (top[i] + 1,) + top[i + 1:]
                                 for i, w in enumerate(weights[1:free], 1) if w <= degree]
        if not rows:
            continue
        # integer rank equals rational rank, so a Hermite basis tracks it
        reduced = hermite_basis([*basis, *rows], width).basis
        if len(reduced) > len(basis):
            growth_marks.append(n)
            basis = reduced
        if len(basis) == width:
            break
    rank = len(basis)
    kappa = rank - 1 if rank > 0 else NEG_INF
    dependent = bool(growth_marks) and growth_marks[-1] > (3 * horizon) // 4
    return kappa, dependent


def index_estimate(series: MonomialLinearSeries, n_max: int | None = None) -> int:
    """gcd of the levels with a nonzero space; monotone nonincreasing in the
    horizon, so an upper estimate of the true index."""
    n_max = _horizon(n_max, series)
    g = 0
    for n in range(1, n_max + 1):
        if series.dim(n):
            g = math.gcd(g, n)
            if g == 1:
                break
    if g == 0:
        raise ValueError("all levels are zero up to the horizon")
    return g


def series_invariants(series: MonomialLinearSeries) -> SeriesInvariants:
    # kappa scans whole level sets; a modest horizon keeps the scan cheap,
    # and the horizon-dependence flag reports when it was too small
    horizon = min(64, series.horizon)
    kappa, dependent = kodaira_iitaka(series, horizon)
    try:
        idx = index_estimate(series, horizon)
    except ValueError:
        idx = None
    return SeriesInvariants(kappa, idx, dependent)


def closure_violations(series: MonomialLinearSeries,
                       horizon: int) -> list[tuple[int, int, str]]:
    """Check L_a * L_b inside L_{a+b} for every pair of monomials, with the
    lex-first escaping pair of each (a, b) as witness.

    A whole total is decided at once on the lanes ``(nil, free)`` of the
    series (``_lane_columns``, ``_lanes_hold``): for each lane pair whose
    products do not vanish, one target block must hold the products of every
    pair ``(a, total - a)``.  A total that test does not settle is searched
    monomial by monomial for its witnesses (``_total_violations``).  A
    horizon that is not a non-negative integer raises ValueError.
    """
    horizon = _integer(horizon, "horizon", 0)
    levels = {n: series.blocks(n) for n in range(1, horizon + 1)}
    lanes = _lane_columns(series.ambient, levels)
    out = []
    for total in range(2, horizon + 1):
        if lanes is None or not _lanes_hold(series.ambient, lanes, levels[total], total):
            out += _total_violations(series, levels, total)
    return out


def _lane_columns(ambient: WeightedAmbient,
                  levels: dict[int, list[Block]]) -> dict[tuple, list[tuple]] | None:
    """Each lane ``(nil, free)`` mapped to its shift columns: column i holds
    coordinate i of the lane's block at levels 0, 1, ..., the entry at level
    0 unused.  A lane whose products with every lane vanish is left out, as
    nil lanes are in the annihilator model or when no level has a reduced
    block.  None unless every level holds exactly one block of each lane
    left, a span or a point."""
    lanes = {(b.nil, b.free) for blocks in levels.values() for b in blocks}
    live = {lane for lane in lanes
            if not all(ambient.product_vanishes(lane[0], nil) for nil, _ in lanes)}
    shifts: dict[tuple, list[tuple]] = {}
    for blocks in levels.values():
        kept = [b for b in blocks if (b.nil, b.free) in live]
        level = {(b.nil, b.free): b.shift for b in kept}
        if not len(kept) == len(level) == len(live):
            return None
        for lane, shift in level.items():
            shifts.setdefault(lane, [shift]).append(shift)
    return {lane: list(zip(*rows)) for lane, rows in shifts.items()}


def _lanes_hold(ambient: WeightedAmbient, lanes: dict[tuple, list[tuple]],
                target: list[Block], total: int) -> bool:
    """Whether, for each lane pair whose products do not vanish, one block of
    the target level holds the products of that lane pair at every
    ``(a, total - a)``, a = 1 .. total // 2.  The corners of a lane pair are
    column sums over those levels: each must equal the block's shift past
    its free variables and reach it below them."""
    h = total // 2
    for (x_nil, x_free), xs in lanes.items():
        for (y_nil, y_free), ys in lanes.items():
            if ambient.product_vanishes(x_nil, y_nil):
                continue
            free, nil = max(x_free, y_free), x_nil or y_nil
            corners = [list(map(add, x[1:h + 1], y[total - 1:total - h - 1:-1]))
                       for x, y in zip(xs, ys)]
            if not any(t.nil == nil and free <= t.free
                       and all(min(c) >= e for c, e in zip(corners, t.shift[:t.free]))
                       and all(min(c) == max(c) == e
                               for c, e in zip(corners[t.free:], t.shift[t.free:]))
                       for t in target):
                return False
    return True


def _total_violations(series: MonomialLinearSeries, levels: dict[int, list[Block]],
                      total: int) -> list[tuple[int, int, str]]:
    """The violations of the pairs ``(a, total - a)``: the sorted monomials
    of levels a and total - a are walked in lex order, and the first pair
    whose product is outside the target level, expanded once, is the
    witness."""
    ambient, weights = series.ambient, series.ambient.weights
    target, out = _expand(weights, levels[total]), []
    for a in range(1, total // 2 + 1):
        for u, v in product(sorted(_expand(weights, levels[a])),
                            sorted(_expand(weights, levels[total - a]))):
            if (not ambient.product_vanishes(u[1], v[1])
                    and (tuple(map(add, u[0], v[0])), u[1] or v[1]) not in target):
                out.append((a, total - a, f"{u} * {v} escapes level {total}"))
                break
    return out


# ---------------------------------------------------------------------------
# weighted monomial counting and enumeration
# ---------------------------------------------------------------------------

def count_weighted_monomials(weights: tuple[int, ...], degree: int) -> int:
    """Number of monomials of the given weighted degree (exact DP)."""
    if degree < 0:
        return 0
    table = [1] + [0] * degree
    for w in weights:
        for t in range(w, degree + 1):
            table[t] += table[t - w]
    return table[degree]


def _expand(weights, blocks: Iterable[Block]) -> frozenset:
    """The (exponent vector, nil flag) monomials of the blocks."""
    return frozenset((exps, b.nil) for b in blocks
                     for exps in _block_rows(weights, b.shift, b.free, b.degree))


def _block_rows(weights, shift, free, degree):
    """The exponent vectors ``shift + (m, 0, ..., 0)`` with m of weighted
    degree ``degree`` in ``weights[:free]``, in lex order, built a row at a
    time: one list per setting of the free exponents before the last two,
    whose list comprehension runs over the second-to-last (the last is
    fixed by what is left of the degree)."""
    if degree < 0 or free == 0:
        if degree == 0:
            yield shift
        return
    tail = shift[free:]
    w_last, s_last = weights[free - 1], shift[free - 1]
    if free == 1:
        if not degree % w_last:
            yield (s_last + degree // w_last,) + tail
        return
    w, s = weights[free - 2], shift[free - 2]
    # depth-first over the leading exponents, smallest first
    stack = [((), degree)]
    while stack:
        prefix, rest = stack.pop()
        i = len(prefix)
        if i < free - 2:
            stack.extend((prefix + (shift[i] + a,), rest - a * weights[i])
                         for a in range(rest // weights[i], -1, -1))
            continue
        yield from [prefix + (s + a, s_last + (rest - a * w) // w_last) + tail
                    for a in range(rest // w + 1) if not (rest - a * w) % w_last]


# ---------------------------------------------------------------------------
# T-set helper
# ---------------------------------------------------------------------------

def make_tset(spec) -> Callable[[int], bool]:
    """Accept a predicate, a collection, or ('mod', r, residues)."""
    if callable(spec):
        return spec
    if isinstance(spec, tuple) and spec and spec[0] == "mod":
        if len(spec) != 3:
            raise ValueError(f"a level-set modulus is ('mod', r, residues), got {spec!r}")
        _, r, residues = spec
        r = _integer(r, "level-set modulus", 1)
        rs = frozenset(_integer(x, "level-set residue") % r for x in residues)
        return lambda n: (n % r) in rs
    if isinstance(spec, Collection):
        members = frozenset(_integer(x, "level-set member") for x in spec)
        return lambda n: n in members
    raise ValueError("unrecognized level-set specification")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def full_weighted_series(weights: Iterable[int], horizon: int = 200) -> MonomialLinearSeries:
    """The full section model: every monomial of weighted degree n at level n."""
    ambient = WeightedAmbient(weights)
    ws = ambient.weights

    def provider(n: int):
        return [Block((0,) * len(ws), False, len(ws), n)]

    return MonomialLinearSeries("full", ambient, 1, provider, horizon,
                                natural_exponent=len(ws) - 1)


def nil_hyperplane_series(tset, dim: int = 2, horizon: int = 200) -> MonomialLinearSeries:
    """Full-growth series of nil monomials on a doubled hyperplane model.

    On levels in the T-set the basis is the square-zero generator times all
    degree-n monomials in the reduced variables (padded by the first variable
    to sit in the fixed twist); other levels vanish.  All products vanish, so
    the Kodaira-Iitaka dimension is -inf while dimensions grow like n^{dim-1}.
    """
    dim = _integer(dim, "reduced variable count dim", 2)
    member = make_tset(tset)
    ambient = WeightedAmbient((1,) * dim, nil_degree=1)

    def provider(n: int):
        if not member(n):
            return []
        return [Block((n - 1,) + (0,) * (dim - 1), True, dim, n)]

    return MonomialLinearSeries("nil_hyperplane", ambient, 2, provider, horizon,
                                natural_exponent=dim - 1)


@functools.cache
def _exp_floor_table(k_max: int) -> tuple[int, ...]:
    """floor(e^k) for k = 0..k_max, certified by rational series bounds."""
    terms = 40
    lo = Fraction(0)
    fact = 1
    for i in range(terms):
        lo += Fraction(1, fact)
        fact *= i + 1
    hi = lo + Fraction(2, fact)
    out = []
    for k in range(k_max + 1):
        flo, fhi = lo ** k, hi ** k
        if flo.numerator // flo.denominator != fhi.numerator // fhi.denominator:
            raise ValueError("exponential bounds too loose")
        out.append(flo.numerator // flo.denominator)
    return tuple(out)


def ceil_log(n: int, divisor: int = 1) -> int:
    """ceil(log(n)/divisor) with exact rational threshold comparisons."""
    if n < 1:
        raise ValueError("positive argument required")
    if n == 1:
        return 0
    k = 0
    while True:
        k += 1
        key = k * divisor
        # table sizes are multiples of 16, so few distinct tables are built
        if n <= _exp_floor_table(16 * (key // 16 + 1))[key]:
            return k


def log_nil_series(tset, horizon: int = 200) -> MonomialLinearSeries:
    """Nil series with ceil(log n) growth on the T-set and ceil(log(n)/2) off it."""
    member = make_tset(tset)
    ambient = WeightedAmbient((1, 1), nil_degree=1)

    def provider(n: int):
        lam = ceil_log(n) if member(n) else ceil_log(n, 2)
        return [Block((n - k, k - 1), True) for k in range(1, lam + 1)]

    return MonomialLinearSeries("log_nil", ambient, 1, provider, horizon)


def sigma_growth_series(s, r: int, schedule: BlockSchedule | None = None,
                        weights: Iterable[int] | None = None, e: int = 1,
                        horizon: int = 210) -> MonomialLinearSeries:
    """Oscillating series on a nonreduced weighted model.

    The reduced part carries the full weighted monomials in the first s+1
    variables; the nil part carries the variables up to r, pumped to degree
    (n + sigma(n)) and padded back by powers of z_0.  Level dimensions are
    Q_s(n) + Q_r(n + sigma(n)), which oscillates at order n^r along every
    arithmetic progression.  ``s`` is None for a purely nilpotent series.

    sigma is capped at n-1 (only bites at n = 1, where the raw schedule
    would demand a negative pad exponent).
    """
    schedule = schedule or BlockSchedule.default(horizon)
    nil_only = s is None
    s_int = -1 if nil_only else _integer(s, "s")
    r = _integer(r, "r")
    ambient = WeightedAmbient((1,) * (r + 1) if weights is None else weights,
                              nil_degree=e)
    ws = ambient.weights
    if len(ws) < r + 1:
        raise ValueError("need at least r+1 weights")
    if not nil_only and not 0 <= s_int <= r:
        raise ValueError("need 0 <= s <= r")
    f = math.lcm(*ws, e)
    twist = 2 * f
    zeros = (0,) * (len(ws) - 1)

    def provider(n: int):
        sig = schedule.sigma_capped(n)
        nil_part = Block(((n - sig) * f - e,) + zeros, True, r + 1, (n + sig) * f)
        if nil_only:
            return [nil_part]
        return [Block((n * f,) + zeros, False, s_int + 1, n * f), nil_part]

    return MonomialLinearSeries("sigma_growth", ambient, twist, provider,
                                horizon, natural_exponent=r)


def tau_pulse_series(schedule: BlockSchedule | None = None, e: int = 1,
                     g: int = 1, horizon: int = 210) -> MonomialLinearSeries:
    """Kodaira-Iitaka dimension 0 series whose dimensions pulse 1/2 by block.

    Levels hold a power of a fixed non-nilpotent form h of degree e*g, plus,
    on odd blocks, one nil monomial.  h lies in the annihilator of the
    square-zero generator, so mixed products vanish (annihilator model).
    """
    g = _integer(g, "pulse degree g", 1)
    schedule = schedule or BlockSchedule.default(horizon)
    ambient = WeightedAmbient((1,), nil_degree=e, nil_annihilates_base=True)
    deg = e * g

    def provider(n: int):
        out = [Block((n * deg,), False)]
        if schedule.tau(n) == 1:
            out.append(Block((n * deg - e,), True))
        return out

    return MonomialLinearSeries("tau_pulse", ambient, deg, provider, horizon)


def artin_tau_series(t: int, schedule: BlockSchedule | None = None,
                     horizon: int = 210, with_unit: bool = False) -> MonomialLinearSeries:
    """Zero-dimensional model series: dimensions pulse between blocks.

    Without the unit component the series is the top socle power on even
    blocks only (kappa = -inf, dims 1/0); with it, a unit summand from a
    second ring component is added (kappa = 0, dims 2/1), the nonirreducible
    zero-dimensional counterexample.
    """
    _integer(t, "socle degree t", 1)
    schedule = schedule or BlockSchedule.default(horizon)
    ambient = WeightedAmbient((1,), nil_degree=1, nil_annihilates_base=True)

    def provider(n: int):
        out = []
        if with_unit:
            out.append(Block((n,), False))
        if schedule.tau(n) == 0:
            out.append(Block((n - 1,), True))
        return out

    return MonomialLinearSeries("artin_tau_unit" if with_unit else "artin_tau",
                                ambient, 1, provider, horizon)
