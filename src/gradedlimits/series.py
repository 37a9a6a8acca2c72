"""Monomial-model graded linear series on weighted, possibly nonreduced
projective models: level dimensions, Kodaira-Iitaka dimension, index, and the
oscillating constructions driven by block schedules.

A series stores, per level n, a finite set of basis monomials; each monomial
is an exponent vector over the weighted variables plus a flag marking a
factor of the square-zero generator.  Nil-flagged monomials multiply to zero
with each other (and, in the annihilator model, with everything).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable

from .families import BlockSchedule
from .semigroup import GradedSemigroup

NEG_INF = float("-inf")

Monomial = tuple  # (exponents tuple, nil flag)


@dataclass(frozen=True)
class WeightedAmbient:
    """Weighted variables z_0..z_r (deg z_0 = 1) with an optional square-zero
    generator of degree ``nil_degree``.

    ``nil_annihilates_base`` adds the relation that the square-zero generator
    also kills the designated base monomials (the annihilator model used by
    the pulse construction); products with a nil factor then always vanish.
    """

    weights: tuple[int, ...]
    nil_degree: int | None = None
    nil_annihilates_base: bool = False

    def __post_init__(self):
        if not self.weights or self.weights[0] != 1:
            raise ValueError("first weight must be 1")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if self.nil_degree is not None and self.nil_degree < 1:
            raise ValueError("nilpotent degree must be positive")

    def product_vanishes(self, nil_a: bool, nil_b: bool) -> bool:
        if nil_a and nil_b:
            return True
        return self.nil_annihilates_base and (nil_a or nil_b)


class MonomialLinearSeries:
    """Level-indexed monomial bases L_n with lazily memoized levels.

    ``expected_dim`` is an optional closed-form level dimension used by
    reports as an independent cross-check; ``dim`` always counts the actual
    monomial set.
    """

    def __init__(self, name: str, ambient: WeightedAmbient, twist: int,
                 provider: Callable[[int], Iterable[Monomial]],
                 horizon: int,
                 expected_dim: Callable[[int], int] | None = None,
                 declared_kappa=None, declared_index: int | None = None,
                 natural_exponent: int = 0,
                 check_degrees: bool = True,
                 cache_points: int = 400_000):
        self.name = name
        self.ambient = ambient
        self.twist = twist
        self.horizon = horizon
        self.expected_dim = expected_dim
        self.declared_kappa = declared_kappa
        self.declared_index = declared_index
        self.natural_exponent = natural_exponent
        self.check_degrees = check_degrees
        self._provider = provider
        self._cache: dict[int, frozenset] = {}
        self._cache_points = cache_points
        self._cached_points = 0
        self._lock = threading.Lock()

    def level(self, n: int) -> frozenset:
        if n < 0:
            raise ValueError("negative level")
        if n > self.horizon:
            raise ValueError(f"level {n} beyond series horizon {self.horizon}")
        with self._lock:
            if n in self._cache:
                return self._cache[n]
        result = frozenset((tuple(int(e) for e in exps), bool(nil))
                           for exps, nil in self._provider(n))
        if self.check_degrees:
            self._check_level_degrees(n, result)
        with self._lock:
            if self._cached_points + len(result) <= self._cache_points \
                    and n not in self._cache:
                self._cache[n] = result
                self._cached_points += len(result)
        return result

    def _check_level_degrees(self, n: int, monomials: frozenset):
        for exps, nil in monomials:
            deg = sum(w * e for w, e in zip(self.ambient.weights, exps))
            if nil:
                deg += self.ambient.nil_degree
            if deg != self.twist * n:
                raise ValueError(f"level {n} monomial {exps} has degree {deg}, "
                                 f"expected {self.twist * n}")

    def dim(self, n: int) -> int:
        return len(self.level(n))


def dims(series: MonomialLinearSeries, n_max: int) -> list[int]:
    """Exact level dimensions 1..n_max, by counting basis monomials."""
    return [series.dim(n) for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class SeriesInvariants:
    kappa: float | int
    index_estimate: int | None
    horizon: int
    horizon_dependent: bool


class _SpanTracker:
    """Incremental rational row space: add rows, track the rank."""

    def __init__(self):
        self.rows: list[list[Fraction]] = []  # reduced, one pivot each
        self.pivots: list[int] = []

    def add(self, row) -> bool:
        vec = [Fraction(x) for x in row]
        for r, p in zip(self.rows, self.pivots):
            if vec[p] != 0:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, r)]
        piv = next((i for i, x in enumerate(vec) if x != 0), None)
        if piv is None:
            return False
        pv = vec[piv]
        self.rows.append([x / pv for x in vec])
        self.pivots.append(piv)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def kodaira_iitaka(series: MonomialLinearSeries, horizon: int | None = None):
    """Kodaira-Iitaka dimension: rank of the lattice of (exponents, level)
    points of the non-nil monomials, minus one; -inf when none occur.

    A monomial-spanned graded algebra has Krull dimension equal to that
    lattice rank, and nil monomials never witness algebraic independence
    (their squares vanish).  Returns (kappa, horizon_dependent): the flag is
    set when the rank still grew in the final quarter of the horizon.
    """
    horizon = min(horizon or series.horizon, series.horizon)
    span = _SpanTracker()
    max_rank = len(series.ambient.weights) + 1
    growth_marks: list[int] = []
    for n in range(1, horizon + 1):
        for exps, nil in sorted(series.level(n)):
            if nil:
                continue
            if span.add(exps + (n,)):
                growth_marks.append(n)
        if span.rank == max_rank:
            break
    rank = span.rank
    kappa = rank - 1 if rank > 0 else NEG_INF
    dependent = bool(growth_marks) and growth_marks[-1] > (3 * horizon) // 4
    return kappa, dependent


def index_estimate(series: MonomialLinearSeries, n_max: int | None = None) -> int:
    """gcd of the levels with a nonzero space; monotone nonincreasing in the
    horizon, so an upper estimate of the true index."""
    n_max = min(n_max or series.horizon, series.horizon)
    g = 0
    for n in range(1, n_max + 1):
        if series.dim(n):
            g = math.gcd(g, n)
            if g == 1:
                break
    if g == 0:
        raise ValueError("all levels are zero up to the horizon")
    return g


def series_invariants(series: MonomialLinearSeries,
                      horizon: int | None = None) -> SeriesInvariants:
    # kappa scans whole level sets; a modest default horizon keeps the scan
    # cheap, and the horizon-dependence flag reports when it was too small
    horizon = min(horizon or min(series.horizon, 64), series.horizon)
    kappa, dependent = kodaira_iitaka(series, horizon)
    try:
        idx = index_estimate(series, horizon)
    except ValueError:
        idx = None
    return SeriesInvariants(kappa, idx, horizon, dependent)


def closure_violations(series: MonomialLinearSeries, horizon: int,
                       pair_cap: int = 64) -> list[tuple[int, int, str]]:
    """Check L_a * L_b inside L_{a+b} on a deterministic sample of monomial
    pairs (up to pair_cap per level pair; exhaustive when small)."""
    out = []
    # each level is sorted once; the strided pair order below indexes into it
    ordered = {n: sorted(series.level(n)) for n in range(1, horizon)}
    for total in range(2, horizon + 1):
        for a in range(1, total // 2 + 1):
            b = total - a
            la, lb = ordered[a], ordered[b]
            if not la or not lb:
                continue
            target = series.level(total)
            pairs = len(la) * len(lb)
            stride = max(1, pairs // pair_cap)
            for k in range(0, pairs, stride):
                u = la[k // len(lb)]
                v = lb[k % len(lb)]
                if series.ambient.product_vanishes(u[1], v[1]):
                    continue
                prod = (tuple(x + y for x, y in zip(u[0], v[0])), u[1] or v[1])
                if prod not in target:
                    out.append((a, b, f"{u} * {v} escapes level {total}"))
                    break
    return out


def series_to_semigroup(series: MonomialLinearSeries) -> tuple[GradedSemigroup, bool]:
    """Level-oracle semigroup of the non-nil monomials (exponents, level).

    Returns (semigroup, excluded): ``excluded`` is True when nil monomials
    were present and therefore not represented; for a reduced series the
    level counts match the series dimensions exactly.
    """
    has_nil = any(nil for n in range(1, min(series.horizon, 40) + 1)
                  for _, nil in series.level(n))

    def oracle(n: int):
        if n == 0 or n > series.horizon:
            return frozenset()
        return frozenset(exps for exps, nil in series.level(n) if not nil)

    return GradedSemigroup(len(series.ambient.weights), level_oracle=oracle), has_nil


def veronese(series: MonomialLinearSeries, e: int) -> MonomialLinearSeries:
    """The e-th Veronese sub-series, level n mapped to the old level e*n."""
    if e < 1:
        raise ValueError("Veronese step must be positive")
    return MonomialLinearSeries(
        name=f"{series.name}_veronese{e}",
        ambient=series.ambient,
        twist=series.twist * e,
        provider=lambda n: series.level(e * n),
        horizon=series.horizon // e,
        expected_dim=(lambda n: series.expected_dim(e * n)) if series.expected_dim else None,
        declared_kappa=series.declared_kappa,
        natural_exponent=series.natural_exponent,
        check_degrees=series.check_degrees)


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


def weighted_monomials(weights: tuple[int, ...], degree: int):
    """All exponent vectors of the given weighted degree (recursive)."""
    if degree < 0:
        return
    if len(weights) == 1:
        if degree % weights[0] == 0:
            yield (degree // weights[0],)
        return
    w = weights[0]
    for a in range(degree // w + 1):
        for rest in weighted_monomials(weights[1:], degree - a * w):
            yield (a,) + rest


# ---------------------------------------------------------------------------
# T-set helper
# ---------------------------------------------------------------------------

def make_tset(spec) -> Callable[[int], bool]:
    """Accept a predicate, a collection, or ('mod', r, residues)."""
    if callable(spec):
        return spec
    if isinstance(spec, tuple) and spec and spec[0] == "mod":
        _, r, residues = spec
        rs = frozenset(int(x) % r for x in residues)
        return lambda n: (n % r) in rs
    if isinstance(spec, Collection):
        members = frozenset(int(x) for x in spec)
        return lambda n: n in members
    raise ValueError("unrecognized level-set specification")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def full_weighted_series(weights: Iterable[int], horizon: int = 200) -> MonomialLinearSeries:
    """The full section model: every monomial of weighted degree n at level n."""
    ws = tuple(int(w) for w in weights)
    ambient = WeightedAmbient(ws)

    def provider(n: int):
        if n == 0:
            return [((0,) * len(ws), False)]
        return [(exps, False) for exps in weighted_monomials(ws, n)]

    return MonomialLinearSeries("full", ambient, 1, provider, horizon,
                                expected_dim=lambda n: count_weighted_monomials(ws, n),
                                declared_kappa=len(ws) - 1, declared_index=1,
                                natural_exponent=len(ws) - 1)


def nil_hyperplane_series(tset, dim: int = 2, horizon: int = 200) -> MonomialLinearSeries:
    """Full-growth series of nil monomials on a doubled hyperplane model.

    On levels in the T-set the basis is the square-zero generator times all
    degree-n monomials in the reduced variables (padded by the first variable
    to sit in the fixed twist); other levels vanish.  All products vanish, so
    the Kodaira-Iitaka dimension is -inf while dimensions grow like n^{dim-1}.
    """
    if dim < 2:
        raise ValueError("need at least two reduced variables")
    member = make_tset(tset)
    ambient = WeightedAmbient((1,) * dim, nil_degree=1)

    def provider(n: int):
        if n == 0:
            return [((0,) * dim, False)]
        if not member(n):
            return []
        out = []
        for exps in weighted_monomials((1,) * dim, n):
            padded = (exps[0] + n - 1,) + exps[1:]
            out.append((padded, True))
        return out

    def expected(n: int) -> int:
        return math.comb(n + dim - 1, dim - 1) if member(n) else 0

    return MonomialLinearSeries("nil_hyperplane", ambient, 2, provider, horizon,
                                expected_dim=expected, declared_kappa=NEG_INF,
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

    def lam(n: int) -> int:
        return ceil_log(n) if member(n) else ceil_log(n, 2)

    def provider(n: int):
        if n == 0:
            return [((0, 0), False)]
        return [((n - k, k - 1), True) for k in range(1, lam(n) + 1)]

    return MonomialLinearSeries("log_nil", ambient, 1, provider, horizon,
                                expected_dim=lam, declared_kappa=NEG_INF,
                                natural_exponent=0)


def sigma_growth_series(s, r: int, schedule: BlockSchedule | None = None,
                        weights: Iterable[int] | None = None, e: int = 1,
                        horizon: int = 210) -> MonomialLinearSeries:
    """Oscillating series on a nonreduced weighted model.

    The reduced part carries the full weighted monomials in the first s+1
    variables; the nil part carries the variables up to r, pumped to degree
    (n + sigma(n)) and padded back by powers of z_0.  Level dimensions are
    Q_s(n) + Q_r(n + sigma(n)), which oscillates at order n^r along every
    arithmetic progression.  ``s`` may be None (or the string "-inf") for a
    purely nilpotent series.

    sigma is capped at n-1 (only bites at n = 1, where the raw schedule
    would demand a negative pad exponent).
    """
    schedule = schedule or BlockSchedule.default(horizon)
    nil_only = s is None or s == NEG_INF or (isinstance(s, str) and s in ("-inf", "-infinity"))
    s_int = -1 if nil_only else int(s)
    ws = tuple(int(w) for w in weights) if weights is not None else (1,) * (r + 1)
    if len(ws) < r + 1:
        raise ValueError("need at least r+1 weights")
    if not nil_only and not 0 <= s_int <= r:
        raise ValueError("need 0 <= s <= r")
    f = math.lcm(*ws, e)
    ambient = WeightedAmbient(ws, nil_degree=e)
    twist = 2 * f

    def provider(n: int):
        if n == 0:
            return [((0,) * len(ws), False)]
        sig = schedule.sigma_capped(n)
        out = []
        if not nil_only:
            for mono in weighted_monomials(ws[:s_int + 1], n * f):
                padded = (mono[0] + n * f,) + mono[1:] + (0,) * (len(ws) - s_int - 1)
                out.append((padded, False))
        pad = (n - sig) * f - e
        for mono in weighted_monomials(ws[:r + 1], (n + sig) * f):
            padded = (mono[0] + pad,) + mono[1:] + (0,) * (len(ws) - r - 1)
            out.append((padded, True))
        return out

    def expected(n: int) -> int:
        sig = schedule.sigma_capped(n)
        low = 0 if nil_only else count_weighted_monomials(ws[:s_int + 1], n * f)
        return low + count_weighted_monomials(ws[:r + 1], (n + sig) * f)

    kappa = NEG_INF if nil_only else s_int
    return MonomialLinearSeries("sigma_growth", ambient, twist, provider,
                                horizon, expected_dim=expected,
                                declared_kappa=kappa, declared_index=1,
                                natural_exponent=r)


def tau_pulse_series(schedule: BlockSchedule | None = None, e: int = 1,
                     g: int = 1, horizon: int = 210) -> MonomialLinearSeries:
    """Kodaira-Iitaka dimension 0 series whose dimensions pulse 1/2 by block.

    Levels hold a power of a fixed non-nilpotent form h of degree e*g, plus,
    on odd blocks, one nil monomial.  h lies in the annihilator of the
    square-zero generator, so mixed products vanish (annihilator model).
    """
    schedule = schedule or BlockSchedule.default(horizon)
    ambient = WeightedAmbient((1,), nil_degree=e, nil_annihilates_base=True)
    deg = e * g

    def provider(n: int):
        if n == 0:
            return [((0,), False)]
        out = [((n * deg,), False)]
        if schedule.tau(n) == 1:
            out.append(((n * deg - e,), True))
        return out

    def expected(n: int) -> int:
        return 1 + schedule.tau(n)

    return MonomialLinearSeries("tau_pulse", ambient, deg, provider, horizon,
                                expected_dim=expected, declared_kappa=0,
                                declared_index=1, natural_exponent=0)


def artin_tau_series(t: int, schedule: BlockSchedule | None = None,
                     horizon: int = 210, with_unit: bool = False) -> MonomialLinearSeries:
    """Zero-dimensional model series: dimensions pulse between blocks.

    Without the unit component the series is the top socle power on even
    blocks only (kappa = -inf, dims 1/0); with it, a unit summand from a
    second ring component is added (kappa = 0, dims 2/1), the nonirreducible
    zero-dimensional counterexample.
    """
    if t < 1:
        raise ValueError("socle degree t must be positive")
    schedule = schedule or BlockSchedule.default(horizon)
    ambient = WeightedAmbient((1,), nil_degree=1, nil_annihilates_base=True)

    def provider(n: int):
        if n == 0:
            return [((0,), False)]
        out = []
        if with_unit:
            out.append(((n,), False))
        if schedule.tau(n) == 0:
            out.append(((n - 1,), True))
        return out

    def expected(n: int) -> int:
        return (1 if with_unit else 0) + (1 - schedule.tau(n))

    return MonomialLinearSeries("artin_tau_unit" if with_unit else "artin_tau",
                                ambient, 1, provider, horizon,
                                expected_dim=expected,
                                declared_kappa=0 if with_unit else NEG_INF,
                                natural_exponent=0)


BUILTIN_SERIES_NAMES = ("full", "nil_hyperplane", "log_nil", "sigma_growth",
                        "tau_pulse", "artin_tau")
