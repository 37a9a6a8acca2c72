"""Graded sub-semigroups of Z^d x N: level enumeration, invariants, and the
level-count limit they predict.

A semigroup is given either by finitely many generators (vector, degree) or
by a level oracle mapping a degree to its finite point set (used for
semigroups derived from ideal families and linear series).  Invariants are
only defined in the generated case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .lattice import (
    IntegerLattice,
    RationalPolytope,
    convex_hull,
    hermite_basis,
    lattice_volume,
    saturate_lattice,
)

DEFAULT_POINT_BUDGET = 10**7


@dataclass(frozen=True)
class OkounkovBody:
    """Newton-Okounkov body of a graded semigroup.

    The polytope is the cone slice at height ``slice_height`` (the degree
    index m of the semigroup), and the volume is measured against the
    saturated degree-zero boundary lattice.
    """

    slice_height: int
    polytope: RationalPolytope
    boundary_lattice: IntegerLattice
    volume: Fraction


@dataclass(frozen=True)
class SemigroupInvariants:
    m: int
    q: int
    ind: int
    body: OkounkovBody

    @property
    def predicted_limit(self) -> Fraction:
        return self.body.volume / self.ind


class GradedSemigroup:
    """Sub-semigroup of Z^d x N, generated or presented by a level oracle.

    A generated semigroup fills its levels bottom-up, each level once, as
    the union of S_{n-deg} + v over the generators (v, deg).  Only a window
    of the last max(deg) levels is kept, with each point packed into one
    int (see ``_pack``), so counting up to a horizon needs memory for a few
    levels, not all of them.  ``level(n)`` memoizes the levels it is asked
    for as frozensets of tuples; a request ahead of the window continues the
    fill, one below it restarts the fill from level 1.  ``level_sizes``
    streams the counts without memoizing.  An oracle semigroup memoizes
    every level it is asked for.

    ``point_budget`` caps the memoized points plus the window points; going
    over it raises ``MemoryError``.  The object is not thread-safe.
    """

    def __init__(self, point_dim: int,
                 generators: Iterable[tuple] | None = None,
                 level_oracle: Callable[[int], Iterable[tuple]] | None = None,
                 point_budget: int = DEFAULT_POINT_BUDGET):
        if (generators is None) == (level_oracle is None):
            raise ValueError("give either generators or a level oracle")
        self.point_dim = point_dim
        self.level_oracle = level_oracle
        self.point_budget = point_budget
        self._levels: dict[int, frozenset] = {}
        self._points_stored = 0
        self._window: list[set] = []
        if generators is not None:
            gens = []
            for vec, deg in generators:
                v = tuple(int(x) for x in vec)
                if len(v) != point_dim:
                    raise ValueError("generator point has wrong dimension")
                if deg < 0:
                    raise ValueError("negative degree")
                gens.append((v, int(deg)))
            self.generators: tuple | None = tuple(sorted(gens))
            by_degree: dict[int, list[int]] = {}
            for v, deg in self.generators:
                by_degree.setdefault(deg, []).append(_pack(v))
            self._by_degree = sorted(by_degree.items())
            self._span = max([1, *by_degree])
            bound = max((abs(x) for v, _ in self.generators for x in v), default=0)
            # k * bound < 2^63 keeps every level-k coordinate inside its slot
            self._max_packed_level = (_HALF - 1) // max(bound, 1)
            self._restart_fill()
        else:
            self.generators = None

    # -- basic structure ----------------------------------------------------

    def strongly_nonnegative(self) -> bool:
        """True iff the cone meets the degree-zero boundary only at 0.

        For a finitely generated semigroup this is exactly "no generator of
        degree zero"; for oracle semigroups the degree-0 level is inspected.
        """
        if self.generators is not None:
            return all(deg >= 1 for _, deg in self.generators)
        zero = frozenset(tuple(p) for p in self.level_oracle(0))
        return zero <= {(0,) * self.point_dim}

    def level(self, n: int) -> frozenset:
        """The level set S_n as a frozenset of integer tuples (memoized)."""
        if n in self._levels:
            return self._levels[n]
        if self.generators is None:
            result = self._oracle_level(n)
        elif n <= 0:
            result = frozenset()
        else:
            d = self.point_dim
            result = frozenset(_unpack(code, d) for code in self._packed_level(n))
        self._check_budget(len(result))
        self._levels[n] = result
        self._points_stored += len(result)
        return result

    def level_sizes(self, n_max: int) -> Iterator[tuple[int, int]]:
        """Yield (n, #S_n) for n = 1 .. n_max without memoizing any level."""
        for n in range(1, n_max + 1):
            if self.generators is None:
                yield n, len(self._oracle_level(n))
            else:
                yield n, len(self._packed_level(n))

    def _oracle_level(self, n: int) -> frozenset:
        return frozenset(tuple(int(x) for x in p) for p in self.level_oracle(n))

    # -- the fill window (generated semigroups) -----------------------------

    def _check_budget(self, extra: int) -> None:
        window_points = sum(map(len, self._window))
        if self._points_stored + window_points + extra > self.point_budget:
            raise MemoryError("semigroup points exceed the point budget")

    def _restart_fill(self) -> None:
        # slot n % span holds level n for the last span levels; level 0 is
        # the origin (so a generator of degree n lands in S_n) and the
        # levels below 0 are empty
        self._window = [set() for _ in range(self._span)]
        self._window[0].add(0)
        self._top = 0

    def _packed_level(self, n: int) -> set:
        """Level n >= 1 as a set of packed points, filled through the window."""
        if n <= self._top - self._span:
            self._restart_fill()
        if self._by_degree and self._by_degree[0][0] == 0:
            raise ValueError("level enumeration needs strictly positive degrees")
        window, span = self._window, self._span
        while self._top < n:
            k = self._top + 1
            if k > self._max_packed_level:
                raise ValueError(f"level {k}: generator coordinates could reach 2^63, "
                                 "beyond the packed point range")
            points: set = set()
            for deg, codes in self._by_degree:
                prev = window[(k - deg) % span]
                for code in codes:
                    points.update(map(code.__add__, prev))
            window[k % span] = points
            self._top = k
            self._check_budget(0)
        return window[n % span]


_SLOT = 64
_HALF = 1 << (_SLOT - 1)
_MASK = (1 << _SLOT) - 1


def _pack(vec: tuple) -> int:
    """Sum of x_i * 2^(64 i): injective on points with every |x_i| < 2^63,
    and adding two packed points packs the sum of the points."""
    return sum(x << (_SLOT * i) for i, x in enumerate(vec))


def _unpack(code: int, dim: int) -> tuple:
    """Inverse of ``_pack`` on points with every |x_i| < 2^63."""
    out = []
    for _ in range(dim):
        x = code & _MASK
        if x >= _HALF:
            x -= 1 << _SLOT
        out.append(x)
        code = (code - x) >> _SLOT
    return tuple(out)


def enumerate_levels(s: GradedSemigroup, n_max: int) -> dict[int, frozenset]:
    """All level sets S_1 .. S_{n_max} (exact, deduplicated)."""
    return {n: s.level(n) for n in range(1, n_max + 1)}


def invariants(s: GradedSemigroup) -> SemigroupInvariants:
    """Degree index m, boundary dimension q, boundary index ind, and body.

    m is the gcd of the generator degrees; q is rank(G(S)) - 1; ind is the
    index of the degree-zero part of the generated group inside its
    saturation; the body is the cone slice at height m with its volume
    measured in the saturated boundary lattice.
    """
    if s.generators is None:
        raise ValueError("invariants require generators")
    if not s.generators:
        raise ValueError("invariants require at least one generator")
    if not s.strongly_nonnegative():
        raise ValueError("invariants require strictly positive degrees")
    d = s.point_dim
    # degree first: the first Hermite pivot is m = gcd of the degrees, and
    # the rows below it have degree 0 and span the degree-zero part
    group = hermite_basis([(deg,) + vec for vec, deg in s.generators], d + 1)
    q = group.rank - 1
    m = group.basis[0][0]
    proj = hermite_basis([row[1:] for row in group.basis[1:]], d)
    boundary, ind = saturate_lattice(proj)
    slice_points = [tuple(Fraction(m * x, deg) for x in vec) for vec, deg in s.generators]
    polytope = convex_hull(slice_points)
    volume = lattice_volume(polytope, boundary)
    body = OkounkovBody(m, polytope, boundary, volume)
    return SemigroupInvariants(m=m, q=q, ind=ind, body=body)


def predicted_limit(s: GradedSemigroup) -> Fraction:
    """The value the scaled level counts #S_{mk} / k^q converge to."""
    return invariants(s).predicted_limit


def empirical_limit(s: GradedSemigroup, n_max: int) -> list[tuple[int, Fraction]]:
    """The exact scaled counts (k, #S_{mk} / k^q) for mk <= n_max."""
    inv = invariants(s)
    return [(n // inv.m, Fraction(count, (n // inv.m) ** inv.q))
            for n, count in s.level_sizes(n_max) if n % inv.m == 0]


def truncate(s: GradedSemigroup, p: int) -> GradedSemigroup:
    """The sub-semigroup generated by the level p*m(S) points."""
    if p < 1:
        raise ValueError("truncation level must be positive")
    inv_m = invariants(s).m
    height = p * inv_m
    points = s.level(height)
    if not points:
        raise ValueError(f"level {height} is empty")
    return GradedSemigroup(s.point_dim,
                           generators=[(pt, height) for pt in sorted(points)])
