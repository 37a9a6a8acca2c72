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
from operator import add, sub
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


class _Level:
    """A fill level: the points anchor + (i, *key) . B for every key of
    ``rows`` and every set bit i of rows[key], B the basis of L.
    ``count`` is the number of set bits (of points), ``positions`` the sum
    of the row bit lengths (the lattice positions the bitsets span)."""

    __slots__ = ("anchor", "rows", "count", "positions")

    def __init__(self, anchor: tuple, rows: dict, count: int, positions: int):
        self.anchor, self.rows, self.count, self.positions = anchor, rows, count, positions


_EMPTY = _Level(None, {}, 0, 0)  # every empty level


class GradedSemigroup:
    """Sub-semigroup of Z^d x N, generated or presented by a level oracle.

    A generated semigroup fills its levels bottom-up, each level once, as
    the union of S_{n-deg} + v over the generators (v, deg).  Two points of
    one level differ by an element of L, the degree-zero part of the group
    the generators span, so a level is stored as bitsets in the coordinates
    of L's Hermite basis B (see ``_Level``): one int per value of the last
    rank(L) - 1 coordinates, bit i standing for the first coordinate i.
    Only a window of the last max(deg) levels is kept, so counting up to a
    horizon needs memory for a few levels, not all of them.  ``level(n)``
    memoizes the levels it is asked for as frozensets of tuples; a request
    ahead of the window continues the fill, one below it restarts the fill
    from level 1.  ``level_sizes`` streams the counts without memoizing.  An
    oracle semigroup memoizes every level it is asked for.

    ``point_budget`` caps the memoized points plus the window points, and
    the window's bitsets at 64 positions per budgeted point; going over
    either raises ``MemoryError``.  Coordinates must stay below 2^63 in
    absolute value.  The object is not thread-safe.
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
        self._window_points = 0
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
            by_degree: dict[int, list[tuple]] = {}
            for v, deg in self.generators:
                by_degree.setdefault(deg, []).append(v)
            self._by_degree = sorted(by_degree.items())
            self._span = max([1, *by_degree])
            bound = max((abs(x) for v, _ in self.generators for x in v), default=0)
            # k * bound < 2^63 keeps every level-k coordinate in range
            self._max_level = (2**63 - 1) // max(bound, 1)
            # degree first: the rows below the first Hermite pivot have
            # degree 0 and are the basis B of L
            self._group = hermite_basis([(deg,) + v for v, deg in self.generators],
                                        point_dim + 1)
            self._basis = tuple(row[1:] for row in self._group.basis if row[0] == 0)
            self._pivots = tuple(next(i for i, x in enumerate(row) if x)
                                 for row in self._basis)
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
            result = self._points(self._fill(n))
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
                yield n, self._fill(n).count

    def _oracle_level(self, n: int) -> frozenset:
        return frozenset(tuple(int(x) for x in p) for p in self.level_oracle(n))

    # -- the fill window (generated semigroups) -----------------------------

    def _check_budget(self, extra: int) -> None:
        if self._points_stored + self._window_points + extra > self.point_budget:
            raise MemoryError("semigroup points exceed the point budget")

    def _restart_fill(self) -> None:
        # slot n % span holds level n for the last span levels; level 0 is
        # the origin (so a generator of degree n lands in S_n) and the
        # levels below 0 are empty
        origin_key = (0,) * max(len(self._basis) - 1, 0)
        self._window = [_EMPTY] * self._span
        self._window[0] = _Level((0,) * self.point_dim, {origin_key: 1}, 1, 1)
        self._window_points = self._window_positions = 1
        self._top = 0

    def _fill(self, n: int) -> _Level:
        """Level n >= 1, filled through the window."""
        if n <= self._top - self._span:
            self._restart_fill()
        if self._by_degree and self._by_degree[0][0] == 0:
            raise ValueError("level enumeration needs strictly positive degrees")
        window, span = self._window, self._span
        while self._top < n:
            k = self._top + 1
            if k > self._max_level:
                raise ValueError(f"level {k}: generator coordinates could reach 2^63, "
                                 "beyond the supported coordinate range")
            old = window[k % span]
            new = window[k % span] = self._next_level(k)
            self._window_points += new.count - old.count
            self._window_positions += new.positions - old.positions
            self._top = k
            self._check_budget(0)
        return window[n % span]

    def _next_level(self, k: int) -> _Level:
        """S_k as the union of the shifted source levels S_{k-deg} + v."""
        window, span, basis = self._window, self._span, self._basis
        # (first coordinate, offset of the other coordinates, source level)
        # of each translate's anchor, relative to the first translate's
        parts = []
        ref = None
        for deg, vecs in self._by_degree:
            prev = window[(k - deg) % span]
            if not prev.count:
                continue
            for v in vecs:
                start = tuple(map(add, prev.anchor, v))
                if ref is None:
                    ref = start
                    coords = [0] * len(basis)
                else:
                    coords = self._coords(tuple(map(sub, start, ref)))
                parts.append((coords[0] if coords else 0, tuple(coords[1:]), prev))
        if not parts:
            return _EMPTY
        low = min(first for first, _, _ in parts)
        anchor = tuple(a + low * b for a, b in zip(ref, basis[0])) if low else ref
        parts = [(first - low, offset, prev) for first, offset, prev in parts]
        self._check_width(parts)
        rows: dict[tuple, int] = {}
        for shift, offset, prev in parts:
            moved = any(offset)
            for key, mask in prev.rows.items():
                if moved:
                    key = tuple(map(add, key, offset))
                rows[key] = rows.get(key, 0) | (mask << shift)
        masks = rows.values()
        return _Level(anchor, rows, sum(map(int.bit_count, masks)),
                      sum(map(int.bit_length, masks)))

    def _coords(self, vec: tuple) -> list[int]:
        """The coordinates of a vector of L in B: a triangular solve on the
        echelon pivots, exact because vec lies in L."""
        coords = []
        for row, p in zip(self._basis, self._pivots):
            c = vec[p] // row[p]
            if c:
                vec = tuple(a - c * b for a, b in zip(vec, row))
            coords.append(c)
        return coords

    def _check_width(self, parts: list) -> None:
        """Raise ``MemoryError`` before a fill that would leave the window
        spanning more than 64 positions (one word) per budgeted point."""
        limit = 64 * self.point_budget
        held = self._window_positions
        # each shifted row spans shift + its length; rows meeting under one
        # key only overlap, so the sum bounds the new level from above
        if held + sum(shift * len(prev.rows) + prev.positions
                      for shift, _, prev in parts) <= limit:
            return
        ends: dict[tuple, int] = {}
        for shift, offset, prev in parts:
            for key, mask in prev.rows.items():
                key = tuple(map(add, key, offset))
                ends[key] = max(ends.get(key, 0), shift + mask.bit_length())
        if held + sum(ends.values()) > limit:
            raise MemoryError("semigroup points exceed the point budget")

    def _points(self, lvl: _Level) -> frozenset:
        """The points of a fill level, read off the bits by a string scan."""
        if not lvl.count:
            return frozenset()
        if not self._basis:
            return frozenset([lvl.anchor])
        first, others = self._basis[0], self._basis[1:]
        out = []
        for key, mask in lvl.rows.items():
            base = lvl.anchor
            for c, row in zip(key, others):
                base = tuple(a + c * b for a, b in zip(base, row))
            bits = bin(mask)[:1:-1]  # bit i at index i
            i = bits.find("1")
            while i >= 0:
                out.append(tuple(a + i * b for a, b in zip(base, first)))
                i = bits.find("1", i + 1)
        return frozenset(out)


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
    # in the degree-first Hermite basis of the group the first pivot is
    # m = gcd of the degrees, and the rows below it are the fill's basis of L
    group = s._group
    q = group.rank - 1
    m = group.basis[0][0]
    boundary, ind = saturate_lattice(hermite_basis(s._basis, d))
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
