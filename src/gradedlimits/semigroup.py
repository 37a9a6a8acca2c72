"""Finitely generated graded sub-semigroups of Z^d x N: level enumeration,
invariants, and the level-count limit they predict.

A semigroup is given by finitely many generators (vector, degree).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, NamedTuple

from . import _integer
from .lattice import (
    IntegerLattice,
    RationalPolytope,
    convex_hull,
    hermite_basis,
    lattice_volume,
    saturate_lattice,
)

DEFAULT_POINT_BUDGET = 10**7


class OkounkovBody(NamedTuple):
    """Newton-Okounkov body of a graded semigroup.

    The polytope is the cone slice at height ``slice_height`` (the degree
    index m of the semigroup), and the volume is measured against the
    saturated degree-zero boundary lattice.
    """

    slice_height: int
    polytope: RationalPolytope
    boundary_lattice: IntegerLattice
    volume: Fraction


class SemigroupInvariants(NamedTuple):
    m: int
    q: int
    ind: int
    body: OkounkovBody

    @property
    def predicted_limit(self) -> Fraction:
        return self.body.volume / self.ind


class _Level:
    """Fill level n: one int per key, the last rank(L) - 1 coordinates in
    B, whose bit i is the point (n/m) w + (low + i, *key) . B.  ``count``
    is the number of set bits (of points), ``positions`` the sum of the row
    bit lengths (the lattice positions the bitsets span)."""

    __slots__ = ("low", "rows", "count", "positions")

    def __init__(self, low: int, rows: dict, count: int, positions: int):
        self.low, self.rows, self.count, self.positions = low, rows, count, positions


_EMPTY = _Level(0, {}, 0, 0)  # every empty level


class GradedSemigroup:
    """Sub-semigroup of Z^d x N generated by finitely many (vector, degree).

    The levels are filled bottom-up, each level once, as the union of
    S_{n-deg} + v over the generators (v, deg).  The degree-first Hermite
    basis of the group the generators span is a row (m, w), m the gcd of
    the degrees, over a basis B of L, the group's degree-zero part.  So a
    point of level n is (n/m) w + c . B for integer coordinates c, each
    generator moves c by a vector solved once, and a level is stored as
    bitsets in c (see ``_Level``).  Only a window of the last max(deg)
    levels is kept, so counting up to a horizon needs memory for a few
    levels, not all of them.  ``level(n)`` reads the points of level n off
    the window as a frozenset of tuples, and ``level_sizes`` streams the
    counts; a request ahead of the window continues the fill, one below it
    restarts the fill from level 1.  Nothing is memoized: the library asks
    for each level once.

    ``point_budget`` caps the window points, and the window's bitsets at 64
    positions per budgeted point; going over either raises ``MemoryError``.
    Entries must be integers, as in ``hermite_basis``, and the point
    dimension goes by the package's integer rule.  The object is not
    thread-safe.
    """

    def __init__(self, point_dim: int, generators: Iterable[tuple],
                 point_budget: int = DEFAULT_POINT_BUDGET):
        self.point_dim = point_dim = _integer(point_dim, "point dimension", 0)
        self.point_budget = point_budget
        rows = []
        for vec, deg in generators:
            rows.append((deg, *vec))
            if len(rows[-1]) != point_dim + 1:
                raise ValueError("generator point has wrong dimension")
            if deg < 0:
                raise ValueError("negative degree")
        # degree first, so the first Hermite row is (m, w) once a degree is
        # positive and the rows of degree 0 are the basis B of L
        self._group = hermite_basis(rows, point_dim + 1)
        self.generators = tuple(sorted((tuple(map(int, r[1:])), int(r[0])) for r in rows))
        self._basis = tuple(row[1:] for row in self._group.basis if row[0] == 0)
        # a generator's coordinates in the group basis, by a triangular
        # solve on the echelon pivots; past (m, w) they are its move
        # (first, offset) in B, with first = 0 when rank(L) = 0 and
        # offset = () when the move shifts no key
        group = self._group.basis
        pivots = [next(i for i, x in enumerate(row) if x) for row in group]
        moves = []
        for v, deg in self.generators:
            vec, coords = (deg,) + v, []
            for row, p in zip(group, pivots):
                coords.append(vec[p] // row[p])
                vec = tuple(a - coords[-1] * b for a, b in zip(vec, row))
            first, *offset = coords[len(group) - len(self._basis):] or [0]
            moves.append((deg, first, tuple(offset) if any(offset) else ()))
        # by degree, each degree's moves in generator order
        self._moves = tuple(sorted(moves, key=lambda move: move[0]))
        self._span = max([1, *(deg for deg, _, _ in moves)])
        self._restart_fill()

    # -- basic structure ----------------------------------------------------

    def strongly_nonnegative(self) -> bool:
        """True iff the cone meets the degree-zero boundary only at 0, that
        is, iff no generator has degree zero."""
        return all(deg >= 1 for _, deg in self.generators)

    def level(self, n: int) -> frozenset:
        """The level set S_n as a frozenset of integer tuples."""
        n = _integer(n, "level")
        return self._points(n, self._fill(n)) if n > 0 else frozenset()

    def level_sizes(self, n_max: int) -> Iterator[tuple[int, int]]:
        """(n, #S_n) for n = 1 .. n_max, streamed; ``n_max`` is checked
        before the first level."""
        n_max = _integer(n_max, "horizon")
        return ((n, self._fill(n).count) for n in range(1, n_max + 1))

    # -- the fill window ----------------------------------------------------

    def _restart_fill(self) -> None:
        # slot n % span holds level n for the last span levels; level 0 is
        # the origin (so a generator of degree n lands in S_n) and the
        # levels below 0 are empty
        origin_key = (0,) * max(len(self._basis) - 1, 0)
        self._window = [_EMPTY] * self._span
        self._window[0] = _Level(0, {origin_key: 1}, 1, 1)
        self._window_points = self._window_positions = 1
        self._top = 0

    def _fill(self, n: int) -> _Level:
        """Level n >= 1, filled through the window: level k is the union of
        the shifted source levels S_{k-deg} + v, one loop per level."""
        if n <= self._top - self._span:
            self._restart_fill()
        moves = self._moves
        if moves and moves[0][0] == 0:
            raise ValueError("level enumeration needs strictly positive degrees")
        window, span = self._window, self._span
        limit = 64 * self.point_budget
        while self._top < n:
            k = self._top + 1
            # (first coordinate of bit 0, key offset, source level) of each
            # translate, with the sums of the cheap width bound
            parts = []
            low = None
            starts = keys = positions = 0
            for deg, first, offset in moves:
                prev = window[(k - deg) % span]
                if prev.count:
                    start = prev.low + first
                    if low is None or start < low:
                        low = start
                    parts.append((start, offset, prev))
                    starts += start * len(prev.rows)
                    keys += len(prev.rows)
                    positions += prev.positions
            if parts:
                # each shifted row spans its shift plus its length; rows
                # meeting under one key only overlap, so the sum bounds
                # the new level from above
                if self._window_positions + starts - low * keys + positions > limit:
                    self._check_width(parts, low)
                rows: dict[tuple, int] = {}
                for start, offset, prev in parts:
                    shift = start - low
                    for key, mask in prev.rows.items():
                        if offset:
                            key = tuple(map(add, key, offset))
                        rows[key] = rows.get(key, 0) | (mask << shift)
                masks = rows.values()
                new = _Level(low, rows, sum(map(int.bit_count, masks)),
                             sum(map(int.bit_length, masks)))
            else:
                new = _EMPTY
            old = window[k % span]
            window[k % span] = new
            self._window_points += new.count - old.count
            self._window_positions += new.positions - old.positions
            self._top = k
            if self._window_points > self.point_budget:
                raise MemoryError("semigroup points exceed the point budget")
        return window[n % span]

    def _check_width(self, parts: list, low: int) -> None:
        """Raise ``MemoryError`` before a fill that would leave the window
        spanning more than 64 positions (one word) per budgeted point."""
        ends: dict[tuple, int] = {}
        for start, offset, prev in parts:
            for key, mask in prev.rows.items():
                key = tuple(map(add, key, offset)) if offset else key
                ends[key] = max(ends.get(key, 0), start - low + mask.bit_length())
        if self._window_positions + sum(ends.values()) > 64 * self.point_budget:
            raise MemoryError("semigroup points exceed the point budget")

    def _points(self, n: int, lvl: _Level) -> frozenset:
        """The points of fill level n, read off the bits by a string scan."""
        if not lvl.count:
            return frozenset()
        m, *w = self._group.basis[0]  # a level has points: every degree is positive
        first, *others = self._basis or [(0,) * self.point_dim]
        start = tuple((n // m) * a + lvl.low * b for a, b in zip(w, first))
        out = []
        for key, mask in lvl.rows.items():
            base = start
            for c, row in zip(key, others):
                base = tuple(a + c * b for a, b in zip(base, row))
            bits = bin(mask)[:1:-1]  # bit i at index i
            i = bits.find("1")
            while i >= 0:
                out.append(tuple(a + i * b for a, b in zip(base, first)))
                i = bits.find("1", i + 1)
        return frozenset(out)


def _degree_index(s: GradedSemigroup) -> int:
    """m(S), the gcd of the generator degrees; the degrees must be positive."""
    if not s.generators:
        raise ValueError("invariants require at least one generator")
    if not s.strongly_nonnegative():
        raise ValueError("invariants require strictly positive degrees")
    # the first pivot of the degree-first Hermite basis of the group
    return s._group.basis[0][0]


def invariants(s: GradedSemigroup) -> SemigroupInvariants:
    """Degree index m, boundary dimension q, boundary index ind, and body.

    m is the gcd of the generator degrees; q is rank(G(S)) - 1; ind is the
    index of the degree-zero part of the generated group inside its
    saturation; the body is the cone slice at height m with its volume
    measured in the saturated boundary lattice.
    """
    m = _degree_index(s)
    d = s.point_dim
    q = s._group.rank - 1
    boundary, ind = saturate_lattice(hermite_basis(s._basis, d))
    slice_points = [tuple(Fraction(m * x, deg) for x in vec) for vec, deg in s.generators]
    polytope = convex_hull(slice_points)
    volume = lattice_volume(polytope, boundary)
    body = OkounkovBody(m, polytope, boundary, volume)
    return SemigroupInvariants(m=m, q=q, ind=ind, body=body)


def truncate(s: GradedSemigroup, p: int) -> GradedSemigroup:
    """The sub-semigroup generated by the level p*m(S) points."""
    height = _integer(p, "truncation level p", 1) * _degree_index(s)
    points = s.level(height)
    if not points:
        raise ValueError(f"level {height} is empty")
    return GradedSemigroup(s.point_dim,
                           generators=[(pt, height) for pt in sorted(points)])
