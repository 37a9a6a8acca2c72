"""Exact integer/rational linear algebra and convex geometry.

Integer lattices with canonical (Hermite-reduced) bases, lattice indices and
saturations, exact rational convex hulls, and lattice-normalized polytope
volumes.  One integer row reduction, ``hermite_basis``, serves every rank,
kernel, index and determinant; a rational row is first scaled to integers
by the lcm of its denominators, which keeps its span and its kernel.  Points
keep ``Fraction`` entries and floating point never enters a decision.
Intended for small dimensions (hulls are practical up to ambient dimension
~6).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import _Value

Vector = tuple  # integer entries
Point = tuple   # Fraction entries


def frac_point(p: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in p)


def vec_sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def _integral(row: Sequence) -> tuple[tuple[int, ...], int]:
    """The rational row times the lcm of its denominators, and that factor.
    Scaling a row keeps the span and the kernel of any matrix it is in."""
    scale = math.lcm(*(x.denominator for x in row))
    return tuple(int(x * scale) for x in row), scale


# ---------------------------------------------------------------------------
# integer lattices
# ---------------------------------------------------------------------------

class IntegerLattice(_Value):
    """Sublattice of Z^n spanned by independent integer row vectors."""

    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: tuple[Vector, ...]):
        if any(len(v) != ambient_dim for v in basis):
            raise ValueError("basis vector has wrong dimension")
        if hermite_basis(basis, ambient_dim).rank != len(basis):
            raise ValueError("basis vectors are linearly dependent")
        super().__init__(ambient_dim, basis)

    @classmethod
    def _echelon(cls, ambient_dim: int, basis: tuple[Vector, ...]) -> "IntegerLattice":
        """The lattice of rows already known to be independent and of length
        ``ambient_dim`` (a Hermite reduction's nonzero echelon rows): not
        re-checked."""
        lat = object.__new__(cls)
        object.__setattr__(lat, "ambient_dim", ambient_dim)
        object.__setattr__(lat, "basis", basis)
        return lat

    @property
    def rank(self) -> int:
        return len(self.basis)


def standard_lattice(n: int) -> IntegerLattice:
    basis = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return IntegerLattice(n, basis)


def hermite_basis(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> IntegerLattice:
    """Canonical basis of the integer span of ``vectors``.

    Row-style Hermite reduction: echelon shape, positive pivots, entries
    above each pivot reduced into [0, pivot).  The empty input yields the
    rank-0 lattice (``ambient_dim`` is then required).  Entries must be
    integers; an integral ``Fraction`` or float counts as one.
    """
    given = [tuple(v) for v in vectors]
    vecs = [tuple(map(int, v)) for v in given]
    if vecs != given:
        raise ValueError("vector has a non-integer entry")
    if ambient_dim is None:
        if not vecs:
            raise ValueError("ambient_dim is required for empty input")
        ambient_dim = len(vecs[0])
    if any(len(v) != ambient_dim for v in vecs):
        raise ValueError("mixed vector dimensions")
    rows = [list(v) for v in vecs if any(v)]
    pivot = 0
    for col in range(ambient_dim):
        if pivot == len(rows):
            break
        # gcd elimination below the pivot row in this column
        while True:
            live = [i for i in range(pivot, len(rows)) if rows[i][col] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(rows[i][col]))
            rows[pivot], rows[i0] = rows[i0], rows[pivot]
            p = rows[pivot][col]
            clean = True
            for i in range(pivot + 1, len(rows)):
                if rows[i][col] != 0:
                    q = rows[i][col] // p
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot])]
                    if rows[i][col] != 0:
                        clean = False
            if clean:
                break
        if pivot < len(rows) and rows[pivot][col] != 0:
            if rows[pivot][col] < 0:
                rows[pivot] = [-a for a in rows[pivot]]
            p = rows[pivot][col]
            for i in range(pivot):
                q = rows[i][col] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot])]
            pivot += 1
    return IntegerLattice._echelon(ambient_dim, tuple(tuple(r) for r in rows[:pivot]))


def _pivots(echelon: IntegerLattice) -> list[tuple[int, int]]:
    """(column, value) of the first nonzero entry of each row of a Hermite
    basis.  The columns depend only on the rational span."""
    return [next((c, x) for c, x in enumerate(row) if x) for row in echelon.basis]


def _covolume(echelon: IntegerLattice) -> int:
    """The product of the pivots of a Hermite basis: |det| of a square one,
    and the covolume of its projection onto the pivot columns."""
    return math.prod(x for _, x in _pivots(echelon))


def sublattice_index(sup: IntegerLattice, sub: IntegerLattice) -> int:
    """Group index [sup : sub] for a finite-index sublattice.

    sub lies in sup when adding its rows leaves the Hermite basis of sup
    unchanged.  Equal ranks then give equal rational spans, so both Hermite
    bases have the same pivot columns and the index is the ratio of their
    pivot products.  Raises on a rank mismatch ("infinite index") and on
    vectors outside sup ("not a sublattice").
    """
    if sup.ambient_dim != sub.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if sup.rank != sub.rank:
        raise ValueError("infinite index: lattice ranks differ")
    n = sup.ambient_dim
    outer = hermite_basis(sup.basis, n)
    if hermite_basis(sup.basis + sub.basis, n) != outer:
        raise ValueError("not a sublattice")
    return _covolume(hermite_basis(sub.basis, n)) // _covolume(outer)


def _integer_kernel(rows: Sequence[Sequence[int]], width: int) -> list[Vector]:
    """A basis of the integer vectors of length ``width`` orthogonal to every
    row: the tails of the Hermite rows of [rows^T | I] that start with
    len(rows) zeros."""
    k = len(rows)
    aug = [tuple(r[i] for r in rows) + tuple(int(i == j) for j in range(width))
           for i in range(width)]
    return [v[k:] for v in hermite_basis(aug, k + width).basis if not any(v[:k])]


def saturate_lattice(lat: IntegerLattice) -> tuple[IntegerLattice, int]:
    """Saturation (rational span intersected with Z^n) and its index over lat.

    The saturation is the integer kernel of the integer kernel of the basis.
    """
    n = lat.ambient_dim
    sat = hermite_basis(_integer_kernel(_integer_kernel(lat.basis, n), n), n)
    return sat, sublattice_index(sat, lat)


# ---------------------------------------------------------------------------
# rational polytopes
# ---------------------------------------------------------------------------

class RationalPolytope(NamedTuple):
    """V-polytope with exact rational vertices (the extreme points only).

    affine_dim is -1 for the empty polytope and 0 for a single point.
    """

    ambient_dim: int
    vertices: tuple[Point, ...]
    affine_dim: int


def _affine_frame(pts: Sequence[Point]) -> tuple[list[int], IntegerLattice]:
    """Indices of points that with pts[0] span the affine hull of pts, and
    the Hermite basis of their integral differences from pts[0]."""
    dim = len(pts[0])
    span = hermite_basis((), dim)
    frame_idx: list[int] = []
    for i in range(1, len(pts)):
        if span.rank == dim:
            break
        grown = hermite_basis(span.basis + (_integral(vec_sub(pts[i], pts[0]))[0],), dim)
        if grown.rank > span.rank:
            span = grown
            frame_idx.append(i)
    return frame_idx, span


def _project(pts: Sequence[Point], echelon: IntegerLattice) -> list[Point]:
    """The points restricted to the pivot columns of a Hermite basis: a map
    injective on every translate of its rational span."""
    cols = [c for c, _ in _pivots(echelon)]
    return [tuple(p[c] for c in cols) for p in pts]


def _facet(pts: Sequence[Point], idxs: Sequence[int], interior: Point):
    """Oriented supporting hyperplane through the given affinely independent
    points; the interior reference point lies strictly on the <= side."""
    sub = [pts[i] for i in idxs]
    rows = [_integral(vec_sub(p, sub[0]))[0] for p in sub[1:]]
    kernel = _integer_kernel(rows, len(sub[0]))
    if len(kernel) != 1:
        raise ValueError("kernel is not one-dimensional")
    normal = kernel[0]
    b = dot(normal, sub[0])
    side = dot(normal, interior)
    if side > b:
        normal = tuple(-x for x in normal)
        b = -b
    elif side == b:
        raise ValueError("degenerate facet: interior point on hyperplane")
    return frozenset(idxs), normal, b


def _simplicial_hull(pts: Sequence[Point], init: Sequence[int]):
    """Incremental simplicial convex hull of a full-dimensional point set.

    ``init`` holds q+1 affinely independent point indices.  Returns the
    facet dict id -> (vertex index frozenset, normal, offset).  Facets
    triangulate the boundary; coplanar facets may share a hyperplane.
    """
    q = len(pts[0])
    interior = tuple(sum(pts[i][c] for i in init) / Fraction(len(init))
                     for c in range(q))
    facets: dict[int, tuple[frozenset, tuple, Fraction]] = {}
    next_id = 0
    for leave in init:
        fidx = [i for i in init if i != leave]
        facets[next_id] = _facet(pts, fidx, interior)
        next_id += 1
    for p_idx in sorted(set(range(len(pts))) - set(init)):
        p = pts[p_idx]
        visible = [fid for fid, (_, a, b) in facets.items() if dot(a, p) > b]
        if not visible:
            continue
        ridge_hits: dict[frozenset, int] = {}
        for fid in visible:
            verts = facets[fid][0]
            for leave in verts:
                ridge = verts - {leave}
                ridge_hits[ridge] = ridge_hits.get(ridge, 0) + 1
        for fid in visible:
            del facets[fid]
        for ridge, hits in sorted(ridge_hits.items(), key=lambda kv: sorted(kv[0])):
            if hits == 1:
                facets[next_id] = _facet(pts, sorted(ridge) + [p_idx], interior)
                next_id += 1
    return facets


def convex_hull(points: Iterable[Sequence]) -> RationalPolytope:
    """Convex hull with exact rational predicates.

    The vertex list is exactly the set of extreme points, sorted.  Degenerate
    inputs (collinear, repeated, lower-dimensional) are handled; they simply
    produce a polytope of smaller affine dimension.
    """
    pts = sorted({frac_point(p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("mixed point dimensions")
    frame_idx, span = _affine_frame(pts)
    q = len(frame_idx)
    if q == 0:
        return RationalPolytope(dim, (pts[0],), 0)
    coords = _project(pts, span)
    facets = _simplicial_hull(coords, [0] + frame_idx)
    corner_idxs = sorted(set().union(*(f[0] for f in facets.values())))
    verts = []
    for i in corner_idxs:
        normals = [a for (vs, a, _) in facets.values() if i in vs]
        if hermite_basis(normals, q).rank == q:
            verts.append(pts[i])
    return RationalPolytope(dim, tuple(sorted(verts)), q)


def _fan_volume(pts: Sequence[Point], facets, q: int) -> Fraction:
    """Volume of a full-dimensional hull as a fan of simplices from the
    lexicographically smallest hull corner."""
    corners = sorted(set().union(*(f[0] for f in facets.values())))
    apex_idx = min(corners, key=lambda i: pts[i])
    apex = pts[apex_idx]
    total = Fraction(0)
    for verts, a, b in facets.values():
        if dot(a, apex) == b:
            continue
        # |det| of the rows: the Hermite pivot product of the integral rows
        # over their scale factors; a facet off the apex gives full rank
        rows = [_integral(vec_sub(pts[i], apex)) for i in sorted(verts)]
        echelon = hermite_basis([row for row, _ in rows], q)
        total += Fraction(_covolume(echelon), math.prod(scale for _, scale in rows))
    return total / math.factorial(q)


def lattice_volume(polytope: RationalPolytope, lat: IntegerLattice) -> Fraction:
    """Volume of a polytope measured in lattice units.

    The polytope's affine span must be a translate of the real span of the
    lattice.  The vertices are projected onto the pivot columns of the
    lattice's Hermite basis, where the lattice has covolume the product of
    its pivots; the volume is the Euclidean volume there over that product.
    Empty or dimension-dropped polytopes have volume 0; a point has volume 1.
    """
    if polytope.affine_dim == -1:
        return Fraction(0)
    if polytope.affine_dim < lat.rank:
        return Fraction(0)
    if polytope.affine_dim > lat.rank:
        raise ValueError("span mismatch: polytope affine dimension exceeds lattice rank")
    if polytope.affine_dim == 0:
        return Fraction(1)
    base = polytope.vertices[0]
    echelon = hermite_basis(lat.basis, lat.ambient_dim)
    diffs = [_integral(vec_sub(vtx, base))[0] for vtx in polytope.vertices]
    if hermite_basis(echelon.basis + tuple(diffs), lat.ambient_dim).rank > lat.rank:
        raise ValueError("span mismatch: vertex outside the lattice span")
    q = lat.rank
    coords = _project(polytope.vertices, echelon)
    frame_idx, _ = _affine_frame(coords)
    if len(frame_idx) < q:
        return Fraction(0)
    facets = _simplicial_hull(coords, [0] + frame_idx)
    return _fan_volume(coords, facets, q) / _covolume(echelon)

