"""Exact integer/rational linear algebra and convex geometry.

Integer lattices with canonical (Hermite-reduced) bases, lattice indices and
saturations, exact rational convex hulls, and lattice-normalized polytope
volumes.  Every predicate and every volume is computed over ``Fraction``;
floating point never enters a decision.  Intended for small dimensions
(hulls are practical up to ambient dimension ~6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple  # integer entries
Point = tuple   # Fraction entries


def frac_point(p: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in p)


def vec_sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# rational Gaussian elimination
# ---------------------------------------------------------------------------

def _rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form over Q.  Returns (rows, pivot_columns,
    pivot_product): the product of the pivots divided out, negated once per
    row swap, so it is the determinant of a square input of full rank."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], [], Fraction(1)
    ncols = len(mat[0])
    pivots: list[int] = []
    product = Fraction(1)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
            product = -product
        pv = mat[r][c]
        product *= pv
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots, product


def rational_rank(rows: Iterable[Sequence]) -> int:
    return len(_rref(rows)[0])


def rational_combination(basis: Sequence[Sequence], target: Sequence):
    """Coefficients c with sum(c[i] * basis[i]) == target, or None.

    The combination is unique when the basis rows are independent; free
    coefficients (dependent basis) are set to zero.
    """
    m = len(basis)
    if m == 0:
        return () if all(x == 0 for x in target) else None
    n = len(target)
    aug = [[Fraction(basis[j][i]) for j in range(m)] + [Fraction(target[i])]
           for i in range(n)]
    rref, pivots, _ = _rref(aug)
    if m in pivots:
        return None  # inconsistent system
    coeffs = [Fraction(0)] * m
    for row, col in zip(rref, pivots):
        coeffs[col] = row[m]
    return tuple(coeffs)


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix: the pivot product of its ``_rref``."""
    reduced, _, product = _rref(rows)
    return product if len(reduced) == len(rows) else Fraction(0)


def _kernel_vector(rows: Sequence[Sequence]) -> tuple[Fraction, ...]:
    """A nonzero kernel vector of a matrix with a one-dimensional kernel."""
    ncols = len(rows[0])
    rref, pivots, _ = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        raise ValueError("kernel is not one-dimensional")
    j = free[0]
    vec = [Fraction(0)] * ncols
    vec[j] = Fraction(1)
    for row, col in zip(rref, pivots):
        vec[col] = -row[j]
    return tuple(vec)


# ---------------------------------------------------------------------------
# integer lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerLattice:
    """Sublattice of Z^n spanned by independent integer row vectors."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong dimension")
        if self.basis and rational_rank(self.basis) != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")

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
    rank-0 lattice (``ambient_dim`` is then required).
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
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


def sublattice_index(sup: IntegerLattice, sub: IntegerLattice) -> int:
    """Group index [sup : sub] for a finite-index sublattice.

    Computed as |det| of the sub basis written in sup coordinates.
    Raises on a rank mismatch ("infinite index") and on vectors outside
    sup ("not a sublattice").
    """
    if sup.ambient_dim != sub.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if sup.rank != sub.rank:
        raise ValueError("infinite index: lattice ranks differ")
    if sub.rank == 0:
        return 1
    coords = []
    for v in sub.basis:
        c = rational_combination(sup.basis, v)
        if c is None or any(x.denominator != 1 for x in c):
            raise ValueError("not a sublattice")
        coords.append(c)
    d = det(coords)
    if d == 0:
        raise ValueError("not a sublattice: dependent coordinates")
    return abs(int(d))


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

@dataclass(frozen=True)
class RationalPolytope:
    """V-polytope with exact rational vertices (the extreme points only).

    affine_dim is -1 for the empty polytope and 0 for a single point.
    """

    ambient_dim: int
    vertices: tuple[Point, ...]
    affine_dim: int


def _affine_frame(pts: Sequence[Point]):
    """Base point, frame difference vectors, and their point indices."""
    v0 = pts[0]
    frame: list[tuple] = []
    frame_idx: list[int] = []
    for i, p in enumerate(pts):
        if i == 0:
            continue
        d = vec_sub(p, v0)
        if rational_rank(frame + [d]) > len(frame):
            frame.append(d)
            frame_idx.append(i)
    return v0, frame, frame_idx


def _facet(pts: Sequence[Point], idxs: Sequence[int], interior: Point):
    """Oriented supporting hyperplane through the given affinely independent
    points; the interior reference point lies strictly on the <= side."""
    sub = [pts[i] for i in idxs]
    rows = [vec_sub(p, sub[0]) for p in sub[1:]]
    normal = _kernel_vector(rows) if rows else (Fraction(1),)
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
    v0, frame, frame_idx = _affine_frame(pts)
    q = len(frame)
    if q == 0:
        return RationalPolytope(dim, (v0,), 0)
    coords = [rational_combination(frame, vec_sub(p, v0)) for p in pts]
    if q == 1:
        lo = min(range(len(pts)), key=lambda i: coords[i][0])
        hi = max(range(len(pts)), key=lambda i: coords[i][0])
        verts = tuple(sorted({pts[lo], pts[hi]}))
        return RationalPolytope(dim, verts, 1)
    facets = _simplicial_hull(coords, [0] + frame_idx)
    corner_idxs = sorted(set().union(*(f[0] for f in facets.values())))
    verts = []
    for i in corner_idxs:
        normals = [a for (vs, a, _) in facets.values() if i in vs]
        if rational_rank(normals) == q:
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
        mat = [vec_sub(pts[i], apex) for i in sorted(verts)]
        total += abs(det(mat))
    return total / math.factorial(q)


def lattice_volume(polytope: RationalPolytope, lat: IntegerLattice) -> Fraction:
    """Volume of a polytope measured in lattice units.

    The polytope's affine span must be a translate of the real span of the
    lattice; vertices are rewritten in lattice-basis coordinates and the
    Euclidean volume is taken there (unimodular-invariant).  Empty or
    dimension-dropped polytopes have volume 0; a point has volume 1.
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
    coords = []
    for vtx in polytope.vertices:
        c = rational_combination(lat.basis, vec_sub(vtx, base))
        if c is None:
            raise ValueError("span mismatch: vertex outside the lattice span")
        coords.append(c)
    q = lat.rank
    if q == 1:
        vals = [c[0] for c in coords]
        return max(vals) - min(vals)
    v0, frame, frame_idx = _affine_frame(coords)
    if len(frame) < q:
        return Fraction(0)
    facets = _simplicial_hull(coords, [0] + frame_idx)
    return _fan_volume(coords, facets, q)

