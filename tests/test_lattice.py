import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedlimits.lattice import (
    IntegerLattice,
    convex_hull,
    hermite_basis,
    lattice_volume,
    saturate_lattice,
    standard_lattice,
    sublattice_index,
)
from oracles import (
    delaunay_volume,
    lattice_contains,
    leibniz_det,
    maximal_minors,
    polytope_contains,
)


def sympy_rank(rows):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(rows).rank() if rows else 0


class TestIntegerLattice:
    def test_accepts_independent_rows(self):
        lat = IntegerLattice(3, ((2, 0, 1), (0, 3, 0)))
        assert lat.rank == 2 and lat.basis == ((2, 0, 1), (0, 3, 0))
        assert IntegerLattice(2, ()).rank == 0

    @pytest.mark.parametrize("basis", [
        ((1, 2), (2, 4)),
        ((0, 0),),
        ((1, 0, 1), (0, 1, 1), (1, 1, 2)),
        ((3, 0), (0, 1), (1, 1)),
    ])
    def test_rejects_dependent_rows(self, basis):
        with pytest.raises(ValueError, match="linearly dependent"):
            IntegerLattice(len(basis[0]), basis)

    @pytest.mark.parametrize("dim, basis", [
        (2, ((1, 0, 0),)),
        (3, ((1, 0, 0), (0, 1))),
        (1, ((),)),
    ])
    def test_rejects_wrong_length(self, dim, basis):
        with pytest.raises(ValueError, match="wrong dimension"):
            IntegerLattice(dim, basis)

    @pytest.mark.parametrize("basis", [((Fraction(3, 2),),), ((1, 0), (0, 0.5))])
    def test_rejects_non_integer_entries(self, basis):
        # refused by the Hermite reduction the constructor ranks them with
        with pytest.raises(ValueError, match="non-integer"):
            IntegerLattice(len(basis[0]), basis)


class TestHermite:
    def test_identity_basis(self):
        assert hermite_basis([(1, 0), (0, 1)]).basis == ((1, 0), (0, 1))

    def test_hand_reduction(self):
        lat = hermite_basis([(0, 2), (2, 2)])
        assert lat.basis == ((2, 0), (0, 2))
        # membership cross-check of the reduction
        assert lattice_contains(lat, (2, 2)) and lattice_contains(lat, (0, 2))
        assert not lattice_contains(lat, (1, 0))

    def test_single_vector(self):
        assert hermite_basis([(3, 1)]).basis == ((3, 1),)

    def test_empty_input(self):
        assert hermite_basis([], ambient_dim=3).rank == 0

    @pytest.mark.parametrize("vecs", [[(1.5, 0)], [(Fraction(3, 2), 0)]])
    def test_rejects_non_integer_entries(self, vecs):
        # int() would truncate both to the basis ((1, 0),)
        with pytest.raises(ValueError, match="non-integer"):
            hermite_basis(vecs)

    def test_accepts_integral_fractions(self):
        assert hermite_basis([(Fraction(4, 2), 0)]).basis == ((2, 0),)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(40):
            dim = rng.randint(1, 4)
            vecs = [tuple(rng.randint(-5, 5) for _ in range(dim))
                    for _ in range(rng.randint(1, 5))]
            once = hermite_basis(vecs)
            again = hermite_basis(once.basis, dim)
            assert once.basis == again.basis

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-6, 6)] * n), max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_rank_matches_rational_rank(self, vecs):
        # hermite_basis skips the independence check of IntegerLattice, so
        # its rows must be independent by construction
        lat = hermite_basis(vecs, len(vecs[0]) if vecs else 2)
        assert lat.rank == sympy_rank(vecs)
        assert IntegerLattice(lat.ambient_dim, lat.basis) == lat

    def test_span_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form
        rng = random.Random(11)
        for _ in range(30):
            dim = rng.randint(1, 4)
            vecs = [tuple(rng.randint(-6, 6) for _ in range(dim))
                    for _ in range(rng.randint(1, 5))]
            mine = hermite_basis(vecs)
            mat = sympy.Matrix(list(zip(*vecs)))  # columns = vectors
            if all(all(x == 0 for x in v) for v in vecs):
                continue
            theirs = hermite_normal_form(mat)
            their_basis = [tuple(int(x) for x in theirs.col(j))
                           for j in range(theirs.cols)]
            their_basis = [v for v in their_basis if any(v)]
            assert hermite_basis(their_basis or [], dim).basis == mine.basis


class TestIndex:
    def test_doubled_axis(self):
        assert sublattice_index(standard_lattice(2), hermite_basis([(2, 0), (0, 1)])) == 2

    def test_equal_lattices(self):
        z2 = standard_lattice(2)
        assert sublattice_index(z2, z2) == 1

    def test_rank_one_in_plane(self):
        sup = hermite_basis([(1, 0)], 2)
        sub = hermite_basis([(3, 0)], 2)
        assert sublattice_index(sup, sub) == 3

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="infinite index"):
            sublattice_index(standard_lattice(2), hermite_basis([(1, 0)], 2))

    def test_not_contained(self):
        sup = hermite_basis([(2, 0), (0, 2)])
        with pytest.raises(ValueError, match="not a sublattice"):
            sublattice_index(sup, standard_lattice(2))

    def test_tower_multiplicativity(self):
        rng = random.Random(3)
        for _ in range(25):
            a = rng.randint(1, 4)
            b = a * rng.randint(1, 4)
            top = standard_lattice(2)
            mid = hermite_basis([(a, 0), (0, 1)])
            bot = hermite_basis([(b, 0), (0, rng.randint(1, 3))])
            assert (sublattice_index(top, mid) * sublattice_index(mid, bot)
                    == sublattice_index(top, bot))

    def test_saturation_index_agrees_with_smith(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form
        rng = random.Random(5)
        for _ in range(25):
            dim = rng.randint(1, 4)
            vecs = [tuple(rng.randint(-4, 4) for _ in range(dim))
                    for _ in range(rng.randint(1, dim))]
            lat = hermite_basis(vecs, dim)
            if lat.rank == 0:
                continue
            sat, idx = saturate_lattice(lat)
            assert sublattice_index(sat, lat) == idx
            snf = smith_normal_form(sympy.Matrix(list(lat.basis)))
            divisors = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
            prod = 1
            for d in divisors:
                if d:
                    prod *= d
            assert prod == idx

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_saturation_matches_minor_oracle(self, vecs):
        # independent of the library's eliminations: every check is a gcd of
        # Leibniz minors
        n = len(vecs[0])
        lat = hermite_basis(vecs, n)
        sat, idx = saturate_lattice(lat)
        if lat.rank == 0:
            assert (sat, idx) == (lat, 1)
            return
        assert sat.rank == lat.rank
        assert math.gcd(*maximal_minors(sat.basis, n)) == 1
        for v in lat.basis:
            # v lies in the rational span of sat, and sat is saturated
            assert not any(maximal_minors(sat.basis + (v,), n))
        assert idx == math.gcd(*maximal_minors(lat.basis, n))


class TestHull:
    def test_drops_interior_point(self):
        poly = convex_hull([(0, 0), (1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 4))])
        assert poly.vertices == ((Fraction(0), Fraction(0)),
                                 (Fraction(0), Fraction(1)),
                                 (Fraction(1), Fraction(0)))
        assert poly.affine_dim == 2

    def test_segment(self):
        poly = convex_hull([(0,), (3,)])
        assert poly.affine_dim == 1
        assert poly.vertices == ((Fraction(0),), (Fraction(3),))

    def test_square(self):
        poly = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert poly.affine_dim == 2
        assert len(poly.vertices) == 4

    def test_point_on_edge_is_not_a_vertex(self):
        poly = convex_hull([(0, 0), (2, 0), (1, 0), (0, 2)])
        assert (Fraction(1), Fraction(0)) not in poly.vertices
        assert len(poly.vertices) == 3

    def test_collinear_and_single(self):
        assert convex_hull([(1, 1), (1, 1)]).affine_dim == 0
        line = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert line.affine_dim == 1
        assert len(line.vertices) == 2

    def test_three_dim_cube(self):
        pts = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        pts += [(1, 1, 1), (1, 1, 0), (2, 1, 1)]  # interior and face points
        poly = convex_hull(pts)
        assert len(poly.vertices) == 8
        assert lattice_volume(poly, standard_lattice(3)) == 8

    def test_contains(self):
        poly = convex_hull([(0, 0), (4, 0), (0, 4)])
        assert polytope_contains(poly, (1, 1))
        assert polytope_contains(poly, (2, 2))  # on the boundary
        assert not polytope_contains(poly, (3, 3))

    def test_vertices_match_qhull(self):
        # lattice point clouds are full of collinear/coplanar degeneracies;
        # the exact vertex set must still agree with Qhull's
        scipy_spatial = pytest.importorskip("scipy.spatial")
        import numpy as np
        rng = random.Random(99)
        trials = 0
        while trials < 60:
            q = rng.randint(2, 4)
            pts = sorted({tuple(rng.randint(0, 4) for _ in range(q))
                          for _ in range(rng.randint(q + 2, 14))})
            diffs = [tuple(b - a for a, b in zip(pts[0], p)) for p in pts[1:]]
            if sympy_rank(diffs) < q:
                continue
            trials += 1
            mine = {tuple(int(x) for x in v) for v in convex_hull(pts).vertices}
            hull = scipy_spatial.ConvexHull(np.array(pts, dtype=float))
            theirs = {tuple(int(round(x)) for x in hull.points[i])
                      for i in hull.vertices}
            assert mine == theirs, pts


class TestVolume:
    def test_segment_in_standard_lattice(self):
        seg = convex_hull([(0, 1), (3, 1)])
        assert lattice_volume(seg, hermite_basis([(1, 0)], 2)) == 3

    def test_segment_in_coarse_lattice(self):
        seg = convex_hull([(0, 1), (3, 1)])
        assert lattice_volume(seg, hermite_basis([(3, 0)], 2)) == 1

    def test_unit_triangle(self):
        tri = convex_hull([(0, 0), (1, 0), (0, 1)])
        assert lattice_volume(tri, standard_lattice(2)) == Fraction(1, 2)

    def test_point_convention(self):
        pt = convex_hull([(5, 5)])
        assert lattice_volume(pt, hermite_basis([], 2)) == 1

    def test_dimension_drop_is_zero(self):
        seg = convex_hull([(0, 0), (1, 0)])
        assert lattice_volume(seg, standard_lattice(2)) == 0

    def test_span_mismatch(self):
        tri = convex_hull([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError, match="span mismatch"):
            lattice_volume(tri, hermite_basis([(1, 0)], 2))

    def test_volume_matches_delaunay_oracle(self):
        # rational vertices, like the Okounkov slice points m * v / deg
        pytest.importorskip("scipy.spatial")
        rng = random.Random(13)
        for _ in range(25):
            q = rng.randint(2, 3)
            pts = sorted({tuple(Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(q))
                          for _ in range(rng.randint(q + 2, 10))})
            if sympy_rank([tuple(b - a for a, b in zip(pts[0], p)) for p in pts[1:]]) < q:
                continue
            poly = convex_hull(pts)
            mine = lattice_volume(poly, standard_lattice(q))
            assert mine == delaunay_volume(pts, q)

    def test_unimodular_invariance(self):
        rng = random.Random(17)
        base_pts = [(0, 0), (3, 0), (0, 2), (2, 2)]
        base_lat = hermite_basis([(1, 0), (0, 2)])
        reference = lattice_volume(convex_hull(base_pts), base_lat)
        for _ in range(20):
            # random SL_2(Z) as a product of shears
            m = [[1, 0], [0, 1]]
            for _ in range(4):
                k = rng.randint(-3, 3)
                if rng.random() < 0.5:
                    m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
                else:
                    m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]

            def apply(v):
                return (m[0][0] * v[0] + m[0][1] * v[1],
                        m[1][0] * v[0] + m[1][1] * v[1])

            pts = [apply(p) for p in base_pts]
            lat = hermite_basis([apply(b) for b in base_lat.basis])
            assert lattice_volume(convex_hull(pts), lat) == reference


class TestDeterminant:
    """The |det| inside ``lattice_volume``: the simplex on the origin and the
    rows of a q x q matrix has volume |det| / q! in Z^q, and 0 below full
    rank, where the hull drops a dimension."""

    @staticmethod
    def simplex_volume(mat):
        q = len(mat)
        return lattice_volume(convex_hull([(0,) * q] + [tuple(r) for r in mat]),
                              standard_lattice(q))

    def test_empty_matrix(self):
        assert self.simplex_volume([]) == 1 == leibniz_det([])

    @pytest.mark.parametrize("mat", [
        [[0]],
        [[1, 2], [2, 4]],
        [[Fraction(1, 2), 1, 0], [0, 0, 0], [3, Fraction(-2, 3), 5]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    ])
    def test_singular(self, mat):
        assert self.simplex_volume(mat) == 0 == leibniz_det(mat)

    @given(st.integers(1, 4).flatmap(lambda q: st.tuples(
        st.lists(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=q, max_size=q),
                 min_size=q, max_size=q),
        st.lists(st.fractions(-2, 2, max_denominator=3), min_size=q, max_size=q),
        st.booleans())))
    @settings(max_examples=200, deadline=None)
    def test_matches_leibniz(self, case):
        mat, coeffs, singular = case
        if singular:
            # replace the last row by a rational combination of the others
            mat[-1] = [sum((c * row[j] for c, row in zip(coeffs, mat[:-1])), Fraction(0))
                       for j in range(len(mat))]
        volume = self.simplex_volume(mat)
        assert volume == abs(leibniz_det(mat)) / math.factorial(len(mat))
        if singular:
            assert volume == 0
