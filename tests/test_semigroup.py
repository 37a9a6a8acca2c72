import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedlimits.semigroup import GradedSemigroup, invariants, truncate
from oracles import (
    brute_levels,
    check_level_containments,
    empirical_limit,
    invariants_by_degree_kernel,
    polytope_contains,
)

# predicted limits verified against brute-force level counts below
FIXTURES = {
    "affine": ([((0,), 1), ((1,), 1)], Fraction(1)),
    "gap3": ([((0,), 1), ((3,), 1)], Fraction(1)),
    "even": ([((0,), 2), ((2,), 2)], Fraction(1)),
    "halfstep": ([((0,), 1), ((1,), 2)], Fraction(1, 2)),
    "ray": ([((0,), 2)], Fraction(1)),
}


def make(name):
    gens, expected = FIXTURES[name]
    return GradedSemigroup(1, generators=gens), expected


def enumerate_levels(s: GradedSemigroup, n_max: int) -> dict[int, frozenset]:
    """All level sets S_1 .. S_{n_max}."""
    return {n: s.level(n) for n in range(1, n_max + 1)}


class TestLevels:
    def test_two_generators(self):
        s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 1)])
        assert s.level(2) == {(0,), (1,), (2,)}

    def test_parity_gap(self):
        s = GradedSemigroup(1, generators=[((0,), 2)])
        assert s.level(3) == frozenset()

    def test_halfstep_level_five(self):
        s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 2)])
        assert s.level(5) == {(0,), (1,), (2,)}

    def test_superadditive(self):
        for name in FIXTURES:
            s, _ = make(name)
            assert check_level_containments(enumerate_levels(s, 24)) == []

    def test_containment_check_finds_witness(self):
        # S_1 + S_1 holds (1,) and (2,), neither of which lies in S_2
        levels = {1: {(0,), (1,)}, 2: {(0,)}}
        [(a, b, point)] = check_level_containments(levels)
        assert (a, b) == (1, 1)
        assert point in {(1,), (2,)}

    def test_level_emptiness_pattern(self):
        for name in FIXTURES:
            s, _ = make(name)
            inv = invariants(s)
            for n in range(1, 40):
                if n % inv.m:
                    assert s.level(n) == frozenset()
            assert all(s.level(inv.m * k) for k in range(1, 40 // inv.m))

    def test_levels_inside_dilated_slice(self):
        for name in FIXTURES:
            s, _ = make(name)
            inv = invariants(s)
            body = inv.body
            for k in range(1, 12):
                n = inv.m * k
                scale = Fraction(n, body.slice_height)
                dilated = type(body.polytope)(
                    body.polytope.ambient_dim,
                    tuple(tuple(scale * x for x in v) for v in body.polytope.vertices),
                    body.polytope.affine_dim)
                for pt in s.level(n):
                    assert polytope_contains(dilated, pt)

    def test_point_budget(self):
        s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 1)], point_budget=50)
        with pytest.raises(MemoryError):
            enumerate_levels(s, 100)


    def test_budget_counts_window_not_horizon(self):
        # the levels up to 2000 hold about 10^6 points; the fill window holds
        # at most a few thousand, and only the window counts
        s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 2)], point_budget=10_000)
        assert empirical_limit(s, 2000)[-1] == (2000, Fraction(1001, 2000))

    def test_dense_input_reaches_point_count_first(self):
        # level n holds n + 1 points on n + 1 positions: the point budget,
        # not the width guard, stops the fill
        s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 1)], point_budget=50)
        assert list(s.level_sizes(49))[-1] == (49, 50)
        with pytest.raises(MemoryError, match="point budget"):
            list(s.level_sizes(50))

    def test_width_guard(self):
        # level 1 is {0, 1, 10^9}: a bitset over 10^9 + 1 positions of L = Z,
        # more than 64 per point of the default budget
        gens = [((0,), 1), ((1,), 1), ((10**9,), 1)]
        with pytest.raises(MemoryError, match="point budget"):
            GradedSemigroup(1, generators=gens).level(1)
        with pytest.raises(MemoryError, match="point budget"):
            list(GradedSemigroup(1, generators=gens).level_sizes(1))
        gens[2] = ((10**6,), 1)
        with pytest.raises(MemoryError, match="point budget"):
            GradedSemigroup(1, generators=gens, point_budget=10**4).level(1)
        s = GradedSemigroup(1, generators=gens, point_budget=10**5)
        assert s.level(1) == {(0,), (1,), (10**6,)}

    def test_width_guard_counts_overlapping_rows_once(self):
        # the 200 translates of level 0 would span 20100 positions laid end
        # to end, past 64 * 250; they overlap on one row of 200
        s = GradedSemigroup(1, generators=[((x,), 1) for x in range(200)],
                            point_budget=250)
        assert list(s.level_sizes(1)) == [(1, 200)]

    @pytest.mark.parametrize("gens, budget, sizes", [
        # L has basis (1, 1), (0, 3); the degree-2 move is first -1, key + 1,
        # and the window holds two levels: 90 + 100 points, then 100 + 110
        ([((0, 0), 1), ((1, 1), 1), ((-1, 2), 2)], 200, [(17, 90), (18, 100)]),
        # L = Z^2 with rows along (1, 0): the moves (10^6, 1) and (10^6, 2)
        # start rows 10^6 long on new keys, so level 2 would leave the window
        # spanning about 9 * 10^6 positions on five keys, past 64 * 120000
        ([((0, 0), 1), ((1, 0), 1), ((10**6, 1), 1), ((10**6, 2), 1)], 120_000,
         [(1, 4)]),
    ], ids=["points", "width"])
    def test_budget_with_moved_keys(self, gens, budget, sizes):
        # rank(L) = 2: some move carries a key offset; the fill stops at
        # the same level whether it is asked for by level or by level_sizes
        last, count = sizes[-1]
        assert list(GradedSemigroup(2, gens, budget).level_sizes(last))[-2:] == sizes
        assert len(GradedSemigroup(2, gens, budget).level(last)) == count
        with pytest.raises(MemoryError, match="point budget"):
            list(GradedSemigroup(2, gens, budget).level_sizes(last + 1))
        with pytest.raises(MemoryError, match="point budget"):
            GradedSemigroup(2, gens, budget).level(last + 1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coordinates_past_two_to_63(self, sign):
        # level k is k * w with w = (0, ±2^62): past 2^63 from k = 2 on
        s = GradedSemigroup(2, generators=[((0, sign * 2**62), 1)])
        for k in range(1, 5):
            assert s.level(k) == {(0, sign * k * 2**62)}
        assert list(s.level_sizes(4)) == [(k, 1) for k in range(1, 5)]

    def test_mixed_signs_past_two_to_63(self):
        # level k is {j * (2^62, -2^62) : j = -k, -k + 2, .., k}
        big = 2**62
        s = GradedSemigroup(2, generators=[((big, -big), 1), ((-big, big), 1)])
        for k in range(1, 5):
            assert s.level(k) == {(j * big, -j * big) for j in range(-k, k + 1, 2)}

    def test_non_integer_input_rejected(self):
        # an integral Fraction counts as an integer; anything else is refused
        s = GradedSemigroup(1, generators=[((Fraction(2, 1),), 1), ((0,), Fraction(1))])
        assert s.generators == (((0,), 1), ((2,), 1))
        assert all(type(x) is int for v, deg in s.generators for x in (*v, deg))
        for gens in ([((Fraction(1, 2),), 1), ((1,), 1)], [((0,), 1), ((1,), 1.5)]):
            with pytest.raises(ValueError, match="non-integer"):
                GradedSemigroup(1, generators=gens)


def generator_lists(dim, coords=st.integers(-3, 3)):
    return st.lists(st.tuples(st.tuples(*[coords] * dim), st.integers(1, 3)),
                    min_size=1, max_size=4)


class TestFillOracle:
    """The windowed bitset fill against direct multiset enumeration."""

    HORIZON = 15

    def check(self, data, dim, gens):
        expect = brute_levels(dim, gens, self.HORIZON)
        ns = list(range(1, self.HORIZON + 1))
        sizes = [(n, len(expect[n])) for n in ns]
        assert list(GradedSemigroup(dim, generators=gens).level_sizes(self.HORIZON)) == sizes
        shuffled = data.draw(st.lists(st.sampled_from(ns), max_size=30))
        for order in (ns, ns[::-1], [n for n in shuffled for _ in range(2)]):
            s = GradedSemigroup(dim, generators=gens)
            for n in order:
                assert s.level(n) == expect[n], (gens, n)
            # the fill now sits wherever the requests left it
            assert list(s.level_sizes(self.HORIZON)) == sizes

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_levels_and_sizes(self, data, dim):
        self.check(data, dim, data.draw(generator_lists(dim)))

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_even_sublattice(self, data, dim):
        # every coordinate even: L is a proper sublattice of its saturation
        self.check(data, dim, data.draw(generator_lists(dim, st.integers(-3, 3).map(
            lambda x: 2 * x))))

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_points_on_a_line(self, data, dim):
        # every generator a multiple of one direction: rank(L) <= 1
        w = data.draw(st.tuples(*[st.integers(-3, 3)] * dim))
        gens = [(tuple(c * x for x in w), deg)
                for (c,), deg in data.draw(generator_lists(1))]
        self.check(data, dim, gens)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_large_offsets(self, data, dim):
        # v + deg * t moves S_n by n * t: coordinates near n * 2^40, same L
        t = data.draw(st.tuples(*[st.sampled_from([-2**40, 0, 2**40])] * dim))
        gens = [(tuple(x + deg * c for x, c in zip(v, t)), deg)
                for v, deg in data.draw(generator_lists(dim))]
        self.check(data, dim, gens)

    @pytest.mark.parametrize("dim, gens", [
        (2, [((-1, 2), 1), ((3, -1), 2), ((0, 1), 1)]),                   # L = Z(0, 1)
        (2, [((1, 2), 1), ((2, 4), 2)]),                                  # L = 0
        (3, [((0, 0, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1), ((1, 1, 2), 2)]),  # a plane
        (2, [((-3, 5), 2)]),                                              # a ray, L = 0
        (2, [((-2, -1), 1), ((-1, -3), 2), ((-4, 0), 1), ((-5, -5), 3)]),  # negative entries
    ])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_lower_rank(self, data, dim, gens):
        self.check(data, dim, gens)


class TestInvariants:
    def test_fixture_table(self):
        expect = {
            "affine": (1, 1, 1, Fraction(1)),
            "gap3": (1, 1, 3, Fraction(3)),
            "even": (2, 1, 2, Fraction(2)),
            "halfstep": (1, 1, 1, Fraction(1, 2)),
            "ray": (2, 0, 1, Fraction(1)),
        }
        for name, (m, q, ind, vol) in expect.items():
            s, limit = make(name)
            inv = invariants(s)
            assert (inv.m, inv.q, inv.ind, inv.body.volume) == (m, q, ind, vol)
            assert inv.predicted_limit == limit

    def test_unimodular_invariance(self):
        rng = random.Random(19)
        gens2 = [((0, 0), 1), ((2, 1), 1), ((1, 3), 2)]
        base = GradedSemigroup(2, generators=gens2)
        ref = invariants(base)
        for _ in range(15):
            m = [[1, 0], [0, 1]]
            for _ in range(4):
                k = rng.randint(-2, 2)
                if rng.random() < 0.5:
                    m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], m[1]]
                else:
                    m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
            mapped = [((m[0][0] * v[0] + m[0][1] * v[1],
                        m[1][0] * v[0] + m[1][1] * v[1]), d) for v, d in gens2]
            inv = invariants(GradedSemigroup(2, generators=mapped))
            assert (inv.m, inv.q, inv.ind) == (ref.m, ref.q, ref.ind)
            assert inv.predicted_limit == ref.predicted_limit

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_degree_kernel_oracle(self, data, dim):
        gens = data.draw(st.lists(
            st.tuples(st.tuples(*[st.integers(-4, 4)] * dim), st.integers(1, 6)),
            min_size=1, max_size=5))
        s = GradedSemigroup(dim, generators=gens)
        inv = invariants(s)
        assert (inv.m, inv.q, inv.ind, inv.body.volume) == invariants_by_degree_kernel(s)

    def test_strongly_nonnegative(self):
        assert GradedSemigroup(1, generators=[((0,), 1), ((1,), 1)]).strongly_nonnegative()
        assert not GradedSemigroup(1, generators=[((1,), 0), ((0,), 1)]).strongly_nonnegative()
        assert GradedSemigroup(1, generators=[]).strongly_nonnegative()


class TestLimits:
    def test_empirical_tails(self):
        s, _ = make("affine")
        tail = empirical_limit(s, 100)[-1]
        assert tail == (100, Fraction(101, 100))
        s, _ = make("gap3")
        assert empirical_limit(s, 99)[-1] == (99, Fraction(100, 99))
        s, _ = make("ray")
        assert all(v == 1 for _, v in empirical_limit(s, 10))

    def test_deviation_shrinks_on_dyadic_windows(self):
        for name in FIXTURES:
            s, limit = make(name)
            values = dict(empirical_limit(s, 128))
            ks = sorted(values)
            last = [abs(values[k] - limit) for k in ks if ks[-1] // 2 <= k]
            prev = [abs(values[k] - limit) for k in ks if ks[-1] // 4 <= k < ks[-1] // 2]
            assert max(last) <= max(prev)
            if max(prev) > 0:
                assert max(last) < max(prev)

    def test_random_semigroups_track_prediction(self):
        # end-to-end: volume/index prediction vs actual level counts on
        # random generator sets (finite-horizon tails carry O(1/k) error)
        rng = random.Random(4242)
        trials = 0
        while trials < 10:
            d = rng.choice([1, 1, 2])
            gens = [(tuple(rng.randint(0, 3) for _ in range(d)), rng.randint(1, 3))
                    for _ in range(rng.randint(2, 4))]
            s = GradedSemigroup(d, generators=gens, point_budget=2 * 10**6)
            inv = invariants(s)
            horizon = 200 if d == 1 else 90
            try:
                tail = empirical_limit(s, horizon)[-1][1]
            except MemoryError:
                continue
            trials += 1
            assert abs(tail - inv.predicted_limit) <= Fraction(1, 4) * inv.predicted_limit, gens

    def test_brute_force_counts_match_predictions(self):
        # recount levels by direct generator combination enumeration
        for name, (gens, limit) in FIXTURES.items():
            s = GradedSemigroup(1, generators=gens)
            inv = invariants(s)
            horizon = 14
            counts = {n: set() for n in range(1, horizon + 1)}
            degs = [d for _, d in gens]
            vecs = [v for v, _ in gens]
            max_copies = [horizon // d for d in degs]
            for combo in itertools.product(*(range(c + 1) for c in max_copies)):
                deg = sum(c * d for c, d in zip(combo, degs))
                if 0 < deg <= horizon:
                    pt = tuple(sum(c * v[i] for c, v in zip(combo, vecs))
                               for i in range(1))
                    counts[deg].add(pt)
            for n in range(1, horizon + 1):
                assert s.level(n) == frozenset(counts[n])


class TestIntegerInput:
    """Levels, horizons and truncation levels go by the integer rule: an
    integral float reads as its int, anything else raises one ValueError."""

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_level_and_level_sizes(self, bad):
        s, _ = make("halfstep")
        assert s.level(2.0) == s.level(2)
        assert all(type(c) is int for point in s.level(2.0) for c in point)
        assert list(s.level_sizes(3.0)) == list(s.level_sizes(3))
        with pytest.raises(ValueError, match=re.escape(f"level is not an integer: {bad!r}")):
            s.level(bad)
        # refused when called, before any level is read
        with pytest.raises(ValueError, match=re.escape(f"horizon is not an integer: {bad!r}")):
            s.level_sizes(bad)

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_point_dim(self, bad):
        gens = [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)]
        s = GradedSemigroup(2.0, gens)
        assert s.point_dim == 2 and type(s.point_dim) is int
        assert s.level(2) == GradedSemigroup(2, gens).level(2)
        with pytest.raises(ValueError, match=re.escape(
                f"point dimension is not an integer: {bad!r}")):
            GradedSemigroup(bad, gens)
        with pytest.raises(ValueError, match="point dimension must be at least 0, got -1"):
            GradedSemigroup(-1, [])

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_truncate(self, bad):
        s, _ = make("halfstep")
        assert truncate(s, 2.0).generators == truncate(s, 2).generators
        assert all(type(deg) is int for _, deg in truncate(s, 2.0).generators)
        with pytest.raises(ValueError, match=re.escape(
                f"truncation level p is not an integer: {bad!r}")):
            truncate(s, bad)
        with pytest.raises(ValueError, match="truncation level p must be at least 1, got 0"):
            truncate(s, 0)


class TestTruncate:
    def test_halfstep_truncations(self):
        s, _ = make("halfstep")
        q = invariants(s).q
        for p in (2, 4, 8):
            t = truncate(s, p)
            ti = invariants(t)
            assert ti.q == q
            assert ti.predicted_limit / p ** q == Fraction(1, 2)

    def test_level_one_collapses_to_ray(self):
        s, _ = make("halfstep")
        t = truncate(s, 1)
        ti = invariants(t)
        assert ti.q == 0
        assert ti.predicted_limit == 1

    def test_identity_truncation(self):
        s, _ = make("affine")
        t = truncate(s, 1)
        assert invariants(t).predicted_limit == 1
        assert t.level(3) == s.level(3)

    def test_empty_level_rejected(self):
        s = GradedSemigroup(1, generators=[((1,), 3)])
        with pytest.raises(ValueError, match="empty"):
            truncate(GradedSemigroup(1, generators=[((0,), 2), ((1,), 3)]), 1)
        assert truncate(s, 1).level(3)

    def test_non_positive_degree_rejected(self):
        s = GradedSemigroup(1, generators=[((1,), 0), ((0,), 1)])
        with pytest.raises(ValueError, match="invariants require strictly positive degrees"):
            truncate(s, 1)

    def test_lower_bound_gap_shrinks(self):
        for name in FIXTURES:
            s, limit = make(name)
            q = invariants(s).q
            gaps = {}
            for p in (2, 8):
                ti = invariants(truncate(s, p))
                gaps[p] = abs(ti.predicted_limit / p ** q - limit)
            assert gaps[8] <= gaps[2]
