import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gradedlimits.lattice as lattice_module
import gradedlimits.series as series_module
from gradedlimits.families import BlockSchedule
from gradedlimits.lattice import hermite_basis
from gradedlimits.series import (
    NEG_INF,
    Block,
    MonomialLinearSeries,
    WeightedAmbient,
    artin_tau_series,
    ceil_log,
    closure_violations,
    count_weighted_monomials,
    full_weighted_series,
    index_estimate,
    kodaira_iitaka,
    log_nil_series,
    make_tset,
    nil_hyperplane_series,
    series_invariants,
    sigma_growth_series,
    tau_pulse_series,
)

from oracles import (
    block_monomials,
    check_level_degrees,
    closure_violations_by_tuples,
    weighted_monomials,
)

SCHEDULE = BlockSchedule.default(210)

# the closure witnesses of the degree-12 level of three variables without
# the monomials divisible by z_0^6
LEX_FIRST_WITNESSES = [
    (a, 12 - a, f"((0, 0, {a}), False) * ((6, 0, {6 - a}), False) escapes level 12")
    for a in range(1, 7)]


def dims(series: MonomialLinearSeries, n_max: int) -> list[int]:
    """Exact level dimensions 1..n_max, by counting basis monomials."""
    return [series.dim(n) for n in range(1, n_max + 1)]


def veronese(series: MonomialLinearSeries, e: int) -> MonomialLinearSeries:
    """The e-th Veronese sub-series, level n mapped to the old level e*n."""
    return MonomialLinearSeries(
        name=f"{series.name}_veronese{e}",
        ambient=series.ambient,
        twist=series.twist * e,
        provider=lambda n: series.blocks(e * n),
        horizon=series.horizon // e,
        natural_exponent=series.natural_exponent)


def members(weights, block: Block) -> list[tuple]:
    """The exponent vectors of one block, by the row-wise expansion."""
    return block_monomials(weights, block.shift, block.free, block.degree)


def drawn_block(data, weights, n: int, nil: bool) -> Block:
    """A block of level n of a twist-1 series with a degree-1 square-zero
    generator: a monomial of the level with its first ``free`` exponents
    lowered, the degree lowered becoming the block's degree."""
    free = data.draw(st.integers(0, len(weights)))
    top = data.draw(st.sampled_from(weighted_monomials(weights, n - nil)))
    low = [data.draw(st.integers(0, e)) for e in top[:free]]
    shift = tuple(e - x for e, x in zip(top, low)) + top[free:]
    return Block(shift, nil, free, sum(w * x for w, x in zip(weights, low)))


def drawn_model(data):
    """(d, weights, ambient, twist, horizon) of a random closure check: the
    reduced, square-zero or annihilator model on up to three variables."""
    d = data.draw(st.integers(1, 3))
    weights = (1,) + data.draw(st.tuples(*[st.integers(1, 3)] * (d - 1)))
    nil_degree = data.draw(st.none() | st.integers(1, 3))
    annihilates = nil_degree is not None and data.draw(st.booleans())
    ambient = WeightedAmbient(weights, nil_degree, annihilates)
    return d, weights, ambient, data.draw(st.integers(1, 3)), data.draw(st.integers(2, 8))


def full_blocks(ambient: WeightedAmbient, d: int, deg: int) -> list[Block]:
    """The full nil block, when the ambient has one that fits degree deg,
    then the full reduced block."""
    blocks = []
    if ambient.nil_degree is not None and deg >= ambient.nil_degree:
        blocks.append(Block((0,) * d, True, d, deg - ambient.nil_degree))
    return blocks + [Block((0,) * d, False, d, deg)]


def split(weights, block: Block) -> list[Block]:
    """A span as one sub-block per exponent of its last free variable; a
    point as itself."""
    shift, nil, free, degree = block
    if not free:
        return [block]
    w = weights[free - 1]
    return [Block(shift[:free - 1] + (shift[free - 1] + k,) + shift[free:], nil,
                  free - 1, degree - k * w)
            for k in range(degree // w + 1) if free > 1 or degree == k * w]


def peel(weights, block: Block) -> list[Block]:
    """A span of positive degree as z_0 times its span one degree lower, and
    its monomials with no more z_0 than the shift as points."""
    shift, nil, free, degree = block
    if not degree:
        return [block]
    return [Block((shift[0] + 1,) + shift[1:], nil, free, degree - 1)] + [
        Block(e, nil) for e in members(weights, block) if e[0] == shift[0]]


def series_levels(series: MonomialLinearSeries, n_max: int) -> tuple[dict, bool]:
    """The non-nil exponent vectors {n: S_n} of levels 1..n_max, and whether
    a nil monomial was left out."""
    levels, has_nil = {}, False
    for n in range(1, n_max + 1):
        monomials = series.level(n)
        has_nil = has_nil or any(nil for _, nil in monomials)
        levels[n] = frozenset(exps for exps, nil in monomials if not nil)
    return levels, has_nil


def bounded_nil_series(horizon: int) -> MonomialLinearSeries:
    """The converging fixture of test_experiments: every monomial of degree n
    in three variables, and on odd blocks one nil point, in the annihilator
    model."""
    ambient = WeightedAmbient((1, 1, 1), nil_degree=1, nil_annihilates_base=True)

    def provider(n):
        out = [Block((0, 0, 0), False, 3, n)]
        if SCHEDULE.tau(n):
            out.append(Block((n - 1, 0, 0), True))
        return out

    return MonomialLinearSeries("bounded_nil", ambient, 1, provider, horizon)


def all_builders(horizon=60):
    return [
        full_weighted_series((1, 1), horizon),
        full_weighted_series((1, 1, 1), horizon),
        nil_hyperplane_series(("mod", 3, (0,)), 2, horizon),
        log_nil_series(("mod", 2, (0,)), horizon),
        sigma_growth_series(0, 1, SCHEDULE, horizon=horizon),
        sigma_growth_series(1, 2, SCHEDULE, horizon=horizon),
        sigma_growth_series(None, 1, SCHEDULE, horizon=horizon),
        tau_pulse_series(SCHEDULE, horizon=horizon),
        artin_tau_series(2, SCHEDULE, horizon=horizon),
        artin_tau_series(2, SCHEDULE, horizon=horizon, with_unit=True),
    ]


class TestCounting:
    def test_count_fixtures(self):
        assert count_weighted_monomials((1, 1), 3) == 4
        assert count_weighted_monomials((1, 2), 4) == 3
        assert count_weighted_monomials((1, 1, 1), 4) == 15

    def test_count_matches_enumeration(self):
        for weights in ((1,), (1, 2), (1, 2, 3), (1, 1, 2)):
            for t in range(0, 12):
                assert count_weighted_monomials(weights, t) == \
                    len(list(weighted_monomials(weights, t)))

    def test_ceil_log_table(self):
        for n in range(2, 2000):
            assert ceil_log(n) == math.ceil(math.log(n))
            assert ceil_log(n, 2) == math.ceil(math.log(n) / 2)
        assert ceil_log(1) == 0


class TestBuilders:
    def test_full_model_dims(self):
        s = full_weighted_series((1, 1), 50)
        assert dims(s, 10) == list(range(2, 12))

    def test_non_integer_weights_rejected(self):
        # an integral Fraction counts as an integer; anything else is refused
        assert full_weighted_series((1, Fraction(2, 1)), 10).ambient.weights == (1, 2)
        with pytest.raises(ValueError, match="weight is not an integer"):
            full_weighted_series((1, 1.5))
        with pytest.raises(ValueError, match="weight is not an integer"):
            WeightedAmbient((1, Fraction(1, 2)))
        assert sigma_growth_series(0, 1, SCHEDULE, weights=(1, Fraction(1)),
                                   horizon=10).ambient.weights == (1, 1)
        with pytest.raises(ValueError, match="weight is not an integer"):
            sigma_growth_series(0, 1, SCHEDULE, weights=(1, Fraction(3, 2)), horizon=10)

    def test_sigma_growth_refuses_non_integer_s(self):
        # s = 0.5 must not build the s = 0 series through a truncation
        exact = sigma_growth_series(Fraction(1), 1, SCHEDULE, horizon=20)
        assert dims(exact, 5) == dims(sigma_growth_series(1, 1, SCHEDULE, horizon=20), 5)
        for s in (0.5, Fraction(1, 2), "0"):
            with pytest.raises(ValueError, match="s is not an integer"):
                sigma_growth_series(s, 1, SCHEDULE, horizon=20)

    def test_nil_hyperplane_dims(self):
        s = nil_hyperplane_series(("mod", 3, (0,)), 2, 100)
        for n in range(1, 60):
            assert s.dim(n) == (n + 1 if n % 3 == 0 else 0)

    def test_log_series_dims(self):
        t_members = frozenset({2, 4, 8, 16, 32, 64, 128})
        s = log_nil_series(t_members, 150)
        for n in range(2, 150):
            want = math.ceil(math.log(n)) if n in t_members else math.ceil(math.log(n) / 2)
            assert s.dim(n) == want

    def test_sigma_series_dimension_formula(self):
        # dims equal the two-part weighted count driven by the capped sigma
        s = sigma_growth_series(0, 1, SCHEDULE, horizon=210)
        for n in range(1, 211):
            sig = SCHEDULE.sigma_capped(n)
            assert len(s.level(n)) == s.dim(n) == 1 + (n + sig + 1)

    def test_sigma_series_levels_are_weighted_correct(self):
        # f = lcm(1, 1, 2, 3) = 6: the reduced part is the 6n + 1 monomials of
        # degree 6n in z_0, z_1; the nil part has weighted degree 2k,
        # k = 3(n + sigma), in weights (1, 1, 2), which (k + 1)^2 monomials have
        s = sigma_growth_series(1, 2, SCHEDULE, weights=(1, 1, 2), e=3, horizon=30)
        for n in (1, 2, 9, 30):
            k = 3 * (n + SCHEDULE.sigma_capped(n))
            assert len(s.level(n)) == s.dim(n) == 6 * n + 1 + (k + 1) ** 2

    def test_tau_pulse_dims(self):
        s = tau_pulse_series(SCHEDULE, horizon=210)
        for n in (1, 6, 25, 210):  # even blocks
            assert s.dim(n) == 1
        for n in (2, 5, 26, 209):  # odd blocks
            assert s.dim(n) == 2

    def test_artin_series_dims(self):
        bare = artin_tau_series(3, SCHEDULE, horizon=210)
        unit = artin_tau_series(3, SCHEDULE, horizon=210, with_unit=True)
        for n in range(1, 211):
            assert unit.dim(n) == bare.dim(n) + 1
            assert bare.dim(n) in (0, 1)

    def test_dim_is_the_expanded_level_size(self):
        for s in all_builders(40):
            for n in range(41):
                assert s.dim(n) == len(s.level(n)), (s.name, n)

    def test_degree_consistency_is_enforced(self):
        ambient = WeightedAmbient((1, 1))
        bad = MonomialLinearSeries("bad", ambient, 1,
                                   lambda n: [Block((n + 1, 0), False)], 10)
        with pytest.raises(ValueError, match="degree"):
            bad.level(1)


class TestBlocks:
    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_expansion_matches_box_filter(self, data, k):
        weights = data.draw(st.tuples(*[st.integers(1, 3)] * k))
        shift = data.draw(st.tuples(*[st.integers(0, 4)] * k))
        free = data.draw(st.integers(0, min(3, k)))
        degree = data.draw(st.integers(0, 8))
        box = itertools.product(*(range(s, s + degree + 1) for s in shift))
        want = []
        for exps in box:
            m = [e - s for e, s in zip(exps, shift)]
            if any(m[free:]):
                continue
            if sum(w * x for w, x in zip(weights, m)) == degree:
                want.append(exps)
        assert block_monomials(weights, shift, free, degree) == want

    def test_builder_levels_pass_per_monomial_check(self):
        for s in all_builders(40):
            for n in range(41):
                check_level_degrees(s, n, s.level(n))
        for s in all_builders(60):
            v = veronese(s, 3)
            for n in range(21):
                check_level_degrees(v, n, v.level(n))

    def test_level_zero_is_the_unit(self):
        # L_0 = k for every builder, answered without asking the provider
        def refuse(n):
            raise AssertionError(f"provider asked for level {n}")

        for s in all_builders(50):
            unit = [Block((0,) * len(s.ambient.weights), False)]
            silent = MonomialLinearSeries(s.name, s.ambient, s.twist, refuse, s.horizon)
            assert s.blocks(0) == silent.blocks(0) == unit, s.name
            assert s.dim(0) == 1 and s.level(0) == {(unit[0].shift, False)}

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_overlap_rule_matches_enumeration(self, data, d):
        # blocks refuses a pair exactly when the expanded blocks meet
        weights = (1,) + data.draw(st.tuples(*[st.integers(1, 3)] * (d - 1)))
        n = data.draw(st.integers(1, 6))
        pair = [drawn_block(data, weights, n, data.draw(st.booleans())) for _ in range(2)]
        a, b = pair
        series = MonomialLinearSeries("pair", WeightedAmbient(weights, 1), 1,
                                      lambda m: pair, n)
        if a.nil == b.nil and not set(members(weights, a)).isdisjoint(members(weights, b)):
            first, second = re.escape(str(a)), re.escape(str(b))
            named = f"({first} and {second}|{second} and {first})"
            with pytest.raises(ValueError, match=f"level {n} blocks {named} overlap"):
                series.blocks(n)
        else:
            assert series.blocks(n) == pair

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_dim_counts_disjoint_blocks(self, data, d):
        weights = (1,) + data.draw(st.tuples(*[st.integers(1, 3)] * (d - 1)))
        n = data.draw(st.integers(1, 6))
        kept, covered = [], set()
        for _ in range(data.draw(st.integers(1, 8))):
            block = drawn_block(data, weights, n, data.draw(st.booleans()))
            monomials = {(e, block.nil) for e in members(weights, block)}
            if covered.isdisjoint(monomials):
                kept.append(block)
                covered |= monomials
        series = MonomialLinearSeries("disjoint", WeightedAmbient(weights, 1), 1,
                                      lambda m: kept, n)
        assert series.dim(n) == len(series.level(n)) == len(covered)

    def test_malformed_blocks_are_rejected(self):
        # the degree adds up, but the block holds a negative exponent
        ambient = WeightedAmbient((1, 1))
        bad = MonomialLinearSeries("negative", ambient, 1,
                                   lambda n: [Block((n + 1, -1), False)], 10)
        with pytest.raises(ValueError, match=r"level 1 block \(2, -1\): "
                                             "shift exponent must be at least 0, got -1"):
            bad.level(1)
        short = MonomialLinearSeries("short", ambient, 1,
                                     lambda n: [Block((n,), False)], 10)
        with pytest.raises(ValueError, match="does not fit"):
            short.level(1)
        reduced = MonomialLinearSeries("reduced", ambient, 1,
                                       lambda n: [Block((n, 0), True)], 10)
        with pytest.raises(ValueError, match="square-zero"):
            reduced.level(1)
        # the degree adds up, but a point of positive degree or a block of
        # negative degree holds no monomial
        for empty in (Block((0, 0), False, 0, 1), Block((2, 0), False, 2, -1)):
            series = MonomialLinearSeries("empty", ambient, 1, lambda n: [empty], 10)
            with pytest.raises(ValueError, match="holds no monomial"):
                series.dim(1)

    def test_block_degree_is_checked(self):
        ambient = WeightedAmbient((1, 2))
        good = MonomialLinearSeries("good", ambient, 2,
                                    lambda n: [Block((n, 0), False, 2, n)], 10)
        assert good.level(2) == {((2, 1), False), ((4, 0), False)}
        bad = MonomialLinearSeries("bad", ambient, 2,
                                   lambda n: [Block((n, 0), False, 2, n + 1)], 10)
        with pytest.raises(ValueError, match="degree"):
            bad.level(2)


class TestIntegerInput:
    """Series input accepts an integral Fraction and refuses a non-integer."""

    def test_block_shift(self):
        def shifted(x):
            return MonomialLinearSeries("shifted", WeightedAmbient((1, 1)), 1,
                                        lambda n: [Block((n + x, 0), False)], 5)

        assert shifted(Fraction(0)).level(2) == {((2, 0), False)}
        with pytest.raises(ValueError, match=r"level 2 block \(2.5, 0\): "
                                             "shift exponent is not an integer: 2.5"):
            shifted(0.5).level(2)

    def test_level_set_residue(self):
        member = make_tset(("mod", 3, (Fraction(3),)))
        assert [n for n in range(7) if member(n)] == [0, 3, 6]
        with pytest.raises(ValueError, match="residue is not an integer"):
            make_tset(("mod", 3, (0.5,)))

    def test_level_set_modulus(self):
        member = make_tset(("mod", Fraction(2), (0,)))
        assert [n for n in range(5) if member(n)] == [0, 2, 4]
        with pytest.raises(ValueError, match="modulus is not an integer"):
            make_tset(("mod", 2.5, (0,)))
        for short in (("mod",), ("mod", 2)):
            with pytest.raises(ValueError, match=re.escape("is ('mod', r, residues)")):
                make_tset(short)
        with pytest.raises(ValueError, match="level-set modulus must be at least 1, got 0"):
            nil_hyperplane_series(("mod", 0, (0,)))

    def test_pulse_degree(self):
        assert tau_pulse_series(SCHEDULE, g=Fraction(2), horizon=10).twist == 2
        with pytest.raises(ValueError, match="pulse degree g is not an integer"):
            tau_pulse_series(SCHEDULE, g=1.5, horizon=10)

    def test_socle_degree(self):
        assert artin_tau_series(Fraction(2), SCHEDULE, horizon=10).dim(1) == 1
        with pytest.raises(ValueError, match="socle degree t is not an integer"):
            artin_tau_series(1.5, SCHEDULE, horizon=10)

    def test_sigma_growth_r(self):
        exact = sigma_growth_series(0, Fraction(1), SCHEDULE, horizon=20)
        assert dims(exact, 5) == dims(sigma_growth_series(0, 1, SCHEDULE, horizon=20), 5)
        with pytest.raises(ValueError, match="r is not an integer"):
            sigma_growth_series(0, 1.5, SCHEDULE, horizon=20)

    def test_level_set_member(self):
        member = make_tset({Fraction(3), 1})
        assert [n for n in range(5) if member(n)] == [1, 3]
        with pytest.raises(ValueError, match="member is not an integer"):
            make_tset({1.7, 3})

    def test_nil_degree(self):
        assert WeightedAmbient((1,), nil_degree=Fraction(2)).nil_degree == 2
        with pytest.raises(ValueError, match="nilpotent degree is not an integer"):
            WeightedAmbient((1,), nil_degree=1.5)

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_horizon_and_twist(self, bad):
        s = full_weighted_series((1, 1), 2.0)
        assert s.horizon == 2 and type(s.horizon) is int and s.dim(2) == 3
        assert MonomialLinearSeries("twisted", WeightedAmbient((1, 1)), 2.0,
                                    lambda n: [Block((0, 0), False, 2, 2 * n)], 5).twist == 2
        with pytest.raises(ValueError, match=re.escape(f"horizon is not an integer: {bad!r}")):
            full_weighted_series((1, 1), bad)
        with pytest.raises(ValueError, match=re.escape(f"twist is not an integer: {bad!r}")):
            MonomialLinearSeries("twisted", WeightedAmbient((1, 1)), bad, list, 5)
        with pytest.raises(ValueError, match="horizon must be at least 0, got -1"):
            full_weighted_series((1, 1), -1)
        with pytest.raises(ValueError, match="twist must be at least 1, got 0"):
            MonomialLinearSeries("flat", WeightedAmbient((1, 1)), 0, list, 5)

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_level_index(self, bad):
        # the provider sees the int, so the blocks carry int degrees
        s = full_weighted_series((1, 2), 10)
        assert s.blocks(2.0) == s.blocks(2) and s.dim(2.0) == s.dim(2) == 2
        assert all(type(b.degree) is int for b in s.blocks(2.0))
        for read in (s.blocks, s.dim, s.level):
            with pytest.raises(ValueError, match=re.escape(f"level is not an integer: {bad!r}")):
                read(bad)
        with pytest.raises(ValueError, match="level must be at least 0, got -1"):
            s.dim(-1)


def late_series(onset: int, horizon: int) -> MonomialLinearSeries:
    """z_0^n alone below level ``onset``; z_0^(n-1) z_1 joins from there on."""
    def provider(n):
        return [Block((n, 0), False)] + ([Block((n - 1, 1), False)] if n >= onset else [])

    return MonomialLinearSeries("late", WeightedAmbient((1, 1)), 1, provider, horizon)


class TestKappa:
    def test_fixtures(self):
        assert kodaira_iitaka(full_weighted_series((1, 1, 1), 40))[0] == 2
        assert kodaira_iitaka(nil_hyperplane_series(("mod", 3, (0,)), 2, 40))[0] == NEG_INF
        assert kodaira_iitaka(sigma_growth_series(0, 1, SCHEDULE, horizon=40))[0] == 0
        assert kodaira_iitaka(sigma_growth_series(1, 2, SCHEDULE, horizon=40))[0] == 1
        assert kodaira_iitaka(sigma_growth_series(None, 1, SCHEDULE, horizon=40))[0] == NEG_INF
        assert kodaira_iitaka(tau_pulse_series(SCHEDULE, horizon=40))[0] == 0

    def test_kappa_bounded_by_model_dimension(self):
        for s in all_builders(40):
            kappa, _ = kodaira_iitaka(s, 40)
            assert kappa == NEG_INF or kappa <= len(s.ambient.weights)

    def test_veronese_preserves_kappa(self):
        for s in all_builders(60):
            kappa, _ = kodaira_iitaka(s, 60)
            if kappa == NEG_INF:
                continue
            v = veronese(s, 2)
            assert kodaira_iitaka(v, 30)[0] == kappa

    def test_matches_declared(self):
        # the dimension each construction of ``all_builders`` is built to have
        declared = [1, 2, NEG_INF, NEG_INF, 0, 1, NEG_INF, 0, NEG_INF, 0]
        assert [kodaira_iitaka(s, 60)[0] for s in all_builders(60)] == declared

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_block_rows_span_the_block(self, data, d):
        # the rows fed to the Hermite basis for one block have the rank of
        # the block's monomials, and span the same lattice
        import sympy

        weights = (1,) + data.draw(st.tuples(*[st.integers(1, 3)] * (d - 1)))
        n = data.draw(st.integers(1, 6))
        block = drawn_block(data, weights, n, False)
        series = MonomialLinearSeries("one_block", WeightedAmbient(weights), 1,
                                      lambda m: [block] if m == n else [], n)
        fed = []

        def recording(vectors, ambient_dim):
            fed.append(vectors)
            return hermite_basis(vectors, ambient_dim)

        with mock.patch.object(lattice_module, "hermite_basis", recording):
            kodaira_iitaka(series, n)
        monomials = [exps + (n,) for exps in members(weights, block)]
        assert sympy.Matrix(fed[0]).rank() == sympy.Matrix(monomials).rank()
        assert hermite_basis(fed[0], d + 1) == hermite_basis(monomials, d + 1)

    def test_late_rank_growth_flags_horizon(self):
        late = late_series(30, 40)
        assert kodaira_iitaka(late, 32) == (1, True)
        assert kodaira_iitaka(late, 40) == (1, False)
        assert kodaira_iitaka(late, 29) == (0, False)


class TestIndex:
    def test_even_support(self):
        s = log_nil_series(lambda n: True, 60)
        ambient = s.ambient

        def evens_only(n):
            return s.blocks(n) if n % 2 == 0 else []

        trimmed = MonomialLinearSeries("evens", ambient, 1, evens_only, 60)
        assert index_estimate(trimmed) == 2

    def test_multiples_of_three(self):
        s = nil_hyperplane_series(("mod", 3, (0,)), 2, 60)
        assert index_estimate(s) == 3

    def test_all_zero_levels(self):
        s = nil_hyperplane_series(frozenset(), 2, 30)
        with pytest.raises(ValueError, match="zero"):
            index_estimate(s)

    def test_veronese_reindexes(self):
        s = nil_hyperplane_series(("mod", 3, (0,)), 2, 90)
        assert index_estimate(veronese(s, 3)) == 1

    def test_estimate_monotone_in_horizon(self):
        s = nil_hyperplane_series(frozenset({4, 6}), 2, 30)
        assert index_estimate(s, 5) == 4
        assert index_estimate(s, 10) == 2
        assert index_estimate(s, 5) % index_estimate(s, 10) == 0

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_explicit_horizon_below_one_rejected(self, horizon):
        # only None means the default horizon; an explicit 0 is not swapped for it
        s = full_weighted_series((1, 1), 50)
        for scan in (kodaira_iitaka, index_estimate):
            with pytest.raises(ValueError, match="horizon must be at least 1"):
                scan(s, horizon)
        # series_invariants scans to 64, capped at the series horizon: it
        # sees rank growth at level 64 but not at 65
        assert series_invariants(s).kappa == 1
        assert series_invariants(late_series(64, 100)).kappa == 1
        assert series_invariants(late_series(65, 100)).kappa == 0

    @pytest.mark.parametrize("horizon", [2.5, "3"])
    def test_non_integer_horizon_rejected(self, horizon):
        s = full_weighted_series((1, 1), 50)
        for scan in (kodaira_iitaka, index_estimate):
            with pytest.raises(ValueError, match=re.escape(
                    f"horizon is not an integer: {horizon!r}")):
                scan(s, horizon)

    def test_integral_horizon_accepted(self):
        s = full_weighted_series((1, 1), 50)
        for scan in (kodaira_iitaka, index_estimate):
            assert scan(s, 3.0) == scan(s, Fraction(3)) == scan(s, 3)


class TestClosure:
    def test_all_builders_closed(self):
        for s in all_builders(50):
            assert closure_violations(s, 50) == [], s.name

    def test_violation_detected(self):
        ambient = WeightedAmbient((1, 1))

        def provider(n):
            # drops the pure power of the first variable at level 2
            if n == 2:
                return [Block((1, 1), False), Block((0, 2), False)]
            return [Block((a, n - a), False) for a in range(n + 1)]

        broken = MonomialLinearSeries("broken", ambient, 1, provider, 10)
        assert closure_violations(broken, 4) == [
            (1, 1, "((1, 0), False) * ((1, 0), False) escapes level 2"),
        ]

    def test_witness_is_the_lex_first_escape(self):
        # z_0^6 and up leave level 12, so the witness of each (a, b) is the
        # least monomial of level a times the least of level b with z_0^6
        ambient = WeightedAmbient((1, 1, 1))

        def provider(n):
            mons = [Block((a, b, n - a - b), False)
                    for a in range(n + 1) for b in range(n - a + 1)]
            if n == 12:
                mons = [m for m in mons if m[0][0] < 6]
            return mons

        broken = MonomialLinearSeries("lex_first", ambient, 1, provider, 12)
        assert closure_violations(broken, 12) == LEX_FIRST_WITNESSES

    @pytest.mark.parametrize("shuffle", [
        lambda mons: mons[::-1],
        lambda mons: mons[1::2] + mons[::2],
    ], ids=["reversed", "interleaved"])
    def test_witnesses_do_not_depend_on_provider_order(self, shuffle):
        # the witness is lex-first among all escaping pairs, whatever order
        # the provider lists its blocks in
        ambient = WeightedAmbient((1, 1, 1))

        def provider(n):
            mons = [Block((a, b, n - a - b), False)
                    for a in range(n + 1) for b in range(n - a + 1)]
            if n == 12:
                mons = [m for m in mons if m[0][0] < 6]
            return shuffle(mons)

        broken = MonomialLinearSeries("shuffled", ambient, 1, provider, 12)
        assert closure_violations(broken, 12) == LEX_FIRST_WITNESSES

    def test_repeated_monomial_is_refused(self):
        # a level lists each monomial once: a repeated point is an overlap
        def provider(n):
            mons = [Block((a, b, n - a - b), False)
                    for a in range(n + 1) for b in range(n - a + 1)]
            return mons[::-1] + mons[:3]

        repeated = MonomialLinearSeries("repeated", WeightedAmbient((1, 1, 1)), 1,
                                        provider, 12)
        point = Block((0, 0, 1), False)
        message = re.escape(f"level 1 blocks {point} and {point} overlap")
        with pytest.raises(ValueError, match=message):
            closure_violations(repeated, 12)
        with pytest.raises(ValueError, match=message):
            repeated.dim(1)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_check_matches_tuple_oracle(self, data):
        # full, nil and shifted blocks, points and one dropped monomial, in
        # the reduced, square-zero and annihilator models
        d, weights, ambient, twist, horizon = drawn_model(data)
        shift = data.draw(st.tuples(*[st.integers(0, 3)] * d))
        free = data.draw(st.integers(1, d))
        shifted = data.draw(st.booleans())
        dropped_level = data.draw(st.integers(0, horizon))
        dropped_index = data.draw(st.integers(0, 200))

        def provider(n):
            deg = twist * n
            blocks = full_blocks(ambient, d, deg)
            shift_deg = sum(w * e for w, e in zip(weights, shift))
            if shifted and shift_deg <= deg:
                # the shifted block, and the rest of the full block as points
                inner = Block(shift, False, free, deg - shift_deg)
                inside = set(members(weights, inner))
                blocks = blocks[:-1] + [inner]
                blocks += [Block(e, False) for e in weighted_monomials(weights, deg)
                           if e not in inside]
            if n == dropped_level:
                points = sorted((e, b.nil) for b in blocks for e in members(weights, b))
                del points[dropped_index % len(points)]
                blocks = [Block(e, nil) for e, nil in points]
            return blocks

        series = MonomialLinearSeries("random", ambient, twist, provider, horizon)
        assert closure_violations(series, horizon) == \
            closure_violations_by_tuples(series, horizon)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_split_spans_match_tuple_oracle(self, data):
        # spans cut into sub-blocks by the exponent of their last free
        # variable, up to twice, or peeled, and one block dropped: products
        # that no single block holds reach the monomial-by-monomial fallback
        d, weights, ambient, twist, horizon = drawn_model(data)
        cuts = {n: data.draw(st.integers(0, 3)) for n in range(1, horizon + 1)}
        dropped_level = data.draw(st.integers(1, horizon))
        dropped_index = data.draw(st.integers(0, 200))

        def provider(n):
            blocks = full_blocks(ambient, d, twist * n)
            if cuts.get(n) == 3:
                blocks = [sub for b in blocks for sub in peel(weights, b)]
            for _ in range(cuts.get(n, 0) % 3):
                blocks = [sub for b in blocks for sub in split(weights, b)]
            if n == dropped_level and blocks:
                del blocks[dropped_index % len(blocks)]
            return blocks

        series = MonomialLinearSeries("split", ambient, twist, provider, horizon)
        assert closure_violations(series, horizon) == \
            closure_violations_by_tuples(series, horizon)

    @pytest.mark.parametrize("level_two, witness", [
        ([Block((1, 0), False, 2, 1)], "((0, 1), False) * ((0, 1), False)"),
        ([Block((0, 0), False, 1, 2), Block((0, 2), False, 1, 0)],
         "((0, 1), False) * ((1, 0), False)"),
    ], ids=["shift-above-corner", "tail-off-corner"])
    def test_a_block_holds_only_whole_products(self, level_two, witness):
        # level 2 misses z_1^2 or z_0 z_1, so its span must not settle the
        # product z_1 * z_1, whose corner (0, 2) is not above its shift
        # (1, 0), nor z_0 * z_1, whose corner (0, 1) differs from its shift
        # (0, 0) past its one free variable
        def provider(n):
            return level_two if n == 2 else [Block((0, k), False, 1, n - k)
                                             for k in range(n + 1)]

        series = MonomialLinearSeries("gap", WeightedAmbient((1, 1)), 1, provider, 2)
        want = [(1, 1, f"{witness} escapes level 2")]
        assert closure_violations(series, 2) == want
        assert closure_violations_by_tuples(series, 2) == want

    def test_a_block_holds_no_wider_product(self):
        # the nil product eps * (z_0, z_1) spans two free variables; level 2's
        # nil block eps * z_0 spans one and matches its shift past that one,
        # so it must not settle the product, which escapes at eps * z_1
        ambient = WeightedAmbient((1, 1, 1), nil_degree=1)

        def provider(n):
            return [Block((0, 0, 0), False, 2, n), Block((0, 0, 0), True, 1, n - 1)]

        series = MonomialLinearSeries("narrow", ambient, 1, provider, 2)
        levels = {n: series.blocks(n) for n in (1, 2)}
        assert series_module._lane_columns(ambient, levels) is not None
        want = closure_violations_by_tuples(series, 2)
        assert want and closure_violations(series, 2) == want

    def test_builders_expand_no_span(self):
        # every span product of a shipped builder is settled by one block
        expand = series_module._block_rows

        def points_only(weights, shift, free, degree):
            assert not free, f"span {shift} of degree {degree} expanded"
            return expand(weights, shift, free, degree)

        with mock.patch.object(series_module, "_block_rows", points_only):
            for s in all_builders(50):
                assert closure_violations(s, 50) == [], s.name

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_raised_lane_span_matches_tuple_oracle(self, data):
        # a laned series (one span per (nil, free) lane at every level) with
        # one lane's span raised in one coordinate at a target level, at a
        # level below it and perhaps at one more, its degree lowered to
        # match: a raise can send a total to the witness search, and the
        # raises on a factor and on its target meet in some pairs only
        horizon, r = data.draw(st.integers(3, 7)), data.draw(st.integers(1, 2))
        weights = (1,) + data.draw(st.tuples(*[st.integers(1, 2)] * (r + data.draw(
            st.integers(0, 1)))))
        kind = data.draw(st.sampled_from(["full", "partial", "sigma", "nil_only"]))
        if kind == "full":
            base = full_weighted_series(weights, horizon)
        elif kind == "partial":
            # one lane, free in the leading variables only
            free = data.draw(st.integers(1, len(weights) - 1))
            base = MonomialLinearSeries(
                "partial", WeightedAmbient(weights), 1,
                lambda n: [Block((0,) * len(weights), False, free, n)], horizon)
        else:
            s = None if kind == "nil_only" else data.draw(st.integers(0, r))
            base = sigma_growth_series(s, r, weights=weights, e=data.draw(st.integers(1, 2)),
                                       horizon=horizon)
        target = data.draw(st.integers(2, horizon))
        raised = {target, data.draw(st.integers(1, target - 1)),
                  *data.draw(st.sets(st.integers(1, horizon), max_size=1))}
        lane, coord = data.draw(st.integers(0, 1)), data.draw(st.integers(0, len(weights) - 1))
        by = data.draw(st.integers(1, 2))

        def provider(n):
            blocks = base.blocks(n)
            if n in raised:
                k = lane % len(blocks)
                shift, nil, free, degree = blocks[k]
                if degree >= weights[coord] * by:
                    blocks[k] = Block(shift[:coord] + (shift[coord] + by,) + shift[coord + 1:],
                                      nil, free, degree - weights[coord] * by)
            return blocks

        series = MonomialLinearSeries("raised", base.ambient, base.twist, provider, horizon)
        levels = {n: series.blocks(n) for n in range(1, horizon + 1)}
        assert series_module._lane_columns(series.ambient, levels) is not None
        assert closure_violations(series, horizon) == \
            closure_violations_by_tuples(series, horizon)

    def test_laned_builders_settle_every_total(self):
        # every shipped builder, its e = 2 Veronese and the converging
        # fixture of test_experiments hold one block, span or point, of each
        # lane whose products do not all vanish at every level, and the lane
        # test settles each of their totals
        def refuse(series, levels, total):
            raise AssertionError(f"{series.name} total {total} fell back to its pairs")

        builders = [*all_builders(50), full_weighted_series((1, 2, 3), 50),
                    bounded_nil_series(50)]
        with mock.patch.object(series_module, "_total_violations", refuse):
            for s in builders + [veronese(s, 2) for s in builders]:
                assert closure_violations(s, s.horizon) == [], s.name

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mixed_lanes_match_tuple_oracle(self, data):
        # a reduced lane, span or point, perhaps a reduced point outside it,
        # level n holding n times their level-1 blocks, and a nil lane when
        # the model has one that fits, level n holding its level-1 block
        # moved by n - 1 times a reduced monomial, in the reduced,
        # square-zero and annihilator models.  At a drawn level one block is
        # dropped or split, which sends every total to the witness search,
        # or moved: a point to another monomial, a span raised in one of its
        # free coordinates, which keeps the lanes and leaves the totals to
        # the lane test
        d, weights, ambient, twist, horizon = drawn_model(data)
        units = [drawn_block(data, weights, twist, False)]
        outside = [m for m in weighted_monomials(weights, twist)
                   if m not in members(weights, units[0])]
        if units[0].free and outside and data.draw(st.booleans()):
            units.append(Block(data.draw(st.sampled_from(outside)), False))
        nil_unit = ride = None
        e = ambient.nil_degree
        if e is not None and e <= twist:
            nil_unit = drawn_block(data, weights, twist - e, False)._replace(nil=True)
            ride = data.draw(st.sampled_from(
                [m for u in units for m in members(weights, u)]))
        edited = data.draw(st.integers(1, horizon))
        edit = data.draw(st.sampled_from([None, "drop", "split", "move"]))
        index, coord = data.draw(st.integers(0, 2)), data.draw(st.integers(0, d - 1))
        pick = data.draw(st.integers(0, 50))

        def provider(n):
            blocks = [Block(tuple(n * x for x in shift), False, free, n * degree)
                      for shift, _, free, degree in units]
            if nil_unit is not None:
                shift = tuple(x + (n - 1) * y for x, y in zip(nil_unit.shift, ride))
                blocks.append(nil_unit._replace(shift=shift))
            if n != edited or edit is None:
                return blocks
            k = index % len(blocks)
            shift, nil, free, degree = blocks[k]
            if edit == "move" and coord < free and degree >= weights[coord]:
                raised = shift[:coord] + (shift[coord] + 1,) + shift[coord + 1:]
                blocks[k] = Block(raised, nil, free, degree - weights[coord])
            elif edit == "move" and not free:
                taken = {(m, b.nil) for b in blocks for m in members(weights, b)}
                level_degree = sum(w * x for w, x in zip(weights, shift))
                free_points = [m for m in weighted_monomials(weights, level_degree)
                               if (m, nil) not in taken]
                if free_points:
                    blocks[k] = Block(free_points[pick % len(free_points)], nil)
            elif edit != "move":
                blocks[k:k + 1] = [] if edit == "drop" else split(weights, blocks[k])
            return blocks

        series = MonomialLinearSeries("lanes", ambient, twist, provider, horizon)
        if edit in (None, "move"):
            levels = {n: series.blocks(n) for n in range(1, horizon + 1)}
            assert series_module._lane_columns(ambient, levels) is not None
        assert closure_violations(series, horizon) == \
            closure_violations_by_tuples(series, horizon)

    @pytest.mark.parametrize("dropped", [False, True])
    def test_exponent_sums_reach_twist_times_horizon(self, dropped):
        # twist 3: the pure powers z_1^(3a) * z_1^(3b) reach the exponent
        # 3 * 9 of the top level; each is the lex-first pair of its level
        # pair, and escapes only if z_1^27 is dropped
        ambient = WeightedAmbient((1, 1))

        def provider(n):
            if n == 9 and dropped:
                return [Block((k, 27 - k), False) for k in range(1, 28)]
            return [Block((0, 0), False, 2, 3 * n)]

        series = MonomialLinearSeries("top", ambient, 3, provider, 9)
        want = [(a, 9 - a, f"((0, {3 * a}), False) * ((0, {27 - 3 * a}), False) "
                           "escapes level 9") for a in range(1, 5)] if dropped else []
        assert closure_violations(series, 9) == want
        assert closure_violations_by_tuples(series, 9) == want

    @pytest.mark.parametrize("dropped", [(2, False), (12, False), (29, False)])
    def test_broken_tau_pulse_matches_tuple_oracle(self, dropped):
        # tau_pulse levels are points; a dropped one sends every total to
        # the witness search
        pulse = tau_pulse_series(SCHEDULE, horizon=30)

        def provider(n):
            return [b for b in pulse.blocks(n) if (n, b.nil) != dropped]

        broken = MonomialLinearSeries("broken_pulse", pulse.ambient, pulse.twist,
                                      provider, 30)
        want = closure_violations_by_tuples(broken, 30)
        assert want and closure_violations(broken, 30) == want

    @pytest.mark.parametrize("dropped", [None, ((2, 3), False), ((1, 3), True)])
    def test_mixed_points_match_tuple_oracle(self, dropped):
        # every monomial of degree n, and every nil one, as points of the
        # square-zero model, where a nil point times a reduced one is nil
        ambient = WeightedAmbient((1, 1), nil_degree=1)

        def provider(n):
            points = [((a, n - a), False) for a in range(n + 1)]
            points += [((a, n - 1 - a), True) for a in range(n)]
            return [Block(e, nil) for e, nil in points if (e, nil) != dropped]

        series = MonomialLinearSeries("points", ambient, 1, provider, 8)
        want = closure_violations_by_tuples(series, 8)
        assert bool(want) == (dropped is not None)
        assert closure_violations(series, 8) == want

    @pytest.mark.parametrize("horizon", [-1, 2.5, "3"])
    def test_bad_horizon_refused(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            closure_violations(full_weighted_series((1, 1), 10), horizon)

    def test_each_level_built_once(self):
        # levels are not memoized, so the check must hold its own copy
        calls = []

        def provider(n):
            calls.append(n)
            return [Block((a, n - a), False) for a in range(n + 1)]

        series = MonomialLinearSeries("counted", WeightedAmbient((1, 1)), 1,
                                      provider, 20)
        assert closure_violations(series, 20) == []
        assert sorted(calls) == list(range(1, 21))


class TestSemigroupView:
    def test_full_model_counts(self):
        s = full_weighted_series((1, 1), 60)
        levels, excluded = series_levels(s, 17)
        assert not excluded
        for n in (1, 5, 17):
            assert len(levels[n]) == s.dim(n) == n + 1

    def test_nil_series_is_flagged(self):
        s = nil_hyperplane_series(("mod", 3, (0,)), 2, 30)
        levels, excluded = series_levels(s, 3)
        assert excluded
        assert len(levels[3]) == 0

    def test_even_exponent_series_invariants(self):
        from gradedlimits.semigroup import invariants

        ambient = WeightedAmbient((1, 1))
        even = MonomialLinearSeries(
            "even_exponents", ambient, 2,
            lambda n: [Block((2 * a, 2 * (n - a)), False) for a in range(n + 1)], 40)
        levels, _ = series_levels(even, 1)
        from gradedlimits.semigroup import GradedSemigroup
        regen = GradedSemigroup(2, generators=[(pt, 1) for pt in levels[1]])
        inv = invariants(regen)
        assert (inv.m, inv.ind) == (1, 2)


class TestStability:
    def test_growth_bounds_along_index(self):
        # reduced series with kappa >= 0 grow like n^kappa along the index
        for s in (full_weighted_series((1, 1), 80),
                  full_weighted_series((1, 1, 1), 60)):
            kappa, _ = kodaira_iitaka(s, 40)
            m = index_estimate(s)
            ratios = [Fraction(s.dim(m * n), n ** kappa)
                      for n in range(1, s.horizon // m + 1)]
            assert min(ratios) > 0
            tail = ratios[len(ratios) // 2:]
            assert max(tail) <= 2 * min(tail)

    def test_unit_pulse_series_stabilizes(self):
        # an irreducible zero-dimensional model with kappa = 0 stabilizes
        # along every residue class
        ambient = WeightedAmbient((1,))
        stable = MonomialLinearSeries("unit_only", ambient, 1,
                                      lambda n: [Block((n,), False)], 120)
        assert kodaira_iitaka(stable, 40)[0] == 0
        vals = dims(stable, 120)
        assert all(v == vals[-1] for v in vals[60:])

    def test_invariants_report(self):
        s = sigma_growth_series(0, 1, SCHEDULE, horizon=210)
        inv = series_invariants(s)
        assert inv.kappa == 0 and inv.index_estimate == 1
        assert not inv.horizon_dependent
