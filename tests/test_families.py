import gc
import itertools
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedlimits.experiments import length_sequence, volume_equals_multiplicity
from gradedlimits.families import (
    BlockSchedule,
    GradedFamily,
    artin_tau_family,
    check_graded,
    corrupted_sigma_family,
    counting_identity,
    nilpair_sigma_family,
    perturbed_power_family,
    power_family,
    saturation_family,
    symbolic_family,
    valuation_family,
    valuation_gens,
)
from gradedlimits.monomial import (
    MonomialIdeal,
    NilPairIdeal,
    colon_ideal_infinity,
    madic_order,
    minimal_generators,
    unit_ideal,
)
from oracles import (
    check_level_containments,
    max_ideal_power,
    power,
    symbolic_core_fixpoint,
)


SCHEDULE = BlockSchedule.default(210)


class TestSchedule:
    def test_default_breakpoints(self):
        assert SCHEDULE.breakpoints == (2, 6, 26, 210)

    def test_sigma_values(self):
        assert SCHEDULE.sigma(1) == 1
        assert [SCHEDULE.sigma(n) for n in (2, 5, 6, 25, 26, 209, 210)] == \
            [1, 1, 3, 3, 13, 13, 105]

    def test_sigma_constraints(self):
        for n in range(2, SCHEDULE.limit + 1):
            s = SCHEDULE.sigma(n)
            assert 0 < s <= n / 2
        for n in range(1, SCHEDULE.limit):
            assert SCHEDULE.sigma(n) <= SCHEDULE.sigma(n + 1)

    def test_invalid_breakpoints(self):
        with pytest.raises(ValueError):
            BlockSchedule((4, 10))
        with pytest.raises(ValueError):
            BlockSchedule((2, 3))
        with pytest.raises(ValueError):
            BlockSchedule((2, 4))  # needs > 2^1 * 2

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_default_horizon(self, bad):
        assert BlockSchedule.default(210.0) == SCHEDULE
        with pytest.raises(ValueError, match=re.escape(f"horizon is not an integer: {bad!r}")):
            BlockSchedule.default(bad)
        with pytest.raises(ValueError, match="horizon must be at least 0, got -1"):
            BlockSchedule.default(-1)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="covers"):
            SCHEDULE.sigma(SCHEDULE.limit + 1)

    def test_tau_alternates_by_block(self):
        bp = SCHEDULE.breakpoints
        for j in range(len(bp) - 1):
            block = range(bp[j], bp[j + 1])
            vals = {SCHEDULE.tau(n) for n in block}
            assert vals == {(j + 1) % 2}

    def test_sigma_ratio_visits_half_and_zero(self):
        # on each residue class the ratio sigma(n)/n gets within eps of 1/2
        # and of 0 somewhere below the horizon
        eps = Fraction(1, 25)
        horizon = SCHEDULE.limit
        for r in range(1, 5):
            for a in range(r):
                ratios = [Fraction(SCHEDULE.sigma(n), n)
                          for n in range(2, horizon + 1) if n % r == a]
                assert any(abs(x - Fraction(1, 2)) < eps for x in ratios)
                assert any(x < eps for x in ratios)


class TestBuilders:
    def test_power_family(self):
        f = power_family(MonomialIdeal(2, ((2, 0), (0, 3))))
        assert f.ideal(0).is_unit()
        assert f.ideal(2) == power(MonomialIdeal(2, ((2, 0), (0, 3))), 2)

    @pytest.mark.parametrize("family", [power_family(MonomialIdeal(2, ((2, 0), (0, 3)))),
                                        valuation_family((1, 2))])
    def test_bad_level_refused(self, family):
        assert family.ideal(3.0) == family.ideal(3)
        for n, message in ((2.5, "not an integer"), ("2", "not an integer"),
                           (-1, "index must be at least 0, got -1")):
            with pytest.raises(ValueError, match=message):
                family.ideal(n)

    def test_valuation_gens_fixture(self):
        assert valuation_gens((Fraction(1), Fraction(2)), 3) == ((0, 2), (1, 1), (3, 0))

    def test_valuation_halfspace_description(self):
        lams = (Fraction(1), Fraction(2))
        f = valuation_family(lams)
        for n in range(1, 21):
            i = f.ideal(n)
            for pt in itertools.product(range(2 * n + 2), repeat=2):
                member = sum(l * a for l, a in zip(lams, pt)) >= n
                assert i.contains(pt) == member

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_valuation_gens_matches_box_filter(self, d, data):
        # weights >= 1 with denominators up to 4
        weight = st.integers(1, 4).flatmap(
            lambda q: st.integers(q, 12).map(lambda p: Fraction(p, q)))
        weights = tuple(data.draw(weight) for _ in range(d))
        n = data.draw(st.integers(0, 24 if d < 3 else 10))

        def inside(a):
            return sum(w * e for w, e in zip(weights, a)) >= n

        # a minimal generator has a_i <= ceil(n / w_i); the region is an up-set,
        # so a point is minimal when no single step down stays inside
        ceils = [-(-n * w.denominator // w.numerator) for w in weights]
        box = itertools.product(*(range(c + 1) for c in ceils))
        minimal = [a for a in box if inside(a)
                   and not any(e and inside(a[:i] + (e - 1,) + a[i + 1:])
                               for i, e in enumerate(a))]
        assert valuation_gens(weights, n) == tuple(sorted(minimal))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_valuation_gens_are_minimal_and_sorted(self, d, data):
        # the valuation provider builds its ideal from them without re-minimalizing
        weight = st.integers(1, 4).flatmap(
            lambda q: st.integers(q, 12).map(lambda p: Fraction(p, q)))
        weights = tuple(data.draw(weight) for _ in range(d))
        n = data.draw(st.integers(0, 40 if d < 3 else 8))
        gens = valuation_gens(weights, n)
        assert minimal_generators(gens) == gens
        assert valuation_family(weights).ideal(n) == MonomialIdeal(d, gens)

    def test_valuation_rejects_floats_and_small_weights(self):
        with pytest.raises(ValueError, match="rational"):
            valuation_family((1.5, 2))
        with pytest.raises(ValueError, match="at least 1"):
            valuation_family((Fraction(1, 2), 1))
        with pytest.raises(ValueError, match="valuation weights: need at least one weight"):
            valuation_family([])

    def test_valuation_rational_weights(self):
        f = valuation_family(("3/2", 2))
        assert f.ideal(3) == MonomialIdeal(2, ((2, 0), (0, 2), (1, 1)))

    def test_nilpair_sigma_level(self):
        f = nilpair_sigma_family(1, SCHEDULE)
        assert f.ideal(6) == NilPairIdeal(1, 6, 3)
        assert f.ideal(0) == NilPairIdeal(1, 0, 0)

    def test_nilpair_lengths(self):
        f = nilpair_sigma_family(1, SCHEDULE)
        assert Fraction(f.length(26), 26) == Fraction(3, 2)
        assert Fraction(f.length(209), 209) == 2 - Fraction(13, 209)
        d2 = nilpair_sigma_family(2, SCHEDULE)
        from math import comb
        assert d2.length(10) == comb(11, 2) + comb(10 - SCHEDULE.sigma(10) + 1, 2)

    def test_perturbed_agrees_with_nilpair(self):
        a = nilpair_sigma_family(3, SCHEDULE)
        b = perturbed_power_family(3, SCHEDULE)
        for n in (0, 1, 2, 7, 30, 100):
            assert a.ideal(n) == b.ideal(n)

    @pytest.mark.parametrize("build", [nilpair_sigma_family, perturbed_power_family,
                                       corrupted_sigma_family])
    def test_nilpair_too_deep_refused_before_any_level(self, monkeypatch, build):
        # a dim whose slice index cannot fit on the stack is refused by the
        # builder itself, before any level is built
        import gradedlimits.families as families

        def no_level(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(families, "NilPairIdeal", no_level)
        for dim in (600, 3000):
            with pytest.raises(RecursionError, match="recursion depth"):
                build(dim)

    def test_builders_refuse_non_integer_parameters(self):
        # an integral Fraction or float counts as an integer; anything else is refused
        assert artin_tau_family(2.0, SCHEDULE).length(2) == 3
        assert nilpair_sigma_family(Fraction(2), SCHEDULE).dim == 2
        with pytest.raises(ValueError, match="is not an integer"):
            artin_tau_family(1.5, SCHEDULE)
        with pytest.raises(ValueError, match="is not an integer"):
            nilpair_sigma_family(1.5, SCHEDULE)

    def test_artin_lengths(self):
        f = artin_tau_family(2, SCHEDULE)
        assert f.length(0) == 0
        for n in (1, 6, 210):
            assert f.length(n) == 2
        for n in (2, 5, 26, 209):
            assert f.length(n) == 3

    def test_saturation_family(self):
        f = saturation_family(MonomialIdeal(2, ((2, 0), (1, 1))))
        assert f.ideal(3) == MonomialIdeal(2, ((3, 0),))

    def test_symbolic_family(self):
        f = symbolic_family(MonomialIdeal(2, ((2, 0), (1, 1))),
                            MonomialIdeal(2, ((1, 0), (0, 1))))
        # I^2 = x^2 (x,y)^2 saturates to the bare (x^2)
        assert f.ideal(2) == MonomialIdeal(2, ((2, 0),))

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_symbolic_family_matches_colon_fixpoint(self, d, data):
        # the levels read the streamed powers; J = 0 included
        def draw_ideal(emax, size):
            return MonomialIdeal(d, tuple(data.draw(st.lists(
                st.tuples(*[st.integers(0, emax)] * d), min_size=size, max_size=3))))

        i, j = draw_ideal(3, 1), draw_ideal(2, 0)
        f = symbolic_family(i, j)
        for n in range(5):
            assert f.ideal(n) == symbolic_core_fixpoint(i, j, n)

    def test_power_family_keeps_no_old_power(self):
        f = power_family(MonomialIdeal(2, ((2, 0), (1, 1), (0, 2))))
        fifth = weakref.ref(f.ideal(5))
        length_sequence(f, 50)
        gc.collect()
        assert fifth() is None

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_power_builders_in_any_read_order(self, data):
        # the stream restarts from I^0 below its last power: shuffled,
        # descending and repeated reads give the same levels
        def draw_ideal(size):
            return MonomialIdeal(2, tuple(data.draw(st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=size, max_size=3))))

        i, j = draw_ideal(1), draw_ideal(0)
        ns = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=12))
        order = data.draw(st.sampled_from(["shuffled", "descending", "repeated"]))
        if order == "descending":
            ns = sorted(ns, reverse=True)
        elif order == "repeated":
            ns = [n for n in ns for _ in range(2)]
        families = (power_family(i), saturation_family(i), symbolic_family(i, j))
        for n in ns:
            i_n = power(i, n)
            assert [f.ideal(n) for f in families] == \
                [i_n, i_n.saturate(), colon_ideal_infinity(i_n, j)]

    @pytest.mark.parametrize("n", [4, 7, 30, 101])
    def test_powers_and_valuations_are_runs(self, n):
        # every corner of (x^2, y^3)^n is on one piece, and every corner of a
        # (1, 2) valuation ideal but perhaps the first: holds_products sums
        # these as progressions
        power = power_family(MonomialIdeal(2, ((2, 0), (0, 3)))).ideal(n)
        assert power._pieces == [(0, 3 * n, 2, -3, n + 1)]
        pieces = valuation_family((1, 2)).ideal(n)._pieces
        runs = [p for p in pieces if p[4] > 1]
        lone = [p for p in pieces if p[4] == 1]
        assert [r[2:4] for r in runs] == [(2, -1)] and len(lone) == n % 2
        assert all(p[2:4] == (1, -1) for p in lone)


class TestCheckGraded:
    def test_graded_totals_settle_without_a_pair(self, monkeypatch):
        # each total of the c11 polynomial, nilpotent-pair and Artin
        # families is settled by holds_products, so no pair's product is
        # built; the levels are built first, since the power builders multiply
        def refuse(self, other):
            raise AssertionError("total fell back to its pairs")

        fams = [power_family(MonomialIdeal(2, ((2, 0), (0, 3)))),
                valuation_family((1, 2)),
                saturation_family(MonomialIdeal(2, ((2, 0), (1, 1)))),
                symbolic_family(MonomialIdeal(2, ((2, 0), (1, 1))),
                                MonomialIdeal(2, ((1, 0), (0, 1)))),
                nilpair_sigma_family(1, SCHEDULE),
                perturbed_power_family(1, SCHEDULE),
                artin_tau_family(2, SCHEDULE)]
        built = [GradedFamily(fam.name, fam.dim, [fam.ideal(n) for n in range(51)].__getitem__)
                 for fam in fams]
        monkeypatch.setattr(MonomialIdeal, "__mul__", refuse)
        monkeypatch.setattr(NilPairIdeal, "__mul__", refuse)
        for fam in built:
            assert check_graded(fam, 50).ok, fam.name

    def test_graded_pairs_build_no_product(self, monkeypatch):
        # every pair of a graded d = 2 family is decided on the target's floor
        def refuse(self, other):
            raise AssertionError("product built")

        monkeypatch.setattr(MonomialIdeal, "__mul__", refuse)
        assert check_graded(valuation_family((1, 2)), 60).ok

    @pytest.mark.parametrize("horizon", [-1, 2.5, "3"])
    def test_bad_horizon_refused(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            check_graded(valuation_family((1, 2)), horizon)

    def test_integral_horizon_accepted(self):
        assert check_graded(valuation_family((1, 2)), Fraction(6)) == \
            check_graded(valuation_family((1, 2)), 6)
        assert check_graded(valuation_family((1, 2)), 0).checked_pairs == 0

    def test_power_family_passes(self):
        report = check_graded(power_family(max_ideal_power(2, 1)), 20)
        assert report.ok and report.checked_pairs == sum(t // 2 for t in range(2, 21))

    def test_builtins_pass(self):
        fams = [power_family(MonomialIdeal(2, ((2, 0), (0, 3)))),
                valuation_family((1, 2)),
                saturation_family(MonomialIdeal(2, ((2, 0), (1, 1)))),
                symbolic_family(MonomialIdeal(2, ((2, 0), (1, 1))),
                                MonomialIdeal(2, ((1, 0), (0, 1)))),
                nilpair_sigma_family(1, SCHEDULE),
                perturbed_power_family(1, SCHEDULE),
                artin_tau_family(2, SCHEDULE)]
        for fam in fams:
            assert check_graded(fam, 40).ok, fam.name

    def test_nilpair_sigma_deep(self):
        assert check_graded(nilpair_sigma_family(1, SCHEDULE), 210).ok

    def test_corrupted_fails_with_witness(self):
        report = check_graded(corrupted_sigma_family(1), 30)
        assert not report.ok
        a, b, witness = report.violations[0]
        assert "escapes" in witness and a + b <= 30
        assert report.violations[:2] == [(1, 3, "socle monomial (1,) escapes I_4"),
                                         (1, 4, "socle monomial (3,) escapes I_5")]

    def test_polynomial_violation_witness(self):
        # m^n except I_3 = m^4, so I_1 * I_2 = m^3 escapes I_3 first
        f = GradedFamily("broken_powers", 2,
                         lambda n: max_ideal_power(2, n + (n == 3)))
        report = check_graded(f, 10)
        assert report.violations == [(1, 2, "monomial (0, 3) escapes I_3")]

    def test_artin_violation_witness(self):
        # over k[y]/(y^3): I_1 = (y) but I_n = (y^3) = 0 for n >= 2
        f = GradedFamily("broken_artin", 0,
                         lambda n: MonomialIdeal(1, (({0: 0, 1: 1}.get(n, 3),),)))
        report = check_graded(f, 6)
        assert report.violations == [(1, 1, "monomial (2,) escapes I_2")]

    def test_unit_check_comes_first(self):
        f = GradedFamily("no_unit", 2, lambda n: max_ideal_power(2, n + 1))
        assert check_graded(f, 4).violations[0] == (0, 0, "I_0 is not the unit ideal")


class TestSemigroupBridge:
    def test_power_of_max_ideal(self):
        f = power_family(max_ideal_power(2, 1))
        report, levels = counting_identity(f, 12)
        assert report.ok
        assert len(levels[3]) == report.rows[2][3]

    def test_valuation_identity(self):
        f = valuation_family((1, 2))
        report, levels = counting_identity(f, 50)
        assert report.beta == 1
        assert report.ok
        # the levels really form a graded semigroup
        assert check_level_containments({n: levels[n] for n in range(1, 17)}) == []

    def test_corrupted_beta_flags_failure(self):
        # the complement of (x^2, y^3)^n reaches degree ~2n, so a unit box
        # bound undercounts and the identity must break
        f = power_family(MonomialIdeal(2, ((2, 0), (0, 3))))
        report, _ = counting_identity(f, 12, beta=1)
        assert not report.ok

    @pytest.mark.parametrize("family", [nilpair_sigma_family(1, SCHEDULE),
                                        artin_tau_family(2, SCHEDULE)],
                             ids=["nilpair", "artin"])
    def test_non_polynomial_models_rejected(self, family):
        assert not family.is_polynomial()
        with pytest.raises(ValueError, match="polynomial model"):
            counting_identity(family, 5, beta=2)
        with pytest.raises(ValueError, match="polynomial model"):
            volume_equals_multiplicity(family, [1, 2], 10)

    def test_requires_primary_levels(self):
        f = saturation_family(MonomialIdeal(2, ((2, 0), (1, 1))))
        with pytest.raises(ValueError, match="primary"):
            counting_identity(f, 5, beta=2)
        with pytest.raises(ValueError, match="level 1 is not primary"):
            counting_identity(f, 5)

    @pytest.mark.parametrize("family", [
        power_family(MonomialIdeal(2, ((2, 0), (0, 3)))),
        power_family(MonomialIdeal(3, ((2, 0, 0), (0, 1, 1), (0, 3, 0), (0, 0, 2)))),
        valuation_family((1, 2)),
        valuation_family(("3/2", 1, "5/2")),
        saturation_family(MonomialIdeal(2, ((2, 0), (0, 3), (1, 1)))),
        symbolic_family(MonomialIdeal(2, ((3, 0), (1, 1), (0, 2))),
                        MonomialIdeal(2, ((1, 0), (0, 1)))),
    ], ids=["power-d2", "power-d3", "valuation-d2", "valuation-d3",
            "saturation", "symbolic"])
    def test_default_box_is_madic_order_of_level_one(self, family):
        # the paper's c: m^c inside I_1 gives m^{cn} inside I_1^n inside I_n.
        # An m-primary saturation or symbolic level is the unit ideal, so
        # those two run with c = 0
        report, _ = counting_identity(family, 8)
        assert report.beta == madic_order(family.ideal(1))
        assert report.ok

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_horizon_and_box_by_the_integer_rule(self, bad):
        f = valuation_family((1, 2))
        assert counting_identity(f, 3.0, beta=2.0) == counting_identity(f, 3, beta=2)
        assert type(counting_identity(f, 3, beta=2.0)[0].beta) is int
        with pytest.raises(ValueError, match=re.escape(f"horizon is not an integer: {bad!r}")):
            counting_identity(f, bad)
        with pytest.raises(ValueError, match=re.escape(f"beta is not an integer: {bad!r}")):
            counting_identity(f, 3, beta=bad)

    def test_scaled_counts_approach_limit(self):
        # the level counts recover the length asymptotics:
        # box simplex count minus member count equals the colength
        f = valuation_family((1, 2))
        report, _ = counting_identity(f, 40)
        n, ell, box, members, ok = report.rows[-1]
        assert ok and ell == box - members

