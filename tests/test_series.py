import math
from fractions import Fraction

import pytest

from gradedlimits.families import BlockSchedule
from gradedlimits.series import (
    NEG_INF,
    MonomialLinearSeries,
    WeightedAmbient,
    artin_tau_series,
    ceil_log,
    closure_violations,
    count_weighted_monomials,
    dims,
    full_weighted_series,
    index_estimate,
    kodaira_iitaka,
    log_nil_series,
    nil_hyperplane_series,
    series_invariants,
    series_to_semigroup,
    sigma_growth_series,
    tau_pulse_series,
    veronese,
    weighted_monomials,
)

SCHEDULE = BlockSchedule.default(210)


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
            assert s.dim(n) == 1 + (n + sig + 1)
            assert s.dim(n) == s.expected_dim(n)

    def test_sigma_series_levels_are_weighted_correct(self):
        s = sigma_growth_series(1, 2, SCHEDULE, weights=(1, 1, 2), e=3, horizon=30)
        for n in (1, 2, 9, 30):
            assert s.dim(n) == s.expected_dim(n)

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

    def test_degree_consistency_is_enforced(self):
        ambient = WeightedAmbient((1, 1))
        bad = MonomialLinearSeries("bad", ambient, 1,
                                   lambda n: [((n + 1, 0), False)], 10)
        with pytest.raises(ValueError, match="degree"):
            bad.level(1)


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
        for s in all_builders(60):
            assert kodaira_iitaka(s, 60)[0] == s.declared_kappa


class TestIndex:
    def test_even_support(self):
        s = log_nil_series(lambda n: True, 60)
        ambient = s.ambient

        def evens_only(n):
            return s.level(n) if n % 2 == 0 else frozenset()

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


class TestClosure:
    def test_all_builders_closed(self):
        for s in all_builders(50):
            assert closure_violations(s, 50) == [], s.name

    def test_violation_detected(self):
        ambient = WeightedAmbient((1, 1))

        def provider(n):
            # drops the pure power of the first variable at level 2
            if n == 2:
                return [((1, 1), False), ((0, 2), False)]
            return [((a, n - a), False) for a in range(n + 1)]

        broken = MonomialLinearSeries("broken", ambient, 1, provider, 10)
        assert closure_violations(broken, 4) == [
            (1, 1, "((1, 0), False) * ((1, 0), False) escapes level 2"),
        ]

    def test_violations_under_stride_sampling(self):
        # level pairs here exceed the 64-pair cap, so the reported witness
        # of each (a, b) is the first escaping pair in the strided order
        ambient = WeightedAmbient((1, 1, 1))

        def provider(n):
            mons = [((a, b, n - a - b), False)
                    for a in range(n + 1) for b in range(n - a + 1)]
            if n == 12:
                mons = [m for m in mons if m[0][0] < 6]
            return mons

        broken = MonomialLinearSeries("sampled", ambient, 1, provider, 12)
        assert closure_violations(broken, 12) == [
            (1, 11, "((0, 0, 1), False) * ((6, 0, 5), False) escapes level 12"),
            (2, 10, "((0, 0, 2), False) * ((6, 3, 1), False) escapes level 12"),
            (3, 9, "((0, 0, 3), False) * ((6, 3, 0), False) escapes level 12"),
            (4, 8, "((0, 0, 4), False) * ((6, 1, 1), False) escapes level 12"),
            (5, 7, "((0, 0, 5), False) * ((6, 0, 1), False) escapes level 12"),
            (6, 6, "((2, 2, 2), False) * ((4, 2, 0), False) escapes level 12"),
        ]


class TestSemigroupView:
    def test_full_model_counts(self):
        s = full_weighted_series((1, 1), 60)
        sg, excluded = series_to_semigroup(s)
        assert not excluded
        for n in (1, 5, 17):
            assert len(sg.level(n)) == s.dim(n) == n + 1

    def test_nil_series_is_flagged(self):
        s = nil_hyperplane_series(("mod", 3, (0,)), 2, 30)
        sg, excluded = series_to_semigroup(s)
        assert excluded
        assert len(sg.level(3)) == 0

    def test_even_exponent_series_invariants(self):
        from gradedlimits.semigroup import invariants

        ambient = WeightedAmbient((1, 1))
        even = MonomialLinearSeries(
            "even_exponents", ambient, 2,
            lambda n: [((2 * a, 2 * (n - a)), False) for a in range(n + 1)], 40)
        sg, _ = series_to_semigroup(even)
        regen = None
        from gradedlimits.semigroup import GradedSemigroup
        regen = GradedSemigroup(2, generators=[(pt, 1) for pt in sg.level(1)])
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
                                      lambda n: [((n,), False)], 120)
        assert kodaira_iitaka(stable, 40)[0] == 0
        vals = dims(stable, 120)
        assert all(v == vals[-1] for v in vals[60:])

    def test_invariants_report(self):
        s = sigma_growth_series(0, 1, SCHEDULE, horizon=210)
        inv = series_invariants(s)
        assert inv.kappa == 0 and inv.index_estimate == 1
        assert not inv.horizon_dependent
