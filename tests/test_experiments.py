import math
import re
from fractions import Fraction

import pytest

from gradedlimits.experiments import (
    CONVERGES,
    INCONCLUSIVE,
    OSCILLATES,
    ScaledSequence,
    convergence_report,
    dim_sequence,
    length_sequence,
    saturation_gap_sequence,
    semigroup_limit_report,
    volume_equals_multiplicity,
)
from gradedlimits.families import (
    BlockSchedule,
    artin_tau_family,
    nilpair_sigma_family,
    power_family,
    valuation_family,
)
from gradedlimits.monomial import MonomialIdeal, madic_order
from gradedlimits import semigroup
from gradedlimits.semigroup import GradedSemigroup
from gradedlimits.series import (
    MonomialLinearSeries,
    WeightedAmbient,
    sigma_growth_series,
)
from oracles import max_ideal_power, semigroup_limit_suite, smallest_converging_modulus

SCHEDULE = BlockSchedule.default(210)


def synthetic(values):
    entries = tuple((n, Fraction(v), Fraction(v)) for n, v in enumerate(values, 1))
    return ScaledSequence("synthetic", 0, "raw", entries)


class TestVerdictPolicy:
    def test_flat_sequence_converges(self):
        rep = convergence_report(synthetic([Fraction(1, 2)] * 64), 2)
        assert rep.all_verdicts(CONVERGES)
        assert rep.overall.limit_estimate == Fraction(1, 2)

    def test_two_level_jump_oscillates(self):
        vals = [Fraction(1)] * 32 + [Fraction(2)] * 32
        rep = convergence_report(synthetic(vals), 2)
        assert rep.overall.verdict == OSCILLATES

    def test_slow_decay_is_inconclusive_not_oscillating(self):
        vals = [1 + Fraction(1, n) for n in range(1, 65)]
        rep = convergence_report(synthetic(vals), 1)
        assert rep.overall.verdict == INCONCLUSIVE

    def test_decay_converges_at_large_horizon(self):
        vals = [1 + Fraction(1, n) for n in range(1, 501)]
        rep = convergence_report(synthetic(vals), 1)
        assert rep.overall.verdict == CONVERGES

    @pytest.mark.parametrize("max_modulus", [0, -2])
    def test_no_classes_refused(self, max_modulus):
        with pytest.raises(ValueError, match="max_modulus must be at least 1"):
            convergence_report(synthetic([1, 2, 3, 4]), max_modulus)

    def test_non_integer_modulus_refused(self):
        seq = synthetic([Fraction(1, 2)] * 64)
        with pytest.raises(ValueError, match="max_modulus is not an integer: 2.5"):
            convergence_report(seq, 2.5)
        assert convergence_report(seq, 2.0) == convergence_report(seq, 2)

    def test_insufficient_data(self):
        rep = convergence_report(synthetic([1, 2, 3]), 2)
        assert all(c.verdict == INCONCLUSIVE for c in rep.classes)

    def test_liminf_le_limsup(self):
        vals = [Fraction((-1) ** n, 7) + 2 for n in range(1, 100)]
        rep = convergence_report(synthetic(vals), 4)
        for c in rep.classes:
            if c.liminf_est is not None:
                assert c.liminf_est <= c.limsup_est
        assert rep.overall.verdict == OSCILLATES

    def test_oscillation_spread_exceeds_twice_tol(self):
        for vals in ([Fraction(1)] * 32 + [Fraction(2)] * 32,
                     [Fraction((-1) ** n, 7) + 2 for n in range(1, 100)]):
            rep = convergence_report(synthetic(vals), 1)
            c = rep.overall
            assert c.verdict == OSCILLATES
            assert c.limsup_est - c.liminf_est > 2 * rep.tol


class TestLengthSequences:
    def test_power_family_values(self):
        f = power_family(max_ideal_power(2, 1))
        seq = length_sequence(f, 10)
        assert seq.entries[-1] == (10, 55, Fraction(55, 100))
        assert seq.normalization == "length/n^2"

    def test_nilpair_values(self):
        f = nilpair_sigma_family(1, SCHEDULE)
        seq = length_sequence(f, 210)
        scaled = {n: v for n, _, v in seq.entries}
        assert scaled[26] == Fraction(3, 2)
        assert scaled[209] == 2 - Fraction(13, 209)

    def test_artin_unscaled(self):
        f = artin_tau_family(2, SCHEDULE)
        seq = length_sequence(f, 30)
        assert seq.exponent == 0
        assert set(v for _, _, v in seq.entries) == {2, 3}

    def test_infinite_length_reports_level(self):
        from gradedlimits.families import saturation_family
        f = saturation_family(MonomialIdeal(2, ((2, 0), (1, 1))))
        with pytest.raises(ValueError, match="level 1"):
            length_sequence(f, 5)

    def test_no_indices_refused(self):
        with pytest.raises(ValueError, match="no entries"):
            synthetic([])

    def test_integral_horizon_accepted(self):
        f = valuation_family((1, 2))
        assert length_sequence(f, 3.0) == length_sequence(f, 3)
        with pytest.raises(ValueError, match="horizon is not an integer: 2.5"):
            length_sequence(f, 2.5)
        with pytest.raises(ValueError, match="horizon must be at least 1, got 0"):
            length_sequence(f, 0)

    def test_sparse_ns(self):
        # one far level, read alone
        assert valuation_family((1, 2)).length(2000) == 1001000

    def test_boundedness_by_containment(self):
        # m^{cn} inside I_n bounds the scaled lengths by the m-power count
        for f in (power_family(MonomialIdeal(2, ((2, 0), (0, 3)))),
                  valuation_family((1, 2))):
            seq = length_sequence(f, 60)
            c, d = madic_order(f.ideal(1)), f.dim
            for n, raw, _ in seq.entries:
                assert raw <= math.comb(c * n + d - 1, d)


class TestVerdictSoundness:
    def test_convergent_fixtures_never_oscillate(self):
        f1 = power_family(max_ideal_power(2, 1))
        f2 = valuation_family((1, 2))
        for f, horizon in ((f1, 160), (f2, 200)):
            rep = convergence_report(length_sequence(f, horizon), 4)
            assert all(c.verdict != OSCILLATES for c in rep.classes)
        eps = saturation_gap_sequence(MonomialIdeal(2, ((2, 0), (1, 1))), 320)
        assert all(c.verdict != OSCILLATES for c in convergence_report(eps).classes)

    def test_oscillating_fixtures_never_converge(self):
        seq1 = length_sequence(nilpair_sigma_family(1, SCHEDULE), 210)
        seq2 = length_sequence(artin_tau_family(2, SCHEDULE), 420)
        seq3 = dim_sequence(sigma_growth_series(0, 1, SCHEDULE, horizon=210), 210, 1)
        for seq in (seq1, seq2, seq3):
            rep = convergence_report(seq, 4)
            assert all(c.verdict != CONVERGES for c in rep.classes)

    def test_smallest_converging_modulus(self):
        vals = [Fraction(2 + (n % 2), 1) for n in range(1, 200)]
        seq = synthetic(vals)
        assert smallest_converging_modulus(seq, 4) == 2
        assert smallest_converging_modulus(
            synthetic([Fraction(1, 2)] * 64), 4) == 1

    def test_low_dimensional_nil_part_converges(self):
        # nil growth strictly below kappa: dims/n^kappa converge per class
        ambient = WeightedAmbient((1, 1, 1), nil_degree=1,
                                  nil_annihilates_base=True)

        def provider(n):
            from gradedlimits.series import Block
            out = [Block((0, 0, 0), False, 3, n)]
            if SCHEDULE.tau(n):
                out.append(Block((n - 1, 0, 0), True))
            return out

        series = MonomialLinearSeries("bounded_nil", ambient, 1, provider, 160)
        from gradedlimits.series import closure_violations, kodaira_iitaka
        assert closure_violations(series, 40) == []
        assert kodaira_iitaka(series, 40)[0] == 2
        rep = convergence_report(dim_sequence(series, 160, 2), 4)
        assert rep.all_verdicts(CONVERGES)


class TestSemigroupReport:
    def test_halfstep_report(self):
        s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 2)])
        rep = semigroup_limit_report(s, 400)
        assert rep.invariants.predicted_limit == Fraction(1, 2)
        assert rep.within_tol
        by_p = {t.p: t for t in rep.truncations}
        assert by_p[1].dimension_drop
        for p in (2, 4, 8):
            assert by_p[p].rescaled_limit == Fraction(1, 2)
            assert not by_p[p].dimension_drop

    def test_integral_horizon_accepted(self):
        s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 1)])
        assert semigroup_limit_report(s, 3.0) == semigroup_limit_report(s, 3)

    @pytest.mark.parametrize("horizon, message", [
        (2.5, "not an integer"), ("3", "not an integer"),
        pytest.param(0, "horizon must be at least 1, got 0", id="0-below 1")])
    def test_bad_horizon_refused(self, horizon, message):
        s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 1)])
        with pytest.raises(ValueError, match=message):
            semigroup_limit_report(s, horizon)

    def test_invariants_once_per_semigroup(self, monkeypatch):
        # one call for S and one per truncation; truncate reads m directly
        calls = []
        real = semigroup.invariants

        def counted(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(semigroup, "invariants", counted)
        s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 2)])
        semigroup_limit_report(s, 100, (1, 2, 4, 8))
        assert len(calls) == 5
        assert calls.count(s) == 1

    def test_suite_over_fixtures(self):
        fixtures = [GradedSemigroup(1, generators=[((0,), 1), ((1,), 1)]),
                    GradedSemigroup(1, generators=[((0,), 2), ((2,), 2)]),
                    GradedSemigroup(1, generators=[((0,), 1), ((1,), 2)])]
        reports = semigroup_limit_suite(fixtures, 300)
        assert [r.invariants.predicted_limit for r in reports] == \
            [Fraction(1), Fraction(1), Fraction(1, 2)]
        assert all(r.within_tol for r in reports)


class TestVolMult:
    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_powers_by_the_integer_rule(self, bad):
        f = valuation_family((1, 2))
        rep = volume_equals_multiplicity(f, [2.0], 10)
        assert rep == volume_equals_multiplicity(f, [2], 10)
        assert type(rep.rows[0][0]) is int
        with pytest.raises(ValueError, match=re.escape(f"power p is not an integer: {bad!r}")):
            volume_equals_multiplicity(f, [bad], 10)
        with pytest.raises(ValueError, match="power p must be at least 1, got 0"):
            volume_equals_multiplicity(f, [2, 0], 10)

    def test_valuation_even_powers(self):
        rep = volume_equals_multiplicity(valuation_family((1, 2)), [2, 4, 8], 600)
        assert all(rhs == Fraction(1, 2) for _, rhs, _ in rep.rows)
        assert abs(rep.lhs - Fraction(1, 2)) < Fraction(1, 100)

    def test_power_staircase(self):
        rep = volume_equals_multiplicity(
            power_family(MonomialIdeal(2, ((2, 0), (0, 3)))), [1, 2, 4], 300)
        assert all(rhs == 6 for _, rhs, _ in rep.rows)
        assert abs(rep.lhs - 6) <= Fraction(12, 100) * 6

    def test_max_ideal_both_sides_one(self):
        rep = volume_equals_multiplicity(power_family(max_ideal_power(2, 1)),
                                         [1, 2, 4, 8], 200)
        assert all(rhs == 1 for _, rhs, _ in rep.rows)
        assert abs(rep.lhs - 1) < Fraction(2, 100)

    def test_horizon_below_one_refused(self):
        with pytest.raises(ValueError, match="horizon must be at least 1, got 0"):
            volume_equals_multiplicity(valuation_family((1, 2)), [2], 0)


class TestEps:
    X2_XY = MonomialIdeal(2, ((2, 0), (1, 1)))

    def test_x2_xy(self):
        seq = saturation_gap_sequence(self.X2_XY, 200)
        assert seq.entries[-1][::2] == (200, Fraction(2 * math.comb(201, 2), 200 ** 2))
        assert convergence_report(seq).overall.verdict == CONVERGES

    def test_m_primary_tracks_multiplicity(self):
        # the saturation of an m-primary ideal is the unit ideal, so the
        # sequence is the full scaled colength and converges to e(I)
        from gradedlimits.monomial import multiplicity
        i = MonomialIdeal(2, ((2, 0), (0, 3)))
        seq = saturation_gap_sequence(i, 120)
        n, _, scaled = seq.entries[-1]
        assert n == 120 and abs(scaled - multiplicity(i)) < Fraction(1, 4)

    def test_horizon_below_one_refused(self):
        with pytest.raises(ValueError, match="horizon must be at least 1, got -3"):
            saturation_gap_sequence(self.X2_XY, -3)

    def test_non_integer_horizon_refused(self):
        with pytest.raises(ValueError, match="horizon is not an integer: 2.5"):
            saturation_gap_sequence(self.X2_XY, 2.5)

    def test_principal_all_zero(self):
        seq = saturation_gap_sequence(MonomialIdeal(2, ((1, 0),)), 40)
        assert all(v == 0 for _, _, v in seq.entries)
        assert convergence_report(seq).overall.limit_estimate == 0