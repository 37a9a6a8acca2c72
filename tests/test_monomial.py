import itertools
import random
import re
import sys
from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gradedlimits.monomial import (
    MonomialIdeal,
    NilPairIdeal,
    colength,
    colon_monomial_infinity,
    madic_order,
    max_standard_degree,
    minimal_generators,
    multiplicity,
    saturation_quotient_colength,
    unit_ideal,
)
from oracles import (
    colength_bruteforce,
    colon,
    colon_bruteforce,
    is_m_primary_by_support,
    max_ideal_power,
    monomial_colon,
    multiplicity_limit_sequence,
    power,
    saturate_by_colon_fixpoint,
    saturation_quotient_bruteforce,
    symbolic_core,
    symbolic_core_fixpoint,
)
from test_values import exponent_sets, oracle_minimal, run_staircases, staircases


def ideal(*gens):
    return MonomialIdeal(len(gens[0]), gens)


def random_m_primary(rng, d, emax=6):
    gens = [tuple(rng.randint(1, emax) if j == i else 0 for j in range(d))
            for i in range(d)]
    for _ in range(rng.randint(0, 4)):
        gens.append(tuple(rng.randint(0, emax) for _ in range(d)))
    return MonomialIdeal(d, tuple(gens))


class TestArithmetic:
    def test_minimality_and_order(self):
        i = ideal((2, 0), (2, 1), (0, 3))
        assert i.gens == ((0, 3), (2, 0))

    def test_power_square(self):
        assert power(ideal((1, 0), (0, 1)), 2).gens == ((0, 2), (1, 1), (2, 0))
        assert power(ideal((1, 0), (0, 1)), 2.0) == power(ideal((1, 0), (0, 1)), 2)

    @pytest.mark.parametrize("n, message", [(2.5, "not an integer"), ("2", "not an integer"),
                                            pytest.param(-1, "power must be at least 0, got -1",
                                                         id="-1-negative power")])
    def test_bad_power_refused(self, n, message):
        with pytest.raises(ValueError, match=message):
            power(ideal((1, 0), (0, 1)), n)

    def test_intersect(self):
        assert ideal((1, 0)).intersect(ideal((0, 1))).gens == ((1, 1),)

    def test_colon_by_monomial(self):
        assert monomial_colon(ideal((2, 0), (1, 1)), (1, 0)).gens == ((0, 1), (1, 0))

    def test_colon_by_ideal(self):
        i = ideal((2, 0), (1, 1))
        j = ideal((1, 0), (0, 1))
        assert colon(i, j).gens == ((1, 0),)

    @pytest.mark.parametrize("colon_by, u, message", [
        ("monomial", (-1, 0), "exponent must be at least 0, got -1"),
        ("monomial", (1, 0, 5), "wrong number of variables"),
        ("infinity", (0,), "wrong number of variables"),
        ("infinity", (0, 0, 1), "wrong number of variables"),
    ], ids=["monomial-negative", "monomial-long", "infinity-short", "infinity-long"])
    def test_colon_rejects_malformed_monomial(self, colon_by, u, message):
        i = ideal((2, 0), (1, 1))
        with pytest.raises(ValueError, match=message):
            if colon_by == "monomial":
                monomial_colon(i, u)
            else:
                colon_monomial_infinity(i, u)

    def test_non_integer_exponent_rejected(self):
        # an integral Fraction counts as an integer; anything else is refused
        assert MonomialIdeal(2, ((Fraction(2, 1), 0), (0, 2))).gens == ((0, 2), (2, 0))
        with pytest.raises(ValueError, match="exponent is not an integer: 1.5"):
            MonomialIdeal(2, ((1.5, 0), (0, 2)))
        with pytest.raises(ValueError, match=r"exponent is not an integer: Fraction\(1, 2\)"):
            monomial_colon(ideal((2, 0), (1, 1)), (Fraction(1, 2), 0))

    def test_mismatched_vars(self):
        with pytest.raises(ValueError, match="variables"):
            ideal((1, 0)) + MonomialIdeal(3, ((1, 0, 0),))

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_num_vars_by_the_integer_rule(self, bad):
        i = MonomialIdeal(2.0, ((1, 0), (0, 1)))
        assert i == MonomialIdeal(2, ((1, 0), (0, 1))) and type(i.num_vars) is int
        assert not i.is_unit() and unit_ideal(2.0) == unit_ideal(2)
        assert unit_ideal(2.0).is_unit() and type(unit_ideal(2.0).num_vars) is int
        for build in (lambda v: MonomialIdeal(v, ((1, 0), (0, 1))), unit_ideal):
            with pytest.raises(ValueError, match=re.escape(f"num_vars is not an integer: {bad!r}")):
                build(bad)
        with pytest.raises(ValueError, match="num_vars must be at least 1, got 0"):
            MonomialIdeal(0, ())

    def test_unit_and_zero(self):
        assert unit_ideal(2).is_unit()
        assert MonomialIdeal(2, ()).is_zero()
        assert (MonomialIdeal(2, ()) * ideal((1, 0))).is_zero()

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=50, deadline=None)
    def test_colon_product_adjunction(self, d, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        i = random_m_primary(rng, d)
        v = tuple(rng.randint(0, 4) for _ in range(d))
        u = tuple(rng.randint(0, 4) for _ in range(d))
        in_colon = monomial_colon(i, v).contains(u)
        product = tuple(a + b for a, b in zip(u, v))
        assert in_colon == i.contains(product)


def divides(g, m):
    return all(a <= b for a, b in zip(g, m))


class TestKernelOracles:
    """Staircase (d <= 2) and last-variable slice sweep (d >= 3) kernels against
    brute force."""

    @given(st.data(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_minimal_generators(self, data, d):
        cands = data.draw(exponent_sets(d, max_size=20))
        assert minimal_generators(cands) == oracle_minimal(cands)

    @given(st.data(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_contains(self, data, d):
        i = MonomialIdeal(d, tuple(data.draw(exponent_sets(d))))
        m = data.draw(st.tuples(*[st.integers(0, 10)] * d))
        assert i.contains(m) == any(divides(g, m) for g in i.gens)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_colon_monomial(self, data, d):
        i = MonomialIdeal(d, tuple(data.draw(exponent_sets(d))))
        u = data.draw(st.tuples(*[st.integers(0, 10)] * d))
        assert monomial_colon(i, u) == colon_bruteforce(i, u)

    @given(run_staircases(), run_staircases())
    @settings(max_examples=300, deadline=None)
    def test_run_product(self, i, j):
        # staircases made of runs, which random staircases almost never
        # hold, split into the pieces that holds_products sums
        for ideal_ in (i, j):
            corners = [(x + k * dx, y + k * dy) for x, y, dx, dy, n in ideal_._pieces
                       for k in range(n)]
            assert all(n == 1 or n >= 3 for *_, n in ideal_._pieces)
            assert corners == list(ideal_.gens)
        sums = [(g[0] + h[0], g[1] + h[1]) for g in i.gens for h in j.gens]
        assert (i * j).gens == oracle_minimal(sums)

    def test_floor(self):
        # (0, 3), (2, 1), (3, 0) shifted to start at x = 1
        assert ideal((1, 3), (3, 1), (4, 0))._floor == [3, 3, 1, 0]
        assert ideal((0, 0))._floor == [0]
        assert MonomialIdeal(2, ())._floor is None
        # at most 8 floor entries per corner: 16 for two corners
        assert len(ideal((0, 1), (15, 0))._floor) == 16
        assert ideal((0, 1), (16, 0))._floor is None

    @given(st.data(), st.integers(1, 2))
    @settings(max_examples=150, deadline=None)
    def test_max_exponent(self, data, d):
        i = data.draw(staircases(d))
        assert i.max_exponent() == max((e for g in i.gens for e in g), default=0)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_colon_infinity_staircase_ends(self, data):
        # the d = 2 closed form against the colon fixpoint, on zero, unit and
        # non-m-primary ideals alike
        i = MonomialIdeal(2, tuple(data.draw(exponent_sets(2))))
        u = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        assert colon_monomial_infinity(i, u) == symbolic_core_fixpoint(i, ideal(u), 1)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_matches_checked_constructor(self, data, d):
        i = MonomialIdeal(d, tuple(data.draw(exponent_sets(d))))
        j = MonomialIdeal(d, tuple(data.draw(exponent_sets(d))))

        def checked_meet(a, b):
            return MonomialIdeal(d, tuple(tuple(max(x, y) for x, y in zip(g, h))
                                          for g in a.gens for h in b.gens))

        assert i * j == MonomialIdeal(d, tuple(tuple(x + y for x, y in zip(g, h))
                                               for g in i.gens for h in j.gens))
        assert i + j == MonomialIdeal(d, i.gens + j.gens)
        assert i.intersect(j) == checked_meet(i, j)
        dropped = [MonomialIdeal(d, tuple(g[:k] + (0,) + g[k + 1:] for g in i.gens))
                   for k in range(d)]
        assert i.saturate() == (i if i.is_zero() else reduce(checked_meet, dropped))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_staircase_closed_forms(self, data):
        pure = [(data.draw(st.integers(1, 8)), 0), (0, data.draw(st.integers(1, 8)))]
        i = MonomialIdeal(2, tuple(pure + data.draw(exponent_sets(2))))
        box = itertools.product(range(i.gens[-1][0]), range(i.gens[0][1]))
        standard = [p for p in box if not any(divides(g, p) for g in i.gens)]
        assert colength(i) == colength_bruteforce(i) == len(standard)
        assert max_standard_degree(i) == max((sum(p) for p in standard), default=-1)

    @given(st.data(), st.integers(3, 4))
    @settings(max_examples=150, deadline=None)
    def test_slice_index_membership(self, data, d):
        # any ideal, m-primary or not, the zero ideal included
        i = MonomialIdeal(d, tuple(data.draw(exponent_sets(d))))
        for _ in range(5):
            m = data.draw(st.tuples(*[st.integers(0, 10)] * d))
            assert i.contains(m) == any(divides(g, m) for g in i.gens)
        j = MonomialIdeal(d, tuple(data.draw(exponent_sets(d, max_size=6))))
        shifted = MonomialIdeal(d, tuple(tuple(e + data.draw(st.integers(0, 2)) for e in g)
                                         for g in i.gens))
        for other in (j, shifted):
            assert (other.first_escape(i) is None) == all(any(divides(g, h) for g in i.gens)
                                                          for h in other.gens)
        assert shifted.first_escape(i) is None

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_first_escape_is_first_generator_outside(self, data, d):
        i = MonomialIdeal(d, tuple(data.draw(exponent_sets(d, max_size=6))))
        j = MonomialIdeal(d, tuple(data.draw(exponent_sets(d, max_size=6))))
        outside = [g for g in j.gens if not any(divides(h, g) for h in i.gens)]
        expected = f"monomial {outside[0]}" if outside else None
        assert j.first_escape(i) == expected
        rejected = [g for g in j.gens if not i.contains(g)]
        assert expected == (f"monomial {rejected[0]}" if rejected else None)

    def test_too_many_variables_for_the_stack(self):
        # membership alone would fit (one frame per variable), but the
        # minimalization and colength sweeps would not: the constructor
        # refuses the ideal, and an ideal built without minimalization is
        # refused before any slice is built
        d = sys.getrecursionlimit() * 2 // 3
        with pytest.raises(RecursionError, match="too deep for the recursion depth"):
            unit_ideal(d).contains((0,) * d)
        with pytest.raises(RecursionError, match="too deep for the recursion depth"):
            max_ideal_power(d, 1).contains((0,) * d)
        assert unit_ideal(40).contains((0,) * 40)

    def test_stack_checked_once_per_minimalization(self, monkeypatch):
        # the slice sweep recurses once per variable without walking the stack again
        import gradedlimits.monomial as monomial

        calls = []
        real = monomial.check_stack_depth
        monkeypatch.setattr(monomial, "check_stack_depth",
                            lambda d: calls.append(d) or real(d))
        units = [tuple(int(i == j) for i in range(40)) for j in range(8)]
        assert minimal_generators(units) == tuple(sorted(units))
        assert calls == [40]

    @given(st.data(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_m_primary(self, data, d):
        # zero, unit, m-primary and not m-primary ideals alike
        pure = data.draw(st.lists(st.sampled_from(range(d)), max_size=d))
        gens = [tuple(data.draw(st.integers(1, 8)) if j == i else 0 for j in range(d))
                for i in pure]
        i = MonomialIdeal(d, tuple(gens + data.draw(exponent_sets(d, max_size=6))))
        assert i.is_m_primary() == is_m_primary_by_support(i)
        for special in (MonomialIdeal(d, ()), unit_ideal(d)):
            assert special.is_m_primary() == is_m_primary_by_support(special)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_contains_rejects_wrong_length(self, d):
        i = MonomialIdeal(d, ((1,) * d,))
        for m in ((5,) * (d - 1), (5,) * (d + 1)):
            with pytest.raises(ValueError, match="variables"):
                i.contains(m)


class TestSaturation:
    def test_spec_examples(self):
        assert ideal((2, 0), (1, 1)).saturate().gens == ((1, 0),)
        assert ideal((2, 0), (0, 3)).saturate().is_unit()
        assert ideal((1, 0)).saturate().gens == ((1, 0),)

    def test_idempotent_and_contains(self):
        rng = random.Random(23)
        for _ in range(30):
            d = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 4) for _ in range(d))
                    for _ in range(rng.randint(1, 4))]
            i = MonomialIdeal(d, tuple(gens))
            s = i.saturate()
            assert s.saturate() == s
            assert i.first_escape(s) is None

    def test_matches_colon_fixpoint(self):
        rng = random.Random(29)
        for _ in range(30):
            d = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 4) for _ in range(d))
                    for _ in range(rng.randint(1, 4))]
            i = MonomialIdeal(d, tuple(gens))
            assert i.saturate() == saturate_by_colon_fixpoint(i)

    @given(st.data(), st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_staircase_ends_match_colon_fixpoint(self, data, d):
        # zero, unit, m-primary and non-m-primary ideals alike
        gens = data.draw(st.one_of(st.just([]), st.just([(0,) * d]), exponent_sets(d)))
        i = MonomialIdeal(d, tuple(gens))
        assert i.saturate() == saturate_by_colon_fixpoint(i)

    @given(st.data(), st.integers(3, 4))
    @settings(max_examples=150, deadline=None)
    def test_unused_variables_match_colon_fixpoint(self, data, d):
        # the variables drawn here appear in no generator, so I^sat = I
        unused = data.draw(st.sets(st.integers(0, d - 1)))
        gens = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=1, max_size=6))
        i = MonomialIdeal(d, tuple(tuple(0 if j in unused else e for j, e in enumerate(g))
                                   for g in gens))
        assert i.saturate() == saturate_by_colon_fixpoint(i)

    def test_symbolic_core(self):
        assert symbolic_core(ideal((2, 0), (1, 1)), ideal((1, 0), (0, 1)), 2).gens == ((2, 0),)
        assert symbolic_core(ideal((1, 0)), ideal((0, 1)), 3).gens == ((3, 0),)
        assert symbolic_core(ideal((1, 1)), ideal((1, 0)), 1).gens == ((0, 1),)

    def test_symbolic_matches_colon_fixpoint(self):
        rng = random.Random(53)
        for _ in range(30):
            d = rng.randint(1, 3)
            i = MonomialIdeal(d, tuple(tuple(rng.randint(0, 3) for _ in range(d))
                                       for _ in range(rng.randint(1, 3))))
            j = MonomialIdeal(d, tuple(tuple(rng.randint(0, 2) for _ in range(d))
                                       for _ in range(rng.randint(1, 2))))
            n = rng.randint(1, 3)
            assert symbolic_core(i, j, n) == symbolic_core_fixpoint(i, j, n)


class TestColength:
    def test_primary_detection(self):
        assert ideal((2, 0), (0, 3)).is_m_primary()
        assert not ideal((1, 0)).is_m_primary()
        assert unit_ideal(2).is_m_primary()

    def test_simple(self):
        assert colength(ideal((2, 0), (0, 3))) == 6
        assert colength(unit_ideal(3)) == 0

    def test_max_ideal_powers(self):
        for d in (1, 2, 3, 4):
            for n in (1, 2, 7, 23):
                assert colength(max_ideal_power(d, n)) == comb(n + d - 1, d)
                if n <= 7:
                    # the stars-and-bars monomials are the degree-n points
                    box = itertools.product(range(n + 1), repeat=d)
                    assert max_ideal_power(d, n) == \
                        MonomialIdeal(d, tuple(p for p in box if sum(p) == n))

    def test_infinite(self):
        with pytest.raises(ValueError, match="infinite colength"):
            colength(ideal((1, 0)))
        with pytest.raises(ValueError, match="infinite colength"):
            colength(MonomialIdeal(2, ()))

    def test_against_bruteforce(self):
        rng = random.Random(31)
        for _ in range(200):
            i = random_m_primary(rng, rng.randint(1, 3))
            assert colength(i) == colength_bruteforce(i)

    def test_monotone(self):
        rng = random.Random(37)
        for _ in range(40):
            d = rng.randint(1, 3)
            i = random_m_primary(rng, d)
            j = i + MonomialIdeal(d, (tuple(rng.randint(0, 5) for _ in range(d)),))
            assert i.first_escape(j) is None
            assert colength(i) >= colength(j)

    def test_madic_order(self):
        assert madic_order(unit_ideal(2)) == 0
        assert madic_order(max_ideal_power(2, 5)) == 5
        assert madic_order(ideal((2, 0), (0, 3))) == 4  # x*y^2 survives
        rng = random.Random(41)
        for _ in range(40):
            i = random_m_primary(rng, rng.randint(1, 3), emax=4)
            c = madic_order(i)
            assert max_ideal_power(i.num_vars, c).first_escape(i) is None
            if c:
                assert max_ideal_power(i.num_vars, c - 1).first_escape(i) is not None

    def test_max_standard_degree_bruteforce(self):
        rng = random.Random(43)
        import itertools
        for _ in range(40):
            d = rng.randint(1, 3)
            i = random_m_primary(rng, d, emax=4)
            bound = 4 * d + 1
            best = -1
            for pt in itertools.product(range(bound), repeat=d):
                if not i.contains(pt):
                    best = max(best, sum(pt))
            assert max_standard_degree(i) == best


class TestSaturationQuotient:
    def test_x2_xy_powers(self):
        base = ideal((2, 0), (1, 1))
        power = unit_ideal(2)
        for n in range(1, 30):
            power = power * base
            assert saturation_quotient_colength(power) == comb(n + 1, 2)

    def test_m_primary_equals_colength(self):
        # saturation of an m-primary ideal is the unit ideal, so the whole
        # quotient R/I is m-torsion
        i = ideal((2, 0), (0, 3))
        assert saturation_quotient_colength(i) == colength(i)

    def test_principal_saturated(self):
        assert saturation_quotient_colength(ideal((1, 0))) == 0

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, data, d):
        # zero, unit, m-primary and non-m-primary ideals alike
        small = st.lists(st.tuples(*[st.integers(0, 5)] * d), max_size=5)
        gens = data.draw(st.one_of(st.just([]), st.just([(0,) * d]), small))
        i = MonomialIdeal(d, tuple(gens))
        assert saturation_quotient_colength(i) == saturation_quotient_bruteforce(i)


class TestNilPair:
    def test_lengths(self):
        pair = NilPairIdeal(1, 2, 1)
        assert pair.length() == 3
        assert NilPairIdeal(2, 0, 0).length() == 0

    def test_containment_enforced(self):
        with pytest.raises(ValueError, match="contained"):
            NilPairIdeal(1, 1, 2)
        with pytest.raises(ValueError, match="contained"):
            NilPairIdeal(1, 1, -1)
        with pytest.raises(ValueError, match="num_vars must be at least 1, got 0"):
            NilPairIdeal(0, 1, 1)

    def test_fields_are_integers(self):
        # an integral Fraction or float counts as an integer; anything else is refused
        pair = NilPairIdeal(Fraction(2), 3.0, 1)
        assert pair == NilPairIdeal(2, 3, 1)
        assert type(pair.num_vars) is int and type(pair.base) is int
        for bad in ((1, 2.5, 1), (1, 2, Fraction(1, 2)), ("1", 2, 1), (None, 2, 1)):
            with pytest.raises(ValueError, match="is not an integer"):
                NilPairIdeal(*bad)

    def test_product_exponents(self):
        p = NilPairIdeal(1, 3, 1) * NilPairIdeal(1, 5, 4)
        assert p == NilPairIdeal(1, 8, min(3 + 4, 5 + 1))
        with pytest.raises(ValueError, match="mismatch"):
            NilPairIdeal(1, 1, 1) * NilPairIdeal(2, 1, 1)

    def test_first_escape_names_the_part(self):
        def pair(a, b):
            return NilPairIdeal(1, a, b)

        # both parts escape; the base is reported
        assert pair(1, 1).first_escape(pair(2, 2)) == "base monomial (1,)"
        assert pair(3, 1).first_escape(pair(3, 2)) == "socle monomial (1,)"
        assert pair(3, 2).first_escape(pair(2, 1)) is None
        assert NilPairIdeal(3, 4, 2).first_escape(NilPairIdeal(3, 4, 3)) == \
            "socle monomial (0, 0, 2)"
        assert NilPairIdeal(2, 0, 0).is_unit() and not pair(1, 0).is_unit()

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=120, deadline=None)
    def test_product_matches_checked_constructor(self, d, data):
        def draw_pair():
            a = data.draw(st.integers(0, 8))
            return NilPairIdeal(d, a, data.draw(st.integers(0, a)))

        p, q = draw_pair(), draw_pair()
        checked = NilPairIdeal(d, p.base + q.base, min(p.base + q.socle, q.base + p.socle))
        assert p * q == checked
        assert [type(v) for v in vars(p * q).values()] == [int] * 3

    def test_associative(self):
        rng = random.Random(47)
        for _ in range(25):
            pairs = []
            for _ in range(3):
                a = rng.randint(1, 5)
                pairs.append(NilPairIdeal(1, a, rng.randint(0, a)))
            x, y, z = pairs
            assert (x * y) * z == x * (y * z)


class TestMultiplicity:
    def test_staircase_fixture(self):
        # the Newton region of (x^2, y^3) has covolume 3, so e = 2! * 3
        assert multiplicity(ideal((2, 0), (0, 3))) == 2 * 3

    def test_maximal_ideal(self):
        for d in (1, 2, 3):
            assert multiplicity(max_ideal_power(d, 1)) == 1

    def test_not_primary(self):
        with pytest.raises(ValueError, match="primary"):
            multiplicity(ideal((1, 0)))

    def test_power_scaling(self):
        for i in (ideal((2, 0), (0, 3)),
                  ideal((2, 1), (1, 2), (3, 0), (0, 3)),
                  max_ideal_power(3, 2)):
            base = multiplicity(i)
            for n in range(1, 5):
                assert multiplicity(power(i, n)) == n ** i.num_vars * base

    def test_limit_sequence_trend(self):
        i = ideal((2, 0), (0, 3))
        seq = multiplicity_limit_sequence(i, 24)
        target = multiplicity(i)
        errs = [abs(v - target) for v in seq]
        assert errs[-1] < errs[3] < errs[0]
        assert multiplicity_limit_sequence(unit_ideal(2), 3) == [0, 0, 0]
