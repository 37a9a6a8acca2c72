import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gradedlimits.monomial import (
    MonomialIdeal,
    NilPairIdeal,
    colength,
    colength_bruteforce,
    madic_order,
    max_ideal_power,
    max_standard_degree,
    minimal_generators,
    multiplicity,
    multiplicity_limit_sequence,
    newton_region,
    saturate_by_colon_fixpoint,
    saturation_quotient_colength,
    symbolic_core,
    symbolic_core_fixpoint,
    unit_ideal,
    unit_nilpair,
    zero_ideal,
)


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
        assert (ideal((1, 0), (0, 1)) ** 2).gens == ((0, 2), (1, 1), (2, 0))

    def test_intersect(self):
        assert ideal((1, 0)).intersect(ideal((0, 1))).gens == ((1, 1),)

    def test_colon_by_monomial(self):
        assert ideal((2, 0), (1, 1)).colon_monomial((1, 0)).gens == ((0, 1), (1, 0))

    def test_colon_by_ideal(self):
        i = ideal((2, 0), (1, 1))
        j = ideal((1, 0), (0, 1))
        assert i.colon(j).gens == ((1, 0),)

    def test_mismatched_vars(self):
        with pytest.raises(ValueError, match="variables"):
            ideal((1, 0)) + MonomialIdeal(3, ((1, 0, 0),))

    def test_unit_and_zero(self):
        assert unit_ideal(2).is_unit()
        assert zero_ideal(2).is_zero()
        assert (zero_ideal(2) * ideal((1, 0))).is_zero()

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=50, deadline=None)
    def test_colon_product_adjunction(self, d, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        i = random_m_primary(rng, d)
        v = tuple(rng.randint(0, 4) for _ in range(d))
        u = tuple(rng.randint(0, 4) for _ in range(d))
        in_colon = i.colon_monomial(v).contains(u)
        product = tuple(a + b for a, b in zip(u, v))
        assert in_colon == i.contains(product)


def divides(g, m):
    return all(a <= b for a, b in zip(g, m))


def oracle_minimal(candidates):
    """All-pairs filter: keep a candidate no other candidate divides."""
    uniq = set(candidates)
    return tuple(sorted(g for g in uniq
                        if not any(h != g and divides(h, g) for h in uniq)))


def exponent_sets(d, max_size=12):
    return st.lists(st.tuples(*[st.integers(0, 8)] * d), max_size=max_size)


class TestKernelOracles:
    """Staircase (d <= 2) and degree-bucketed (d = 3) kernels against brute force."""

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_minimal_generators(self, data, d):
        cands = data.draw(exponent_sets(d, max_size=20))
        assert minimal_generators(cands) == oracle_minimal(cands)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_contains(self, data, d):
        i = MonomialIdeal(d, tuple(data.draw(exponent_sets(d))))
        m = data.draw(st.tuples(*[st.integers(0, 10)] * d))
        assert i.contains(m) == any(divides(g, m) for g in i.gens)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_product(self, data, d):
        i = MonomialIdeal(d, tuple(data.draw(exponent_sets(d))))
        j = MonomialIdeal(d, tuple(data.draw(exponent_sets(d))))
        sums = [tuple(a + b for a, b in zip(g, h)) for g in i.gens for h in j.gens]
        assert (i * j).gens == oracle_minimal(sums)

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
            assert s.contains_ideal(i)

    def test_matches_colon_fixpoint(self):
        rng = random.Random(29)
        for _ in range(30):
            d = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 4) for _ in range(d))
                    for _ in range(rng.randint(1, 4))]
            i = MonomialIdeal(d, tuple(gens))
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

    def test_infinite(self):
        with pytest.raises(ValueError, match="infinite colength"):
            colength(ideal((1, 0)))
        with pytest.raises(ValueError, match="infinite colength"):
            colength(zero_ideal(2))

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
            assert j.contains_ideal(i)
            assert colength(i) >= colength(j)

    def test_madic_order(self):
        assert madic_order(unit_ideal(2)) == 0
        assert madic_order(max_ideal_power(2, 5)) == 5
        assert madic_order(ideal((2, 0), (0, 3))) == 4  # x*y^2 survives
        rng = random.Random(41)
        for _ in range(40):
            i = random_m_primary(rng, rng.randint(1, 3), emax=4)
            c = madic_order(i)
            assert i.contains_ideal(max_ideal_power(i.num_vars, c))
            if c:
                assert not i.contains_ideal(max_ideal_power(i.num_vars, c - 1))

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


class TestNilPair:
    def test_lengths(self):
        pair = NilPairIdeal(max_ideal_power(1, 2), max_ideal_power(1, 1))
        assert pair.length() == 3
        assert unit_nilpair(2).length() == 0

    def test_containment_enforced(self):
        with pytest.raises(ValueError, match="contained"):
            NilPairIdeal(max_ideal_power(1, 1), max_ideal_power(1, 2))

    def test_product_exponents(self):
        def pair(a, b):
            return NilPairIdeal(max_ideal_power(1, a), max_ideal_power(1, b))

        p = pair(3, 1) * pair(5, 4)
        assert p.base == max_ideal_power(1, 8)
        assert p.socle == max_ideal_power(1, min(3 + 4, 5 + 1))

    def test_associative(self):
        rng = random.Random(47)
        for _ in range(25):
            pairs = []
            for _ in range(3):
                a = rng.randint(1, 5)
                pairs.append(NilPairIdeal(max_ideal_power(1, a),
                                          max_ideal_power(1, rng.randint(0, a))))
            x, y, z = pairs
            assert (x * y) * z == x * (y * z)


class TestMultiplicity:
    def test_staircase_fixture(self):
        region = newton_region(ideal((2, 0), (0, 3)))
        assert region.covolume == 3
        assert multiplicity(ideal((2, 0), (0, 3))) == 6

    def test_maximal_ideal(self):
        for d in (1, 2, 3):
            assert multiplicity(max_ideal_power(d, 1)) == 1

    def test_not_primary(self):
        with pytest.raises(ValueError):
            newton_region(ideal((1, 0)))

    def test_clip_too_small(self):
        with pytest.raises(ValueError, match="clip"):
            newton_region(ideal((2, 0), (0, 3)), clip=3)

    def test_clip_independent(self):
        i = ideal((2, 1), (1, 3), (4, 0), (0, 4))
        assert newton_region(i, clip=8).covolume == newton_region(i, clip=13).covolume

    def test_power_scaling(self):
        for i in (ideal((2, 0), (0, 3)),
                  ideal((2, 1), (1, 2), (3, 0), (0, 3)),
                  max_ideal_power(3, 2)):
            base = multiplicity(i)
            for n in range(1, 5):
                assert multiplicity(i ** n) == n ** i.num_vars * base

    def test_limit_sequence_trend(self):
        i = ideal((2, 0), (0, 3))
        seq = multiplicity_limit_sequence(i, 24)
        target = multiplicity(i)
        errs = [abs(v - target) for v in seq]
        assert errs[-1] < errs[3] < errs[0]
        assert multiplicity_limit_sequence(unit_ideal(2), 3) == [0, 0, 0]
