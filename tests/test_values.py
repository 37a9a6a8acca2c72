"""The level-value contract that ``check_graded`` trusts: ``length``,
``is_unit``, ``*``, ``first_escape`` and ``holds_products``.  Each form of
value registers one ``Form`` in ``FORMS``, and every clause below runs for
every form; values of two forms must refuse to combine."""

import itertools
from operator import add
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from gradedlimits.families import (
    GradedFamily,
    artin_tau_family,
    check_graded,
    corrupted_sigma_family,
    nilpair_sigma_family,
    perturbed_power_family,
    power_family,
    saturation_family,
    symbolic_family,
    valuation_family,
)
from gradedlimits.monomial import MonomialIdeal, NilPairIdeal, colength, unit_ideal
from oracles import (
    check_graded_by_products,
    colength_bruteforce,
    first_generator_outside,
    max_ideal_power,
)


def oracle_minimal(candidates):
    """All-pairs filter: keep a candidate no other candidate divides."""
    uniq = set(candidates)
    return tuple(sorted(g for g in uniq
                        if not any(h != g and all(a <= b for a, b in zip(h, g))
                                   for h in uniq)))


def exponent_sets(d, max_size=12):
    return st.lists(st.tuples(*[st.integers(0, 8)] * d), max_size=max_size)


def staircases(d):
    """Ideals in d <= 2 variables: zero, unit, small, and tall ones whose
    last exponents dwarf the others."""
    tall = st.lists(st.tuples(*[st.integers(0, 3)] * (d - 1), st.integers(0, 10**12)),
                    max_size=8)
    gens = st.one_of(st.just([]), st.just([(0,) * d]), exponent_sets(d), tall)
    return gens.map(lambda g: MonomialIdeal(d, tuple(g)))


@st.composite
def run_staircases(draw):
    """d = 2 staircases made of arithmetic runs: runs of a few shared steps
    (so two draws often have equal steps), a lone corner before a run, a
    trailing lone pair, a single corner (on the x-axis, so K = 1 when both
    factors are one), and the zero and unit ideals."""
    kind = draw(st.sampled_from(["runs", "single", "axis", "zero", "unit"]))
    if kind == "zero":
        return MonomialIdeal(2, ())
    if kind == "unit":
        return unit_ideal(2)
    if kind == "axis":
        return MonomialIdeal(2, ((draw(st.integers(0, 5)), 0),))
    if kind == "single":
        return MonomialIdeal(2, (draw(st.tuples(st.integers(0, 5), st.integers(0, 5))),))
    x, y = draw(st.integers(0, 3)), draw(st.integers(0, 40))
    gens = [(x, y)]
    steps = st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 3), (3, 1), (1, 4)])
    for dx, dy in draw(st.lists(steps, min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 6))):
            if y < dy:
                break
            x, y = x + dx, y - dy
            gens.append((x, y))
    return MonomialIdeal(2, tuple(gens))


def escape_targets(draw, ideal, others):
    """Targets around ``ideal``: itself, a corner's exponent raised, a corner
    dropped, all moved a step, cut short so sums land past its last corner,
    zero, unit, a draw of ``others``, and in d = 2 a target with no floor."""
    d, gens = ideal.num_vars, list(ideal.gens)
    kind = draw(st.sampled_from(["self", "raise", "drop", "moved", "cut", "zero", "unit",
                                 "other"] + ["sparse"] * (d == 2)))
    if kind == "zero":
        return MonomialIdeal(d, ())
    if kind == "unit" or not gens:
        return unit_ideal(d)
    if kind == "other":
        return draw(others)
    if kind == "sparse":
        # one corner per 8 x-steps or fewer: no floor
        target = MonomialIdeal(2, ((0, gens[0][1] + 1), (8 * len(gens) + gens[-1][0] + 9, 0)))
        assert target._floor is None
        return target
    k = draw(st.integers(0, len(gens) - 1))
    if kind == "raise":
        axis = draw(st.integers(0, d - 1))
        gens[k] = tuple(e + (j == axis) for j, e in enumerate(gens[k]))
    elif kind == "drop":
        del gens[k]
    elif kind == "moved":
        step = draw(st.tuples(*[st.integers(-1, 1)] * d))
        gens = [tuple(max(0, e + s) for e, s in zip(g, step)) for g in gens]
    elif kind == "cut":
        gens = gens[:k] or gens[:1]
    return MonomialIdeal(d, tuple(gens))


@st.composite
def nilpairs(draw, d):
    # exponents up to 5 in four variables, where m^5 has 56 generators
    base = draw(st.integers(0, 12 // d + 2))
    return NilPairIdeal(d, base, draw(st.integers(0, base)))


def raised_pair(draw, pair):
    """``pair`` with its base and socle raised by 0 to 3, the socle at most to
    the base."""
    base = pair.base + draw(st.integers(0, 3))
    return NilPairIdeal(pair.num_vars, base, min(pair.socle + draw(st.integers(0, 3)), base))


class Form(NamedTuple):
    """A form of level value: its numbers of variables, values, a map onto
    values of finite length, unit, a draw near a value (a target or an edited
    level), where ``holds_products`` settles, generator form as (label,
    ideal) parts in ``first_escape``'s order, oracles for a product's fields
    and for lengths, and graded families."""

    name: str
    ring: st.SearchStrategy
    values: Callable
    bounded: Callable
    unit: Callable
    near: Callable
    settles: Callable
    parts: Callable
    product: Callable
    length: Callable
    families: Callable


def monomial_form(d, values, settles, families):
    box = MonomialIdeal(d, [tuple(6 * (j == k) for k in range(d)) for j in range(d)])
    return Form(f"monomial-d{d}", st.just(d), lambda _: values, lambda i: i + box,
                unit_ideal, lambda draw, ideal: escape_targets(draw, ideal, values), settles,
                lambda ideal: (("", ideal),),
                lambda i, j: (d, oracle_minimal(tuple(map(add, g, h))
                                                for g in i.gens for h in j.gens)),
                colength_bruteforce, families)


def nilpair_parts(pair):
    return (("base ", max_ideal_power(pair.num_vars, pair.base)),
            ("socle ", max_ideal_power(pair.num_vars, pair.socle)))


def nilpair_product(p, q):
    """The checked constructor on m^{a+a'} + y m^{min(a+b', a'+b)}, once the
    generator forms confirm it."""
    product = NilPairIdeal(p.num_vars, p.base + q.base, min(p.base + q.socle, q.base + p.socle))
    (_, pa), (_, pb), (_, qa), (_, qb) = *nilpair_parts(p), *nilpair_parts(q)
    assert [part for _, part in nilpair_parts(product)] == [pa * qa, pa * qb + qa * pb]
    return product._key()


FORMS = [
    monomial_form(1, (st.none() | st.integers(0, 8) | st.integers(0, 10**12)).map(
        lambda e: MonomialIdeal(1, () if e is None else ((e,),))), lambda t: bool(t.gens),
        lambda d: [power_family(MonomialIdeal(1, ((2,),))), valuation_family((3,)),
                   artin_tau_family(2)]),
    monomial_form(2, staircases(2) | run_staircases(), lambda t: t._floor is not None,
                  lambda d: [*(power_family(MonomialIdeal(2, g)) for g in (
                      ((2, 0), (0, 3)), ((3, 0), (1, 1), (0, 2)), ((4, 0), (2, 1), (0, 3)))),
                      valuation_family((1, 2)), valuation_family((2, 3)),
                      saturation_family(MonomialIdeal(2, ((2, 0), (1, 1)))),
                      symbolic_family(MonomialIdeal(2, ((2, 0), (1, 1))),
                                      MonomialIdeal(2, ((1, 0), (0, 1))))]),
    monomial_form(3, exponent_sets(3, max_size=5).map(lambda g: MonomialIdeal(3, tuple(g))),
                  lambda t: False,
                  lambda d: [power_family(MonomialIdeal(3, ((1, 1, 0), (0, 0, 1))))]),
    Form("nilpair", st.integers(1, 4), nilpairs, lambda pair: pair,
         lambda d: NilPairIdeal(d, 0, 0), raised_pair, lambda t: True, nilpair_parts,
         nilpair_product, lambda pair: sum(colength(part) for _, part in nilpair_parts(pair)),
         lambda d: [nilpair_sigma_family(d), perturbed_power_family(d), corrupted_sigma_family(d)]),
]

each_form = pytest.mark.parametrize("form", FORMS, ids=[form.name for form in FORMS])


def witness(form, value, target):
    """The first generator of ``value``'s generator form outside the matching
    part of ``target``'s, worded as ``first_escape`` words it, or None."""
    for (label, part), (_, limit) in zip(form.parts(value), form.parts(target)):
        g = first_generator_outside(part, limit)
        if g is not None:
            return f"{label}monomial {g}"
    return None


@each_form
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_holds_products(form, data):
    # True only when every product lies inside the target, and exactly then
    # where the form settles the target; a pair in another number of
    # variables answers False even when the other pairs hold
    d = data.draw(form.ring)
    pairs = data.draw(st.lists(st.tuples(form.values(d), form.values(d)),
                               min_size=1, max_size=3))
    products = [i * j for i, j in pairs]
    unit, wide = form.unit(d), form.unit(d + 1)
    for target in (data.draw(form.values(d)), unit, products[0],
                   *(form.near(data.draw, prod) for prod in products)):
        inside = [prod.first_escape(target) is None for prod in products]
        assert target.holds_products(pairs[:1]) == (form.settles(target) and inside[0])
        assert target.holds_products(pairs) == (form.settles(target) and all(inside))
        for mismatched in ((wide, wide), (unit, wide), (wide, unit)):
            assert not target.holds_products([*pairs, mismatched])


@each_form
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_first_escape(form, data):
    # None exactly when the brute-force containment holds, else the first
    # generator outside
    d = data.draw(form.ring)
    i, t = data.draw(form.values(d)), data.draw(form.values(d))
    near = form.near(data.draw, i)
    for value, target in ((i, t), (t, i), (i, i), (i, near), (near, i)):
        assert value.first_escape(target) == witness(form, value, target)


@each_form
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_product(form, data):
    d = data.draw(form.ring)
    i, j, k = (data.draw(form.values(d)) for _ in range(3))
    product = i * j
    # equal reprs: the oracle's fields, and ints where it has ints
    assert repr(product._key()) == repr(form.product(i, j))
    assert product == j * i and product * k == i * (j * k)
    assert form.unit(d) * i == i == i * form.unit(d)


@each_form
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_length(form, data):
    d = data.draw(form.ring)
    value = form.bounded(data.draw(form.values(d)))
    assert value.length() == form.length(value)
    assert value.is_unit() == all(part.is_unit() for _, part in form.parts(value))
    assert value.is_unit() == (value.length() == 0) == (value == form.unit(d))
    assert form.unit(d).is_unit() and form.unit(d).length() == 0


@each_form
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_whole_families(form, data):
    # a family of the form with up to three levels replaced by near draws,
    # so that most pairs hold and some escape
    family = data.draw(st.sampled_from(form.families(data.draw(form.ring))))
    edits = {n: form.near(data.draw, family.ideal(n))
             for n in data.draw(st.sets(st.integers(1, 14), max_size=3))}
    edited = GradedFamily("edited", family.dim,
                          lambda n: edits[n] if n in edits else family.ideal(n))
    assert check_graded(edited, 14) == check_graded_by_products(edited, 14)


@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_forms_do_not_combine(data):
    # for every ordered pair of forms, a pair of the other form answers
    # False, and a product or a containment across forms raises one
    # ValueError, which check_graded passes on
    for first, second in itertools.permutations(FORMS, 2):
        x = data.draw(first.values(data.draw(first.ring)))
        y = data.draw(second.values(data.draw(second.ring)))
        unit = first.unit(x.num_vars)
        for pair in ((y, y), (unit, y), (y, unit)):
            assert not x.holds_products([pair])
        for combine in (x.__mul__, x.first_escape):
            with pytest.raises(ValueError):
                combine(y)
        with pytest.raises(ValueError):
            check_graded(GradedFamily("mixed", 1, lambda n: (x, y)[n % 2]), 2)
