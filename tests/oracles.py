"""Reference implementations that the tests compare the library against,
and the membership tests only the tests need.

Each oracle is a slow, direct route to a result the library computes another
way: brute-force enumeration (colengths, monomial colons, saturation
quotients, semigroup levels, the m-primary support scan), fixpoint iteration,
or the unimodular reduction ``invariants`` used before it read the
degree-zero part off one Hermite basis.
``lattice_contains`` and ``invariants_by_degree_kernel`` share no code with
``gradedlimits.lattice``: they rest on sympy's solve, rank and Hermite
normal form, Leibniz determinants and a scipy Delaunay triangulation.
``polytope_contains`` is an exact membership test built from the library's
convex hull; ``check_level_containments`` tests the graded axiom on level
point sets, and
``empirical_limit`` lists the scaled level counts of a semigroup.
``monomial_colon`` and ``colon`` are the colons by a monomial and by an
ideal that the fixpoint oracles iterate.
``first_generator_outside`` decides containment by testing every pair of
generators, the reference for ``first_escape``.
``closure_violations_by_tuples`` is the series closure check on (exponents,
nil) tuples, the reference for the block-pair check; ``block_monomials`` and
``weighted_monomials`` list the block expansion for the tests.
``check_graded_by_products`` is the graded-axiom check that builds every
product, the reference for the check that builds only escaping ones.
``symbolic_core`` is I^n : J^infty through the library's colon by J^infty,
which ``symbolic_core_fixpoint`` checks; ``power`` is I^n by repeated
squaring, a route to the powers apart from the library's streamed
``power_family``.  ``max_ideal_power`` is m^n by its stars-and-bars
monomials, the generator form that ``NilPairIdeal``'s closed forms are
checked against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from typing import Sequence

from gradedlimits import _integer
from gradedlimits.experiments import (
    CONVERGES,
    DEFAULT_TOL,
    ScaledSequence,
    SemigroupLimitReport,
    convergence_report,
    semigroup_limit_report,
)
from gradedlimits.families import GradedCheckReport
from gradedlimits.lattice import RationalPolytope, convex_hull, frac_point
from gradedlimits.monomial import (
    MonomialIdeal,
    colength,
    colon_ideal_infinity,
    unit_ideal,
)
from gradedlimits.semigroup import GradedSemigroup, invariants
from gradedlimits.series import _block_rows


def colength_bruteforce(ideal: MonomialIdeal) -> int:
    """Independent oracle: enumerate the complement box point by point,
    testing each point for divisibility by every generator."""
    if not ideal.is_m_primary():
        raise ValueError("infinite colength: ideal is not primary to the maximal ideal")
    if ideal.is_unit():
        return 0
    bounds = []
    for i in range(ideal.num_vars):
        pure = min(g[i] for g in ideal.gens
                   if all(e == 0 for j, e in enumerate(g) if j != i))
        bounds.append(pure)
    count = 0
    for point in itertools.product(*(range(b) for b in bounds)):
        if not any(all(ge <= pe for ge, pe in zip(g, point)) for g in ideal.gens):
            count += 1
    return count


def first_generator_outside(ideal: MonomialIdeal, target: MonomialIdeal):
    """The first generator of ``ideal`` that no generator of ``target``
    divides, or None when ``ideal`` lies inside ``target``."""
    for g in ideal.gens:
        if not any(all(a <= b for a, b in zip(h, g)) for h in target.gens):
            return g
    return None


def colon_bruteforce(ideal: MonomialIdeal, u: Sequence[int]) -> MonomialIdeal:
    """Independent oracle for I : u: the ideal of every monomial w in the box
    up to the largest generator exponent with w * u divisible by some
    generator.  Each minimal generator max(g - u, 0) of I : u lies in it."""
    top = max((e for g in ideal.gens for e in g), default=0)
    quotient = [w for w in itertools.product(range(top + 1), repeat=ideal.num_vars)
                if any(all(ge <= we + ue for ge, we, ue in zip(g, w, u))
                       for g in ideal.gens)]
    return MonomialIdeal(ideal.num_vars, tuple(quotient))


def is_m_primary_by_support(ideal: MonomialIdeal) -> bool:
    """Independent oracle: every variable is the whole support of some
    generator, or the ideal is the unit ideal."""
    if ideal.gens == ((0,) * ideal.num_vars,):
        return True
    covered = set()
    for g in ideal.gens:
        support = [i for i, e in enumerate(g) if e > 0]
        if len(support) == 1:
            covered.add(support[0])
    return len(covered) == ideal.num_vars


def brute_levels(dim, gens, horizon):
    """S_1 .. S_horizon by walking every multiset of generators directly."""
    levels = {n: set() for n in range(1, horizon + 1)}

    def walk(i, deg, pt):
        if i == len(gens):
            if deg >= 1:
                levels[deg].add(pt)
            return
        vec, d = gens[i]
        copies = 0
        while deg + copies * d <= horizon:
            walk(i + 1, deg + copies * d,
                 tuple(p + copies * v for p, v in zip(pt, vec)))
            copies += 1

    walk(0, 0, (0,) * dim)
    return {n: frozenset(pts) for n, pts in levels.items()}


def lattice_contains(lat, v: Sequence) -> bool:
    """Whether v is an integer combination of the rows of ``lat.basis``:
    sympy solves basis^T c = v over Q, and every c must be an integer."""
    import sympy

    if not lat.basis:
        return not any(v)
    try:
        coeffs = sympy.Matrix(lat.basis).T.gauss_jordan_solve(sympy.Matrix(v))[0]
    except ValueError:  # v lies outside the rational span
        return False
    return all(c.is_integer for c in coeffs)


def leibniz_det(mat):
    """Determinant as the signed sum over permutations; 1 for the 0x0 matrix."""
    total = 0
    for perm in itertools.permutations(range(len(mat))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        total += (-1) ** inversions * math.prod(row[c] for row, c in zip(mat, perm))
    return total


def maximal_minors(rows, width):
    """Every len(rows) x len(rows) minor of the rows, by ``leibniz_det``."""
    return [leibniz_det([[r[c] for c in cols] for r in rows])
            for cols in itertools.combinations(range(width), len(rows))]


def delaunay_volume(pts, q: int) -> Fraction:
    """Euclidean volume of the hull of rational points spanning R^q, q >= 2.
    qhull picks the triangulation and each simplex's volume is an exact
    Leibniz determinant on the rational points.  Exactly q + 1 points are
    one simplex, which qhull's joggle (QJ) refuses to triangulate."""
    import numpy as np
    from scipy.spatial import Delaunay

    pts = sorted(set(pts))
    if len(pts) == q + 1:
        simplices = [tuple(range(q + 1))]
    else:
        arr = np.array([[float(x) for x in p] for p in pts])
        tri = Delaunay(arr, qhull_options="QJ" if q >= 3 else None)
        simplices = sorted(map(tuple, tri.simplices))
    total = Fraction(0)
    for simplex in simplices:
        base = pts[simplex[0]]
        total += abs(leibniz_det([[pts[i][c] - base[c] for c in range(q)]
                                  for i in simplex[1:]]))
    return total / math.factorial(q)


def polytope_contains(polytope: RationalPolytope, point: Sequence) -> bool:
    """Exact membership test (boundary counts as inside)."""
    if polytope.affine_dim == -1:
        return False
    pt = frac_point(point)
    if pt in polytope.vertices:
        return True
    merged = convex_hull(polytope.vertices + (pt,))
    return merged.vertices == polytope.vertices


def monomial_colon(ideal: MonomialIdeal, u: Sequence[int]) -> MonomialIdeal:
    """I : u, generated by max(g - u, 0) over the generators g of I; u is
    checked as a generator would be."""
    u = MonomialIdeal(ideal.num_vars, (u,)).gens[0]
    return MonomialIdeal(ideal.num_vars,
                         tuple(tuple(max(a - b, 0) for a, b in zip(g, u)) for g in ideal.gens))


def colon(ideal: MonomialIdeal, other: MonomialIdeal) -> MonomialIdeal:
    """I : J as the intersection of the colons by the generators of J."""
    if ideal.num_vars != other.num_vars:
        raise ValueError("number of variables mismatch")
    if other.is_zero():
        return unit_ideal(ideal.num_vars)
    parts = [monomial_colon(ideal, u) for u in other.gens]
    return reduce(lambda a, b: a.intersect(b), parts)


def multiplicity_limit_sequence(ideal: MonomialIdeal, k_max: int) -> list[Fraction]:
    """The scaled length sequence len(R/I^k) * d! / k^d for k = 1..k_max."""
    if not ideal.is_m_primary():
        raise ValueError("infinite colength: ideal is not primary to the maximal ideal")
    d = ideal.num_vars
    out = []
    power = unit_ideal(d)
    for k in range(1, k_max + 1):
        power = power * ideal
        out.append(Fraction(colength(power) * math.factorial(d), k ** d))
    return out


def max_ideal_power(num_vars: int, n: int) -> MonomialIdeal:
    """m^n, m = (x_1, ..., x_d), for n >= 0, through the public constructor:
    a non-decreasing choice b_1 <= ... <= b_{d-1} from 0..n is the degree-n
    monomial of gaps (b_1, b_2 - b_1, ..., n - b_{d-1})."""
    bars = itertools.combinations_with_replacement(range(n + 1), num_vars - 1)
    return MonomialIdeal(num_vars, tuple(
        tuple(hi - lo for lo, hi in zip((0, *b), (*b, n))) for b in bars))


def saturate_by_colon_fixpoint(ideal: MonomialIdeal) -> MonomialIdeal:
    """Reference saturation: iterate I <- I : m until the chain stabilizes."""
    m = max_ideal_power(ideal.num_vars, 1)
    current = ideal
    while True:
        nxt = colon(current, m)
        if nxt == current:
            return current
        current = nxt


def saturation_quotient_bruteforce(ideal: MonomialIdeal) -> int:
    """Independent oracle for len(I^sat / I): count the monomials of the box
    of side 2 * max_exponent + 2 that some generator of the colon-fixpoint
    saturation divides and no generator of I divides."""
    sat = saturate_by_colon_fixpoint(ideal)
    side = 2 * ideal.max_exponent() + 2
    count = 0
    for w in itertools.product(range(side), repeat=ideal.num_vars):
        if (any(all(se <= we for se, we in zip(s, w)) for s in sat.gens)
                and not any(all(ge <= we for ge, we in zip(g, w)) for g in ideal.gens)):
            count += 1
    return count


def power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I^n by binary exponentiation: the product of the squares I^(2^k) over
    the bits k of n.  An n that is not a non-negative integer (by the rule
    of ``_integer``) raises ValueError."""
    n = _integer(n, "power", 0)
    result = unit_ideal(ideal.num_vars)
    base = ideal
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def symbolic_core(ideal: MonomialIdeal, other: MonomialIdeal, n: int) -> MonomialIdeal:
    """I^n : J^infty, the symbolic power of I along J."""
    return colon_ideal_infinity(power(ideal, n), other)


def symbolic_core_fixpoint(ideal: MonomialIdeal, other: MonomialIdeal, n: int) -> MonomialIdeal:
    """Reference route: iterate the colon by J until it stabilizes."""
    if ideal.num_vars != other.num_vars:
        raise ValueError("number of variables mismatch")
    current = power(ideal, n)
    while True:
        nxt = colon(current, other)
        if nxt == current:
            return current
        current = nxt


def check_graded_by_products(family, horizon: int) -> GradedCheckReport:
    """``check_graded`` with every product built: I_a * I_b, then its first
    generator outside I_{a+b}."""
    levels = [family.ideal(n) for n in range(horizon + 1)]
    violations: list[tuple[int, int, str]] = []
    checked = 0
    if not levels[0].is_unit():
        violations.append((0, 0, "I_0 is not the unit ideal"))
    for total in range(2, horizon + 1):
        for a in range(1, total // 2 + 1):
            b = total - a
            checked += 1
            witness = (levels[a] * levels[b]).first_escape(levels[total])
            if witness is not None:
                violations.append((a, b, f"{witness} escapes I_{total}"))
    return GradedCheckReport(checked, violations)


def check_level_degrees(series, n: int, monomials) -> None:
    """Per-monomial degree check: raise unless every monomial of level n has
    weighted degree ``twist * n``, a nil factor counting ``nil_degree``."""
    for exps, nil in monomials:
        deg = sum(w * e for w, e in zip(series.ambient.weights, exps))
        if nil:
            deg += series.ambient.nil_degree
        if deg != series.twist * n:
            raise ValueError(f"level {n} monomial {exps} has degree {deg}, "
                             f"expected {series.twist * n}")


def closure_violations_by_tuples(series, horizon: int) -> list[tuple[int, int, str]]:
    """``closure_violations`` with every monomial an (exponents, nil) tuple:
    every pair of the sorted levels a and b, the first escaping pair in that
    lex order the witness of (a, b), each product built as a tuple and looked
    up in the target level's set."""
    out = []
    levels = {n: series.level(n) for n in range(1, horizon + 1)}
    ordered = {n: sorted(level) for n, level in levels.items()}
    for total in range(2, horizon + 1):
        for a in range(1, total // 2 + 1):
            b = total - a
            for u, v in itertools.product(ordered[a], ordered[b]):
                if series.ambient.product_vanishes(u[1], v[1]):
                    continue
                prod = (tuple(x + y for x, y in zip(u[0], v[0])), u[1] or v[1])
                if prod not in levels[total]:
                    out.append((a, b, f"{u} * {v} escapes level {total}"))
                    break
    return out


def block_monomials(weights, shift, free, degree) -> list[tuple]:
    """One block's expansion, as a list."""
    return list(_block_rows(weights, shift, free, degree))


def weighted_monomials(weights, degree: int) -> list[tuple]:
    """All exponent vectors of the given weighted degree, in lex order."""
    return block_monomials(weights, (0,) * len(weights), len(weights), degree)


def check_level_containments(levels: dict) -> list[tuple[int, int, tuple]]:
    """Violations of S_a + S_b being contained in S_{a+b}, for the levels
    a <= b of the dict {n: S_n} whose sum is also a key, with one witness
    point each."""
    keys = sorted(levels)
    bad = []
    for i, a in enumerate(keys):
        for b in keys[i:]:
            if a + b in levels:
                witness = _sum_outside(levels[a], levels[b], levels[a + b])
                if witness is not None:
                    bad.append((a, b, witness))
    return bad


def _sum_outside(first, second, target):
    """A point of first + second outside target, or None."""
    for pa in first:
        for pb in second:
            pt = tuple(x + y for x, y in zip(pa, pb))
            if pt not in target:
                return pt
    return None


def empirical_limit(s: GradedSemigroup, n_max: int) -> list[tuple[int, Fraction]]:
    """The exact scaled counts (k, #S_{mk} / k^q) for mk <= n_max."""
    inv = invariants(s)
    return [(n // inv.m, Fraction(count, (n // inv.m) ** inv.q))
            for n, count in s.level_sizes(n_max) if n % inv.m == 0]


def smallest_converging_modulus(seq: ScaledSequence, max_modulus: int,
                                tol: Fraction = DEFAULT_TOL) -> int | None:
    """Least modulus whose every residue class converges, if any."""
    report = convergence_report(seq, max_modulus, tol)
    for r in range(1, max_modulus + 1):
        if all(c.verdict == CONVERGES for c in report.classes if c.modulus == r):
            return r
    return None


def semigroup_limit_suite(semigroups: Sequence[GradedSemigroup], horizon: int,
                          truncation_levels: Sequence[int] = (1, 2, 4, 8),
                          rtol: Fraction = DEFAULT_TOL) -> list[SemigroupLimitReport]:
    """The limit experiment over a list of fixtures (ordered, deterministic)."""
    return [semigroup_limit_report(s, horizon, truncation_levels, rtol)
            for s in semigroups]


def degree_zero_rows(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Generators of the degree-zero part of the group the rows span, the
    degree (last coordinate) dropped.  A unimodular reduction of the degree
    column leaves one row of degree gcd and rows of degree 0, which generate
    that part."""
    rows = [list(r) for r in rows]
    while True:
        live = sorted((i for i, r in enumerate(rows) if r[-1]), key=lambda i: abs(rows[i][-1]))
        if len(live) <= 1:
            break
        i0 = live[0]
        for i in live[1:]:
            k = rows[i][-1] // rows[i0][-1]
            rows[i] = [a - k * b for a, b in zip(rows[i], rows[i0])]
    return [tuple(r[:-1]) for r in rows if r[-1] == 0 and any(r)]


def invariants_by_degree_kernel(s: GradedSemigroup) -> tuple[int, int, int, Fraction]:
    """(m, q, ind, volume) by routes that share no code with ``invariants``:
    m as the gcd of the degrees, q by sympy's rank, a basis B of the
    degree-zero part from ``degree_zero_rows`` and sympy's Hermite normal
    form, ind as the gcd of B's maximal minors, and the volume of the slice
    at height m in B's coordinates (by ``delaunay_volume``) times ind, the
    index of B's lattice in its saturation."""
    import sympy
    from sympy.matrices.normalforms import hermite_normal_form

    rows = [vec + (deg,) for vec, deg in s.generators]
    q = sympy.Matrix(rows).rank() - 1
    m = math.gcd(*(deg for vec, deg in s.generators))
    kernel = degree_zero_rows(rows)
    basis = []
    if kernel:
        hnf = hermite_normal_form(sympy.Matrix(kernel).T)
        basis = [tuple(int(x) for x in hnf.col(j)) for j in range(hnf.cols)]
        basis = [v for v in basis if any(v)]
    assert len(basis) == q
    ind = math.gcd(*maximal_minors(basis, s.point_dim))
    if q == 0:
        return m, q, ind, Fraction(1)
    points = sorted({tuple(Fraction(m * x, deg) for x in vec) for vec, deg in s.generators})
    # coordinates c with c . B = p - p0, through the left inverse of B^T
    b_t = sympy.Matrix(basis).T
    diffs = sympy.Matrix([[sympy.Rational(x - y) for x, y in zip(p, points[0])]
                          for p in points]).T
    solved = (b_t.T * b_t).inv() * b_t.T * diffs
    coords = [tuple(Fraction(int(x.p), int(x.q)) for x in solved.col(j))
              for j in range(solved.cols)]
    if q == 1:
        volume = max(coords)[0] - min(coords)[0]
    else:
        volume = delaunay_volume(coords, q)
    return m, q, ind, volume * ind
