"""Monomial ideals in d variables and their square-zero nilpotent pairs.

Ideals are kept in canonical form (minimal generators, lexicographically
sorted), so structural equality is mathematical equality.  In d <= 2 the
canonical generators form a staircase: x strictly increases and y strictly
decreases along the tuple.  Minimalization there is one sweep after a lex
sort, membership is one ``bisect`` on that order, and the colength and the
largest standard degree are closed forms in the staircase corners.  A
product sums every pair of packed corners and sweeps the sorted sums.
Whether a product lies in a target is decided without building it: each
staircase splits into stretches of corners with one step, such as the
corners of (x^a, y^b)^n, the sums of two stretches are arithmetic
progressions, and these are compared with the target's floor, the least y
above each x (``holds_products``, which takes many products at once and
tests each distinct progression once; in d = 1 it adds the two exponents);
a caller builds a product only when that is not settled, to name its first
generator outside (``first_escape``).  In d >= 3 one sweep minimalizes the
(d-1)-variable slices along the last variable, down to the d = 2 sweep.
Minimalization keeps the generators new in their slice, and each ideal
keeps the slices as its index on first use: membership is one bisect for
the slice and a (d-1)-variable query inside it, and colengths sum the slice
colengths over the slice widths, down to the d = 2 closed form.  Variable
counts and exponents are read by the package's integer rule, so a bad one
raises one ValueError.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations_with_replacement, repeat
from operator import le, sub

from . import _Value, _integer

Exponent = tuple  # ints, one per variable


def _exponent(num_vars: int, g) -> Exponent:
    """g as a tuple of num_vars non-negative ints, else ValueError."""
    t = tuple(_integer(e, "exponent", 0) for e in g)
    if len(t) != num_vars:
        raise ValueError("generator has wrong number of variables")
    return t


def minimal_generators(candidates) -> tuple[Exponent, ...]:
    """Minimal elements of a monomial set under divisibility, lex-sorted.

    In d <= 2 this is the staircase sweep: after a lex sort a candidate is
    kept exactly when its last exponent is strictly below that of every
    candidate before it.  In d >= 3 a candidate (p, t) is kept exactly when
    p is a generator of the slice at t of ``_slice_sweep`` and not of the
    slice below it.  Input too deep for ``check_stack_depth`` is refused,
    once, before the sweep recurses.
    """
    uniq = set(candidates)
    if len(next(iter(uniq), ())) > 2:
        check_stack_depth(len(next(iter(uniq))))
    return _minimal(uniq)


def _minimal(uniq: set) -> tuple[Exponent, ...]:
    # minimal_generators without the depth check: the slice sweep recurses here
    if len(next(iter(uniq), ())) <= 2:
        kept = []
        for g in sorted(uniq):
            if not kept or g[-1] < kept[-1][-1]:
                kept.append(g)
        return tuple(kept)
    kept, below = [], set()
    for t, gens in _slice_sweep(uniq):
        kept.extend(p + (t,) for p in gens if p not in below)
        below = set(gens)
    return tuple(sorted(kept))


def _slice_sweep(gens):
    """(t, minimal generators of the projections of every g with g[-1] <= t)
    for each distinct last exponent t of the d >= 3 tuples ``gens``, t
    increasing.  Each slice is the one below plus the projections at t,
    minimalized one variable down."""
    by_top: dict[int, list[Exponent]] = {}
    for g in gens:
        by_top.setdefault(g[-1], []).append(g[:-1])
    below: tuple[Exponent, ...] = ()
    for t in sorted(by_top):
        below = _minimal({*below, *by_top[t]})
        yield t, below


def _check_operand(value, other) -> None:
    """Refuse ``other`` as an operand of ``value``: a value of another type,
    or in another number of variables, raises one ValueError."""
    if other.__class__ is not value.__class__:
        raise ValueError(f"cannot combine a {type(value).__name__} "
                         f"with a {type(other).__name__}")
    if value.num_vars != other.num_vars:
        raise ValueError("number of variables mismatch")


class MonomialIdeal(_Value):
    """A monomial ideal, canonicalized on construction.

    The unit ideal is generated by the zero vector; the zero ideal has no
    generators.  Membership is divisibility by some generator.  The
    constructor checks every generator; arithmetic on checked ideals builds
    its result through ``_canonical``, which only minimalizes.  The lazy
    indexes (``_slices``, ``_floor``, ``_pieces``) are kept in the instance
    dict, outside the fields.
    """

    _fields = ("num_vars", "gens")

    def __init__(self, num_vars: int, gens=()):
        num_vars = _integer(num_vars, "num_vars", 1)
        super().__init__(num_vars, minimal_generators([_exponent(num_vars, g) for g in gens]))

    @classmethod
    def _canonical(cls, num_vars: int, candidates) -> "MonomialIdeal":
        """The ideal of candidates already known to be tuples of ``num_vars``
        non-negative ints (built from checked ideals, checked monomials or
        ints): minimalized, not re-validated."""
        return cls._of(num_vars, minimal_generators(candidates))

    @classmethod
    def _of(cls, num_vars: int, gens: tuple[Exponent, ...]) -> "MonomialIdeal":
        """The ideal whose generators ``gens`` are already canonical."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "num_vars", num_vars)
        object.__setattr__(ideal, "gens", gens)
        return ideal

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.num_vars,)

    def contains(self, monomial) -> bool:
        m = tuple(monomial)
        if len(m) != self.num_vars:
            raise ValueError("monomial has wrong number of variables")
        return self._covers(m)

    def _covers(self, m: Exponent) -> bool:
        """Membership of ``m``, a tuple of ``num_vars`` non-negative ints
        (not re-validated)."""
        if self.num_vars <= 2:
            # the covering generator is the last one whose first exponent is <= m's
            i = bisect_right(self.gens, (m[0], math.inf)) - 1
            return i >= 0 and self.gens[i][-1] <= m[-1]
        tops, slices = self._slices
        k = bisect_right(tops, m[-1]) - 1
        return k >= 0 and slices[k]._covers(m[:-1])

    def first_escape(self, target: "MonomialIdeal") -> str | None:
        """The first generator of self outside ``target``, described as
        ``"monomial g"``, or None when self is inside ``target``."""
        self._check(target)
        if self.gens == target.gens:
            return None
        for g in self.gens:
            if not target._covers(g):
                return f"monomial {g}"
        return None

    def holds_products(self, pairs) -> bool:
        """True when I * J lies in self for every pair (I, J) of ``pairs``,
        decided without building a product; False when that is not settled.

        Settled in d = 1 for a non-zero target: (y^a)(y^b) lies in (y^t)
        exactly when a + b >= t, and a zero factor always does.  Settled in
        d = 2 for a target with a ``_floor``: a product lies in it exactly
        when every sum of a generator of I and one of J does, and
        ``_piece_sums`` lists those sums as a few arithmetic progressions.
        The distinct progressions of all the pairs are tested once each: the
        points up to the floor's last x are compared with it entry by entry;
        past it y only falls, so the last point alone is compared with the
        floor's last entry.  Any other ideal answers False, as does any
        pair of another value type or number of variables.
        """
        if self.num_vars == 1 and self.gens:
            (t,), = self.gens
            return all(i.__class__ is j.__class__ is MonomialIdeal
                       and i.num_vars == j.num_vars == 1
                       and (not i.gens or not j.gens or i.gens[0][0] + j.gens[0][0] >= t)
                       for i, j in pairs)
        floor = self._floor if self.num_vars == 2 else None
        if floor is None or not all(i.__class__ is j.__class__ is MonomialIdeal
                                    and i.num_vars == j.num_vars == 2 for i, j in pairs):
            return False
        x0, last, y_last = self.gens[0][0], len(floor) - 1, floor[-1]
        for x, y, dx, dy, n in {s for f, g in pairs for s in _piece_sums(f, g)}:
            i = x - x0
            if i < 0:
                return False
            inside = max(0, min(n, (last - i) // dx + 1))
            if not all(map(le, floor[i:i + inside * dx:dx], range(y, y + inside * dy, dy))):
                return False
            if inside < n and y + (n - 1) * dy < y_last:
                return False
        return True

    @cached_property
    def _slices(self) -> tuple[list[int], list["MonomialIdeal"]]:
        """The slice index along the last variable (d >= 3 only).

        ``tops`` are the distinct last exponents t_0 < t_1 < ... of the
        generators.  Slice k is the (d-1)-variable ideal of the projections
        of the generators with last exponent <= t_k, so a monomial whose last
        exponent lies in [t_k, t_{k+1}) is in the ideal exactly when its
        projection is in slice k; below t_0 nothing is.

        An ideal too deep for ``check_stack_depth`` is refused before any
        slice is built.
        """
        check_stack_depth(self.num_vars)
        tops, slices = [], []
        for t, gens in _slice_sweep(self.gens):
            tops.append(t)
            slices.append(MonomialIdeal._of(self.num_vars - 1, gens))
        return tops, slices

    def length(self) -> int:
        """Length of R/I over polynomial(d), the colength."""
        return colength(self)

    def is_m_primary(self) -> bool:
        """True iff every variable carries a pure-power generator.

        In d = 1 that is any non-zero ideal; in d = 2 the staircase must
        start on the y-axis and end on the x-axis.  In d >= 3 the pure powers
        of x_1..x_{d-1} have last exponent 0, so they make the bottom slice
        (at t = 0) m-primary, and a pure power of x_d makes the top slice
        the unit ideal.
        """
        if self.num_vars == 1:
            return bool(self.gens)
        if self.num_vars == 2:
            return bool(self.gens) and self.gens[0][0] == 0 and self.gens[-1][1] == 0
        if not self.gens:
            return False
        tops, slices = self._slices
        return tops[0] == 0 and slices[0].is_m_primary() and slices[-1].is_unit()

    def max_exponent(self) -> int:
        if self.gens and self.num_vars <= 2:
            # along a staircase x increases and y decreases
            return max(self.gens[-1][0], self.gens[0][-1])
        return max((e for g in self.gens for e in g), default=0)

    _check = _check_operand

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal._canonical(self.num_vars, self.gens + other.gens)

    @cached_property
    def _floor(self) -> list[int] | None:
        """The floor of a d = 2 staircase (x_0, y_0), ..., (x_k, y_k): the
        least y with (x, y) in the ideal for each x in [x_0, x_k], listed by
        x - x_0.  A point left of x_0 is outside the ideal, and one right of
        x_k is inside it exactly when its y is at least y_k.

        None for the zero ideal, and for a staircase whose floor would hold
        more than 8 entries per corner, so a floor never outweighs the corner
        tuples it indexes.
        """
        gens = self.gens
        if not gens or gens[-1][0] - gens[0][0] >= 8 * len(gens):
            return None
        floor = []
        for (x, y), (next_x, _) in zip(gens, gens[1:]):
            floor += [y] * (next_x - x)
        floor.append(gens[-1][1])
        return floor

    @cached_property
    def _pieces(self) -> list[tuple[int, ...]]:
        """A d = 2 staircase as progressions (x, y, dx, dy, n), left to right:
        the n corners (x + i*dx, y + i*dy), i < n.

        A piece of n >= 3 corners is a maximal stretch with one step; a corner
        that starts no such stretch is a piece (x, y, 1, -1, 1) of its own.
        (x^a, y^b)^n is one piece, and so is the valuation ideal of weights
        (1, w), after one lone corner when w does not divide n.
        """
        gens, pieces = self.gens, []
        steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(gens, gens[1:])]
        i = 0
        while i < len(gens):
            # steps i..j-1 are equal, so corners i..j are a stretch
            j = i + 1
            while j < len(steps) and steps[j] == steps[i]:
                j += 1
            if j - i >= 2:
                pieces.append((*gens[i], *steps[i], j - i + 1))
                i = j + 1
            else:
                pieces.append((*gens[i], 1, -1, 1))
                i += 1
        return pieces

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """The product ideal.  In d <= 2 each staircase generator (x, y) is
        packed as the int x*K + y with K above the largest sum of two y's
        (the y of each first generator), so int order is lex order and sums
        never carry; the sorted distinct sums of every pair are swept as
        staircase candidates and only the kept corners are unpacked."""
        self._check(other)
        d = self.num_vars
        if d > 2:
            prods = {tuple(a + b for a, b in zip(g, h))
                     for g in self.gens for h in other.gens}
            return MonomialIdeal._canonical(d, prods)
        if not self.gens or not other.gens:
            return MonomialIdeal._of(d, ())
        if d == 1:
            return MonomialIdeal._of(1, ((self.gens[0][0] + other.gens[0][0],),))
        k = 1 + self.gens[0][1] + other.gens[0][1]
        mine = [x * k + y for x, y in self.gens]
        theirs = [x * k + y for x, y in other.gens]
        sums = {p + q for p in mine for q in theirs}
        kept, low = [], k
        for s in sorted(sums):
            y = s % k
            if y < low:
                kept.append(s)
                low = y
        return MonomialIdeal._of(2, tuple(map(divmod, kept, repeat(k))))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        joins = {tuple(max(a, b) for a, b in zip(g, h))
                 for g in self.gens for h in other.gens}
        return MonomialIdeal._canonical(self.num_vars, joins)

    def saturate(self) -> "MonomialIdeal":
        """Saturation with respect to the maximal ideal, I : m^infty.

        Equals the intersection over variables of the single-variable
        saturations I : x_i^infty (each obtained by zeroing that exponent):
        a monomial with w * x_i^{k_i} in I for each i satisfies
        w * m^{sum k_i} in I.  In d = 1 that is the unit ideal; in d = 2 it
        is (x^a) meet (y^b) = (x^a y^b), a and b read off the staircase ends.
        A variable in no generator has I : x_i^infty = I, so then I^sat = I.
        """
        if self.is_zero():
            return self
        if self.num_vars == 2:
            return MonomialIdeal._canonical(2, ((self.gens[0][0], self.gens[-1][1]),))
        if not all(map(any, zip(*self.gens))):
            return self
        parts = []
        for i in range(self.num_vars):
            dropped = {g[:i] + (0,) + g[i + 1:] for g in self.gens}
            parts.append(MonomialIdeal._canonical(self.num_vars, dropped))
        return reduce(lambda a, b: a.intersect(b), parts)


def _piece_sums(first: MonomialIdeal, second: MonomialIdeal):
    """The sums of a generator of ``first`` and one of ``second`` (d = 2), as
    progressions (x, y, dx, dy, n): the n points (x + i*dx, y + i*dy), with
    dx > 0 > dy.  Two ``_pieces`` with one step sum to one progression of
    n + m - 1 points; any other two give one progression along the longer
    piece per corner of the shorter.
    """
    theirs = second._pieces
    for p in first._pieces:
        for q in theirs:
            if p[2:4] == q[2:4]:
                yield p[0] + q[0], p[1] + q[1], p[2], p[3], p[4] + q[4] - 1
                continue
            (x, y, dx, dy, n), (u, v, du, dv, m) = (p, q) if p[4] <= q[4] else (q, p)
            for i in range(n):
                yield x + i * dx + u, y + i * dy + v, du, dv, m


def check_stack_depth(num_vars: int) -> None:
    """Refuse ``num_vars`` variables when the slice recursion of a d >= 3
    ideal cannot fit on the stack.  Minimalization and the colength and
    degree sweeps recurse through the slices, two frames (the sweep and its
    generator) per variable, so the variables must all fit below the
    recursion limit from the caller's frame."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    if depth + 2 * num_vars > limit:
        raise RecursionError(f"an ideal in {num_vars} variables is too deep "
                             f"for the recursion depth limit {limit}")


def unit_ideal(num_vars: int) -> MonomialIdeal:
    num_vars = _integer(num_vars, "num_vars", 1)
    return MonomialIdeal._of(num_vars, ((0,) * num_vars,))


def _degree_tuples(num_vars: int, degree: int):
    """The exponent vectors of total degree ``degree``, in lex order.

    Stars and bars: a non-decreasing choice b_1 <= ... <= b_{d-1} from
    0..degree is the vector of gaps (b_1, b_2 - b_1, ..., degree - b_{d-1}),
    and the lex order of the choices is the lex order of the vectors.
    """
    for bars in combinations_with_replacement(range(degree + 1), num_vars - 1):
        yield tuple(map(sub, bars + (degree,), (0,) + bars))


def colon_monomial_infinity(ideal: MonomialIdeal, u) -> MonomialIdeal:
    """I : u^infty for a monomial u: zero out the exponents supported on u.

    In d = 2, for a staircase (x_0, y_0), ..., (x_k, y_k), zeroing x leaves
    (y^{y_k}), zeroing y leaves (x^{x_0}), and zeroing both the unit ideal.
    """
    u = _exponent(ideal.num_vars, u)
    if ideal.num_vars == 2 and ideal.gens and any(u):
        gens = ideal.gens
        return MonomialIdeal._of(2, ((0 if u[0] else gens[0][0], 0 if u[1] else gens[-1][1]),))
    support = [i for i, e in enumerate(u) if e > 0]
    gens = {tuple(0 if i in support else e for i, e in enumerate(g))
            for g in ideal.gens}
    return MonomialIdeal._canonical(ideal.num_vars, gens)


def colon_ideal_infinity(ideal: MonomialIdeal, other: MonomialIdeal) -> MonomialIdeal:
    """I : J^infty.

    Equals the intersection over the generators u of J of I : u^infty
    (a power of J contains a high power of a single generator by
    pigeonhole, and conversely).
    """
    ideal._check(other)
    if other.is_zero():
        return unit_ideal(ideal.num_vars)
    parts = [colon_monomial_infinity(ideal, u) for u in other.gens]
    return reduce(lambda a, b: a.intersect(b), parts)


# ---------------------------------------------------------------------------
# colength (staircase complement count)
# ---------------------------------------------------------------------------

def colength(ideal: MonomialIdeal) -> int:
    """Number of standard monomials, dim_k of the quotient.

    Only defined for ideals primary to the maximal ideal (else the quotient
    is infinite-dimensional).
    """
    if not ideal.is_m_primary():
        raise ValueError("infinite colength: ideal is not primary to the maximal ideal")
    return _colength(ideal)


def _last_var_sweep(ideal: MonomialIdeal):
    """(t_k, t_{k+1}, slice k) along the last variable of an m-primary ideal
    in d >= 3 variables: the slices below the pure power, each covering the
    last exponents t_k <= t < t_{k+1}.  The top slice is the unit ideal."""
    tops, slices = ideal._slices
    return zip(tops, tops[1:], slices)


def _colength(ideal: MonomialIdeal) -> int:
    gens = ideal.gens
    if ideal.num_vars == 1:
        return gens[0][0]
    if ideal.num_vars == 2:
        # area under the staircase (0, y_0), (x_1, y_1), ..., (x_k, 0)
        return sum((x1 - x0) * y0 for (x0, y0), (x1, _) in zip(gens, gens[1:]))
    return sum((t1 - t0) * _colength(s) for t0, t1, s in _last_var_sweep(ideal))


def max_standard_degree(ideal: MonomialIdeal) -> int:
    """Largest total degree of a monomial outside the ideal; -1 for the unit."""
    if not ideal.is_m_primary():
        raise ValueError("unbounded standard monomials")
    return _max_standard_degree(ideal)


def _max_standard_degree(ideal: MonomialIdeal) -> int:
    gens = ideal.gens
    if ideal.is_unit():
        return -1
    if ideal.num_vars == 1:
        return gens[0][0] - 1
    if ideal.num_vars == 2:
        # the inner corners (x_{i+1} - 1, y_i - 1) of the staircase
        return max(x1 + y0 for (_, y0), (x1, _) in zip(gens, gens[1:])) - 2
    # slices below the top are not the unit ideal; the top exponent of
    # slice k's complement is t_{k+1} - 1
    return max(t1 - 1 + _max_standard_degree(s) for _, t1, s in _last_var_sweep(ideal))


def madic_order(ideal: MonomialIdeal) -> int:
    """Smallest c with m^c contained in the ideal (0 for the unit ideal)."""
    return max_standard_degree(ideal) + 1


def saturation_quotient_colength(ideal: MonomialIdeal) -> int:
    """Length of (I^sat)/I, the finite m-torsion part of the quotient.

    Computed as a difference of colengths truncated by the box [0, M)^d,
    M = max(I.max_exponent(), 1).  Let M_i be the largest x_i-exponent of a
    generator of I.  If w_i >= M_i, then w * x_i^k is in I exactly when w
    is: a generator dividing w * x_i^k has x_i-exponent M_i or less, so it
    divides w.  A monomial w of I^sat has w * x_i^k in I for every i and
    some k, so if w is not in I then w_i < M_i for every i.  All of
    I^sat / I therefore lies in the box.
    """
    if ideal.is_zero():
        return 0
    sat = ideal.saturate()
    if sat == ideal:
        return 0
    bound = max(ideal.max_exponent(), 1)
    box = MonomialIdeal._canonical(
        ideal.num_vars, [tuple(bound if i == j else 0 for j in range(ideal.num_vars))
                         for i in range(ideal.num_vars)])
    return _colength(ideal + box) - _colength(sat + box)


# ---------------------------------------------------------------------------
# square-zero nilpotent pairs
# ---------------------------------------------------------------------------

class NilPairIdeal(_Value):
    """The ideal m^base + y*m^socle of k[x_1..x_d, y]/(y^2), m = (x_1..x_d).

    Both parts of the pair (A, yB) are powers of m, so it is two exponents;
    their generators are the monomials of degree base and socle.  yA must
    lie in yB for the pair to be an ideal: 0 <= socle <= base.
    """

    _fields = ("num_vars", "base", "socle")

    def __init__(self, num_vars: int, base: int, socle: int):
        num_vars = _integer(num_vars, "num_vars", 1)
        base, socle = _integer(base, "base"), _integer(socle, "socle")
        if not 0 <= socle <= base:
            raise ValueError("base must be contained in socle: need 0 <= socle <= base")
        super().__init__(num_vars, base, socle)

    _check = _check_operand

    def length(self) -> int:
        """Colength in the square-zero extension ring; m^n misses C(n+d-1, d)."""
        d = self.num_vars
        return math.comb(self.base + d - 1, d) + math.comb(self.socle + d - 1, d)

    def is_unit(self) -> bool:
        # the socle contains the base, so a unit base makes both units
        return self.base == 0

    def first_escape(self, target: "NilPairIdeal") -> str | None:
        """The first generator of self outside ``target``, base part first,
        described as ``"base monomial g"`` or ``"socle monomial g"``, or None
        when self is inside ``target``.  m^e is inside m^f iff e >= f, and
        the lex-first generator of m^e is (0, ..., 0, e)."""
        self._check(target)
        for part, mine, theirs in (("base", self.base, target.base),
                                   ("socle", self.socle, target.socle)):
            if mine < theirs:
                return f"{part} monomial {(0,) * (self.num_vars - 1) + (mine,)}"
        return None

    def holds_products(self, pairs) -> bool:
        """True when P * Q lies in self for every pair (P, Q) of ``pairs``, by
        the exponents of ``__mul__``: a + a' >= base and min(a + b', a' + b)
        >= socle.  False also for a pair of another value type or number of
        variables, which the product refuses."""
        return all(p.__class__ is q.__class__ is NilPairIdeal
                   and p.num_vars == q.num_vars == self.num_vars
                   and p.base + q.base >= self.base
                   and min(p.base + q.socle, q.base + p.socle) >= self.socle
                   for p, q in pairs)

    def __mul__(self, other: "NilPairIdeal") -> "NilPairIdeal":
        """(m^a + y m^b)(m^a' + y m^b') = m^{a+a'} + y m^{min(a+b', a'+b)}."""
        self._check(other)
        # the factors are valid, so a + a' >= min(a + b', a' + b) >= 0: the
        # product is built unchecked
        pair = object.__new__(NilPairIdeal)
        object.__setattr__(pair, "num_vars", self.num_vars)
        object.__setattr__(pair, "base", self.base + other.base)
        object.__setattr__(pair, "socle", min(self.base + other.socle,
                                              other.base + self.socle))
        return pair


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------

def multiplicity(ideal: MonomialIdeal) -> Fraction:
    """Hilbert-Samuel multiplicity of an m-primary monomial ideal.

    d! times the covolume of the Newton region: the box [0, c]^d less the
    hull of the generators clipped to it, with c = d * max_exponent (at
    least 1), which dominates every generator.  Exact, and independent of
    the length-sequence route (which it cross-checks).
    """
    from .lattice import convex_hull, lattice_volume, standard_lattice

    if not ideal.is_m_primary():
        raise ValueError("multiplicity needs an ideal primary to the maximal ideal")
    d = ideal.num_vars
    clip = max(d * ideal.max_exponent(), 1)
    points = {tuple(clip if mask & (1 << i) else g[i] for i in range(d))
              for g in ideal.gens for mask in range(1 << d)}
    volume = lattice_volume(convex_hull(points), standard_lattice(d))
    return math.factorial(d) * (Fraction(clip) ** d - volume)
