"""Acceptance suite: every numeric contract of the package, one test per
criterion, each printing a PASS/FAIL line.  Tolerances are pinned here and
nowhere else."""

import random
from fractions import Fraction
from math import comb
from pathlib import Path

from gradedlimits.cli import main as cli_main
from gradedlimits.experiments import (
    OSCILLATES,
    ScaledSequence,
    convergence_report,
    length_sequence,
    volume_equals_multiplicity,
)
from gradedlimits.families import (
    BlockSchedule,
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
from gradedlimits.lattice import hermite_basis, standard_lattice
from gradedlimits.monomial import (
    MonomialIdeal,
    colength,
    saturation_quotient_colength,
    unit_ideal,
)
from gradedlimits.semigroup import GradedSemigroup, invariants, truncate
from gradedlimits.series import (
    NEG_INF,
    closure_violations,
    full_weighted_series,
    kodaira_iitaka,
    log_nil_series,
    nil_hyperplane_series,
    sigma_growth_series,
    tau_pulse_series,
    artin_tau_series,
)
from oracles import colength_bruteforce, empirical_limit, max_ideal_power

REPO = Path(__file__).resolve().parent.parent
SCHEDULE = BlockSchedule((2, 6, 26, 210))

SEMIGROUP_FIXTURES = [
    ([((0,), 1), ((1,), 1)], Fraction(1)),
    ([((0,), 1), ((3,), 1)], Fraction(1)),
    ([((0,), 2), ((2,), 2)], Fraction(1)),
    ([((0,), 1), ((1,), 2)], Fraction(1, 2)),
    ([((0,), 2)], Fraction(1)),
]


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, failures


def test_c01_semigroup_limits():
    failures = []
    for gens, predicted in SEMIGROUP_FIXTURES:
        s = GradedSemigroup(1, generators=gens)
        inv = invariants(s)
        if inv.predicted_limit != predicted:
            failures.append(f"{gens}: predicted {inv.predicted_limit} != {predicted}")
        _, tail = empirical_limit(s, 1000)[-1]
        if abs(tail - predicted) > Fraction(2, 100) * predicted:
            failures.append(f"{gens}: tail {tail} not within 2% of {predicted}")
    _report(1, "semigroup limits at horizon 1000", failures)


def test_c02_full_group_special_case():
    failures = []
    for gens, _ in SEMIGROUP_FIXTURES:
        rows = [v + (d,) for v, d in gens]
        if hermite_basis(rows, 2).basis != standard_lattice(2).basis:
            continue  # generated group is a proper subgroup
        inv = invariants(GradedSemigroup(1, generators=gens))
        if (inv.m, inv.ind) != (1, 1):
            failures.append(f"{gens}: m={inv.m}, ind={inv.ind}, wanted 1, 1")
    _report(2, "full-group fixtures have m = ind = 1", failures)


def test_c03_truncation():
    failures = []
    s = GradedSemigroup(1, generators=[((0,), 1), ((1,), 2)])
    q = invariants(s).q
    for p in (2, 4, 8):
        ti = invariants(truncate(s, p))
        rescaled = ti.predicted_limit / Fraction(p) ** q
        if rescaled != Fraction(1, 2):
            failures.append(f"p={p}: rescaled {rescaled} != 1/2")
    t1 = invariants(truncate(s, 1))
    if t1.q >= q:
        failures.append("p=1 does not drop the boundary dimension")
    _report(3, "truncation sweep on the half-step fixture", failures)


def test_c04_colength_exactness():
    failures = []
    for d in (1, 2, 3, 4):
        for n in range(1, 51):
            if colength(max_ideal_power(d, n)) != comb(n + d - 1, d):
                failures.append(f"m^{n} in {d} vars")
    rng = random.Random(20240809)
    for _ in range(200):
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(1, 6) if j == i else 0 for j in range(d))
                for i in range(d)]
        for _ in range(rng.randint(0, 4)):
            gens.append(tuple(rng.randint(0, 6) for _ in range(d)))
        ideal = MonomialIdeal(d, tuple(gens))
        if colength(ideal) != colength_bruteforce(ideal):
            failures.append(f"slicing vs brute force differ on {ideal.gens}")
    _report(4, "colength identities and oracle agreement", failures)


def test_c05_volume_equals_multiplicity():
    failures = []
    rep = volume_equals_multiplicity(valuation_family((1, 2)), [1, 2, 4, 8], 2000)
    for p, rhs, _ in rep.rows:
        # I_p = (x^a y^b : a + 2b >= p) has e(I_p) = ceil(p^2/2): 1 at p = 1,
        # where I_1 = (x, y), and p^2/2 at even p; only the limits must agree
        wanted = Fraction(-(-p * p // 2), p * p)
        if rhs != wanted:
            failures.append(f"valuation rhs at p={p} is {rhs}, wanted {wanted}")
    if abs(rep.lhs - Fraction(1, 2)) > Fraction(1, 2) / 100:
        failures.append(f"valuation lhs {rep.lhs} not within 1% of 1/2")
    rep2 = volume_equals_multiplicity(
        power_family(MonomialIdeal(2, ((2, 0), (0, 3)))), [1, 2, 4, 8], 300)
    for p, rhs, _ in rep2.rows:
        if rhs != 6:
            failures.append(f"staircase rhs at p={p} is {rhs}, wanted 6")
    if abs(rep2.lhs - 6) > Fraction(2, 100) * 6:
        failures.append(f"staircase lhs {rep2.lhs} not within 2% of 6")
    _report(5, "volume equals multiplicity", failures)


def test_c06_nilpair_sigma_non_convergence():
    failures = []
    fam = nilpair_sigma_family(1, SCHEDULE)
    seq = length_sequence(fam, 210)
    scaled = {n: v for n, _, v in seq.entries}
    if scaled[26] != Fraction(3, 2):
        failures.append(f"value at 26 is {scaled[26]}")
    if scaled[209] != 2 - Fraction(13, 209):
        failures.append(f"value at 209 is {scaled[209]}")
    rep = convergence_report(seq, max_modulus=3)
    if not rep.all_verdicts(OSCILLATES):
        failures.append("some residue class does not oscillate")
    if not rep.liminf_est <= Fraction(151, 100):
        failures.append(f"liminf {rep.liminf_est} > 1.51")
    if not rep.limsup_est >= Fraction(193, 100):
        failures.append(f"limsup {rep.limsup_est} < 1.93")
    _report(6, "square-zero sigma family oscillates", failures)


def test_c07_artin_family():
    failures = []
    fam = artin_tau_family(2, SCHEDULE)
    horizon = 420
    lengths = {n: fam.length(n) for n in range(1, horizon + 1)}
    if set(lengths.values()) != {2, 3}:
        failures.append(f"values {sorted(set(lengths.values()))} not two levels")
    edges = [2, 6, 26, 210, horizon + 1]
    for lo, hi in zip(edges, edges[1:]):
        block = {lengths[n] for n in range(lo, min(hi, horizon + 1))}
        if len(block) != 1:
            failures.append(f"block [{lo},{hi}) not constant: {block}")
    rep = convergence_report(length_sequence(fam, horizon), max_modulus=4)
    if not rep.all_verdicts(OSCILLATES):
        failures.append("some residue class does not oscillate")
    _report(7, "Artin tau family alternates by block", failures)


def test_c08_saturation_lengths():
    failures = []
    base = MonomialIdeal(2, ((2, 0), (1, 1)))
    power = unit_ideal(2)
    final = None
    for n in range(1, 501):
        power = power * base
        ell = saturation_quotient_colength(power)
        if ell != comb(n + 1, 2):
            failures.append(f"length at n={n} is {ell}, wanted C(n+1,2)")
            break
        final = Fraction(2 * ell, n ** 2)
    if final is None or abs(final - 1) > Fraction(2, 100):
        failures.append(f"scaled value at 500 is {final}, not within 2% of 1")
    _report(8, "saturation quotient lengths", failures)


def test_c09_kodaira_iitaka_fixtures():
    failures = []
    if kodaira_iitaka(full_weighted_series((1, 1, 1), 60), 40)[0] != 2:
        failures.append("full plane model kappa != 2")
    plateau = nil_hyperplane_series(("mod", 3, (0,)), 2, 210)
    if kodaira_iitaka(plateau, 60)[0] != NEG_INF:
        failures.append("nil plateau series kappa != -inf")
    for n in range(1, 201):
        want = n + 1 if n % 3 == 0 else 0
        if plateau.dim(n) != want:
            failures.append(f"plateau dim at {n} is {plateau.dim(n)}")
            break
    for s, r in ((0, 1), (1, 2), (None, 1)):
        series = sigma_growth_series(s, r, SCHEDULE, horizon=210)
        kappa = kodaira_iitaka(series, 40)[0]
        want = NEG_INF if s is None else s
        if kappa != want:
            failures.append(f"sigma series ({s},{r}) kappa {kappa} != {want}")
    _report(9, "Kodaira-Iitaka dimensions", failures)


def test_c10_sigma_series_dimension_formula():
    failures = []
    for s, r in ((0, 1), (1, 2), (None, 1)):
        series = sigma_growth_series(s, r, SCHEDULE, horizon=210)
        dims_list = [series.dim(n) for n in range(1, 211)]
        # C(n+s, s) reduced monomials and C(n+sigma+r, r) nil ones
        expected = [(0 if s is None else comb(n + s, s))
                    + comb(n + SCHEDULE.sigma_capped(n) + r, r) for n in range(1, 211)]
        enumerated = [len(series.level(n)) for n in range(1, 211)]
        if not dims_list == enumerated == expected:
            failures.append(f"({s},{r}): dims deviate from the two-part count")
        entries = tuple((n, Fraction(v), Fraction(v, n ** r))
                        for n, v in enumerate(dims_list, 1))
        seq = ScaledSequence("dims", r, f"dim/n^{r}", entries)
        rep = convergence_report(seq, max_modulus=4)
        if not rep.all_verdicts(OSCILLATES):
            failures.append(f"({s},{r}): some residue class does not oscillate")
    _report(10, "oscillating series dimension formula", failures)


def test_c11_graded_axiom_suite():
    failures = []
    families = [
        power_family(MonomialIdeal(2, ((2, 0), (0, 3)))),
        valuation_family((1, 2)),
        saturation_family(MonomialIdeal(2, ((2, 0), (1, 1)))),
        symbolic_family(MonomialIdeal(2, ((2, 0), (1, 1))),
                        MonomialIdeal(2, ((1, 0), (0, 1)))),
        nilpair_sigma_family(1, SCHEDULE),
        perturbed_power_family(1, SCHEDULE),
        artin_tau_family(2, SCHEDULE),
    ]
    for fam in families:
        if not check_graded(fam, 100).ok:
            failures.append(f"family {fam.name} fails the graded axiom")
    series_list = [
        full_weighted_series((1, 1), 100),
        nil_hyperplane_series(("mod", 3, (0,)), 2, 100),
        log_nil_series(("mod", 2, (0,)), 100),
        sigma_growth_series(0, 1, SCHEDULE, horizon=100),
        sigma_growth_series(1, 2, SCHEDULE, horizon=100),
        sigma_growth_series(None, 1, SCHEDULE, horizon=100),
        tau_pulse_series(SCHEDULE, horizon=100),
        artin_tau_series(2, SCHEDULE, horizon=100),
    ]
    for series in series_list:
        if closure_violations(series, 100):
            failures.append(f"series {series.name} fails closure")
    bad = check_graded(corrupted_sigma_family(1), 100)
    if bad.ok or not bad.violations:
        failures.append("corrupted fixture passes")
    elif "escapes" not in bad.violations[0][2]:
        failures.append("corrupted fixture lacks a witness")
    _report(11, "graded axiom suite at horizon 100", failures)


def test_c12_cli_determinism(tmp_path):
    failures = []
    jobs = [
        ("semigroup", REPO / "specs" / "semigroup_halfstep.spec"),
        ("semigroup", REPO / "specs" / "semigroup_affine.spec"),
        ("family", REPO / "specs" / "family_valuation12.spec"),
        ("family", REPO / "specs" / "family_nilpair_sigma.spec"),
        ("family", REPO / "specs" / "family_artin_t2.spec"),
        ("series", REPO / "specs" / "series_sigma_s0r1.spec"),
        ("series", REPO / "specs" / "series_lognil_evens.spec"),
        ("volmult", REPO / "specs" / "volmult_valuation12.spec"),
        ("eps", REPO / "ideals" / "x2_xy.ideal"),
    ]
    for i, (cmd, spec) in enumerate(jobs):
        extra = ["--horizon", "200"] if cmd == "eps" else []
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{i}_t{threads}.csv"
            code = cli_main([cmd, str(spec), *extra, "--threads", threads,
                             "--out", str(out)])
            if code != 0:
                failures.append(f"{cmd} {spec.name} exited {code}")
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            failures.append(f"{cmd} {spec.name} differs across thread counts")
    _report(12, "CLI determinism across thread counts", failures)
