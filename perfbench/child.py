"""One fresh interpreter of the benchmark: a CLI job, the graded-axiom suite,
or a set-up probe.

    python3 perfbench/child.py [--trace OUT.json] cli ARG...
    python3 perfbench/child.py [--trace OUT.json] axiom ORDER
    python3 perfbench/child.py setup cli CMD SPEC
    python3 perfbench/child.py setup axiom

``cli`` runs ``gradedlimits.cli.main`` on the arguments and exits with its
code.  ``axiom`` runs the graded-axiom suite (the acceptance test c11) with
its checks in ORDER, a comma-separated permutation of ``0..15``, and prints
one JSON line of results in canonical check order.  ``setup`` imports the
package and loads and builds the job's inputs without computing a level,
then exits.  With ``--trace`` the public functions of ``gradedlimits`` are
wrapped (see ``tracer.py``) and the span summary is written to OUT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CLI_DEFAULT_HORIZON = {"semigroup": 200, "family": 210, "series": 210, "volmult": 400}


def axiom_checks():
    """The c11 suite as 16 named thunks, each returning (ok, detail)."""
    from gradedlimits.families import (
        BlockSchedule, artin_tau_family, check_graded, corrupted_sigma_family,
        nilpair_sigma_family, perturbed_power_family, power_family,
        saturation_family, symbolic_family, valuation_family,
    )
    from gradedlimits.monomial import MonomialIdeal
    from gradedlimits.series import (
        artin_tau_series, closure_violations, full_weighted_series,
        log_nil_series, nil_hyperplane_series, sigma_growth_series,
        tau_pulse_series,
    )

    schedule = BlockSchedule((2, 6, 26, 210))
    families = [
        ("power", lambda: power_family(MonomialIdeal(2, ((2, 0), (0, 3))))),
        ("valuation", lambda: valuation_family((1, 2))),
        ("saturation", lambda: saturation_family(MonomialIdeal(2, ((2, 0), (1, 1))))),
        ("symbolic", lambda: symbolic_family(MonomialIdeal(2, ((2, 0), (1, 1))),
                                             MonomialIdeal(2, ((1, 0), (0, 1))))),
        ("nilpair_sigma", lambda: nilpair_sigma_family(1, schedule)),
        ("perturbed_power", lambda: perturbed_power_family(1, schedule)),
        ("artin_tau", lambda: artin_tau_family(2, schedule)),
    ]
    series = [
        ("full_weighted", lambda: full_weighted_series((1, 1), 100)),
        ("nil_hyperplane", lambda: nil_hyperplane_series(("mod", 3, (0,)), 2, 100)),
        ("log_nil", lambda: log_nil_series(("mod", 2, (0,)), 100)),
        ("sigma_growth_0_1", lambda: sigma_growth_series(0, 1, schedule, horizon=100)),
        ("sigma_growth_1_2", lambda: sigma_growth_series(1, 2, schedule, horizon=100)),
        ("sigma_growth_none_1", lambda: sigma_growth_series(None, 1, schedule, horizon=100)),
        ("tau_pulse", lambda: tau_pulse_series(schedule, horizon=100)),
        ("artin_tau_series", lambda: artin_tau_series(2, schedule, horizon=100)),
    ]

    def graded(build):
        return lambda: (check_graded(build(), 100).ok, "")

    def closed(build):
        return lambda: (not closure_violations(build(), 100), "")

    def corrupted():
        bad = check_graded(corrupted_sigma_family(1), 100)
        detail = bad.violations[0][2] if bad.violations else ""
        return (not bad.ok and "escapes" in detail, detail)

    builders = [b for _, b in families] + [b for _, b in series]
    checks = ([(f"graded:{n}", graded(b)) for n, b in families]
              + [(f"closed:{n}", closed(b)) for n, b in series]
              + [("corrupted:nilpair_sigma", corrupted)])
    builders.append(lambda: corrupted_sigma_family(1))
    return checks, builders


def run_axiom(order: str) -> int:
    checks, _ = axiom_checks()
    results = {}
    for i in (int(x) for x in order.split(",")):
        name, check = checks[i]
        ok, detail = check()
        results[i] = {"check": name, "ok": ok, "detail": detail}
    print(json.dumps([results[i] for i in sorted(results)]))
    return 0


def run_setup(kind: str, args: list[str]) -> int:
    import gradedlimits  # noqa: F401  (the import is part of set-up)
    if kind == "axiom":
        _, builders = axiom_checks()
        for build in builders:
            build()
        return 0
    import gradedlimits.cli  # noqa: F401
    from gradedlimits.specfiles import (
        build_family, build_semigroup, build_series, load_ideal, load_spec,
    )
    cmd, path = args[0], Path(args[1])
    if cmd == "eps":
        load_ideal(path)
        return 0
    spec = load_spec(path)
    horizon = int(spec["horizon"][0]) if spec.get("horizon") else CLI_DEFAULT_HORIZON[cmd]
    if cmd == "semigroup":
        build_semigroup(spec)
    elif cmd == "series":
        build_series(spec, horizon)
    else:
        build_family(spec, path.parent, horizon)
    return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[0] == "--trace":
        trace_out, argv = Path(argv[1]), argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return run_setup(rest[0], rest[1:])
    rec = None
    if trace_out is not None:
        import tracer  # beside this file, so on sys.path[0]
        rec = tracer.install()
    try:
        if mode == "cli":
            from gradedlimits import cli
            run = (lambda: rec.span("cli", cli.main, rest)) if rec else (lambda: cli.main(rest))
            return run()
        if mode == "axiom":
            return run_axiom(rest[0])
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if rec is not None:
            trace_out.write_text(json.dumps(rec.summary()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
