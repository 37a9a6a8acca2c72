"""Command line interface: run the experiments on spec files, emit CSV.

Subcommands: semigroup, family, series, volmult, eps.  Output is CSV to
stdout or --out; --golden DIR compares the bytes against a committed golden
file and --write-golden DIR refreshes it.  Exit codes: 0 all verdicts as
expected, 1 verdict or golden mismatch, 2 usage error, bad input, an
exceeded point budget or an input too deep for Python's recursion limit
(one ``error:`` line on stderr).  Horizon, moduli and tol come from the
flag, else the spec key, else the default, and are range-checked whichever
source gave them before any level is built; an explicit value such as
``--tol 0`` is used as given, never replaced by the spec default.  The pset and truncate lists come from
the flag, else the spec key, else ``1 2 4 8``; an empty list is a usage
error.  A subcommand imports the modules it runs when it runs: ``series``
here, and the rest inside the ``build_*`` functions of ``specfiles`` and the
experiments of ``experiments``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import sys
from pathlib import Path

from .experiments import (
    DEFAULT_TOL,
    convergence_report,
    dim_sequence,
    length_sequence,
    saturation_gap_sequence,
    semigroup_limit_report,
    volume_equals_multiplicity,
)
from .specfiles import (
    SpecError,
    build_family,
    build_semigroup,
    build_series,
    load_ideal,
    load_spec,
    rational,
    _single,
    _choice,
    _int,
    _fraction,
    _int_list,
)

FIELDS = ("record", "n", "residue_class", "raw", "scaled", "scaled_float",
          "verdict", "liminf", "limsup", "limit", "detail")
VERDICTS = ("converges", "oscillates")
_BLANK = dict.fromkeys(FIELDS, "")


def _ff(x) -> str:
    return "" if x is None else str(x)


def _fl(x) -> str:
    # the int true division that float(Fraction) does, without its properties
    return f"{x.numerator / x.denominator:.6f}"


def _row(**kw) -> tuple:
    """One CSV row in ``FIELDS`` order; a field not given is empty."""
    return tuple({**_BLANK, **kw}.values())


def _value_row(n: int, raw, scaled) -> tuple:
    """The ``value`` row of index n, built directly in ``FIELDS`` order."""
    return ("value", n, "", str(raw), str(scaled), _fl(scaled), "", "", "", "", "")


def _convergence_rows(expect, seq, report) -> tuple[list[tuple], bool]:
    """Value, verdict and summary rows of a scaled sequence and its report,
    and whether every verdict matches the expectation."""
    rows = [_row(record="meta", detail=f"scaled={seq.normalization}")]
    rows += [_value_row(n, raw, scaled) for n, raw, scaled in seq.entries]
    for c in report.classes:
        rows.append(_row(record="verdict",
                         residue_class=f"{c.residue} mod {c.modulus}",
                         verdict=c.verdict,
                         liminf=_ff(c.liminf_est), limsup=_ff(c.limsup_est),
                         limit=_ff(c.limit_estimate),
                         detail=f"points={c.points}"))
    ok = expect is None or report.all_verdicts(expect)
    rows.append(_row(record="summary", verdict="ok" if ok else "mismatch",
                     liminf=_ff(report.liminf_est), limsup=_ff(report.limsup_est),
                     detail=f"expect={expect or 'none'}"))
    return rows, ok


def _emit(rows: list[tuple], ok: bool, args, golden_name: str) -> int:
    """Write the CSV, compare or refresh the golden; return the exit code."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELDS)
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.write_golden:
        directory = Path(args.write_golden)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / golden_name).write_text(text)
    if args.golden:
        path = Path(args.golden) / golden_name
        if not path.exists():
            sys.stderr.write(f"golden file missing: {path}\n")
            return 1
        if path.read_text() != text:
            sys.stderr.write(f"golden mismatch: {path}\n")
            return 1
    return 0 if ok else 1


# spec-key reader and least allowed value of each range-checked setting
_SETTINGS = {"horizon": (_int, 1), "moduli": (_int, 1), "tol": (_fraction, 0)}


def _resolve(args, spec: dict, key: str, default):
    """The ``--key`` flag if given, else the spec key, else the default.

    The resolved value is range-checked whichever source it came from, so an
    explicit 0 is used as given and an out-of-range spec value is rejected
    like a flag.
    """
    read, low = _SETTINGS[key]
    value, source = getattr(args, key), f"--{key}"
    if value is None:
        value, source = read(spec, key), f"spec key '{key}'"
        if value is None:
            return default
    if value < low:
        raise ValueError(f"{source} must be at least {low}, got {value}")
    return value


def _levels(args, spec: dict, key: str) -> list[int]:
    """The ``--key`` list if given, even empty, else the spec key, else
    1 2 4 8; raises on an empty list."""
    value, source = getattr(args, key), f"--{key}"
    if value is None:
        value, source = _single(spec, key, "1 2 4 8"), f"spec key '{key}'"
    levels = _int_list(value, source)
    if not levels:
        raise ValueError(f"{source} lists no values")
    return levels


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_semigroup(args) -> int:
    spec = load_spec(args.spec)
    s = build_semigroup(spec)
    horizon = _resolve(args, spec, "horizon", 200)
    tol = _resolve(args, spec, "tol", DEFAULT_TOL)
    expect_limit = _fraction(spec, "expect_limit")
    report = semigroup_limit_report(s, horizon, _levels(args, spec, "truncate"), tol)
    inv = report.invariants
    rows = [_row(record="invariant", detail=(f"m={inv.m};q={inv.q};ind={inv.ind};"
                                             f"volume={inv.body.volume}"),
                 limit=_ff(inv.predicted_limit))]
    rows.append(_row(record="meta", detail=f"scaled=count/k^{inv.q}"))
    rows += [_value_row(k, count, scaled) for k, count, scaled in report.entries]
    for t in report.truncations:
        rows.append(_row(record="truncate", n=t.p, scaled=_ff(t.rescaled_limit),
                         scaled_float=_fl(t.rescaled_limit),
                         verdict="q_drop" if t.dimension_drop else "q_kept",
                         detail=f"q={t.q_truncated};gap={t.gap}"))
    ok = report.within_tol
    if expect_limit is not None and inv.predicted_limit != expect_limit:
        ok = False
    rows.append(_row(record="summary", verdict="ok" if ok else "mismatch",
                     limit=_ff(inv.predicted_limit),
                     detail=f"relative_gap={report.relative_gap}"))
    return _emit(rows, ok, args, f"{Path(args.spec).stem}__semigroup.csv")


def _cmd_family(args) -> int:
    spec = load_spec(args.spec)
    expect = args.expect or _choice(spec, "expect", VERDICTS)
    horizon = _resolve(args, spec, "horizon", 210)
    moduli = _resolve(args, spec, "moduli", 4)
    tol = _resolve(args, spec, "tol", DEFAULT_TOL)
    family = build_family(spec, Path(args.spec).parent, horizon)
    seq = length_sequence(family, horizon)
    report = convergence_report(seq, moduli, tol)
    rows, ok = _convergence_rows(expect, seq, report)
    return _emit(rows, ok, args, f"{Path(args.spec).stem}__family.csv")


def _cmd_series(args) -> int:
    from .series import series_invariants

    spec = load_spec(args.spec)
    expect = args.expect or _choice(spec, "expect", VERDICTS)
    horizon = _resolve(args, spec, "horizon", 210)
    moduli = _resolve(args, spec, "moduli", 4)
    tol = _resolve(args, spec, "tol", DEFAULT_TOL)
    series = build_series(spec, horizon)
    exponent = _int(spec, "exponent", series.natural_exponent)
    seq = dim_sequence(series, horizon, exponent)
    report = convergence_report(seq, moduli, tol)
    inv = series_invariants(series)
    kappa = "-inf" if inv.kappa == float("-inf") else str(inv.kappa)
    rows = [_row(record="invariant",
                 detail=(f"kappa={kappa};index={inv.index_estimate};"
                         f"horizon_dependent={'yes' if inv.horizon_dependent else 'no'}"))]
    more, ok = _convergence_rows(expect, seq, report)
    return _emit(rows + more, ok, args, f"{Path(args.spec).stem}__series.csv")


def _cmd_volmult(args) -> int:
    spec = load_spec(args.spec)
    horizon = _resolve(args, spec, "horizon", 400)
    family = build_family(spec, Path(args.spec).parent, horizon)
    pset = _levels(args, spec, "pset")
    tol = _resolve(args, spec, "tol", DEFAULT_TOL)
    expect_value = _fraction(spec, "expect_value")
    report = volume_equals_multiplicity(family, pset, horizon)
    rows = [_row(record="meta",
                 detail=f"rhs=multiplicity(I_p)/p^d;lhs=d!*length/n^d at n={report.lhs_at}")]
    rows.append(_row(record="lhs", n=report.lhs_at, scaled=_ff(report.lhs),
                     scaled_float=_fl(report.lhs)))
    for p, rhs, gap in report.rows:
        rows.append(_row(record="rhs", n=p, scaled=_ff(rhs), scaled_float=_fl(rhs),
                         detail=f"gap={gap}"))
    ok = True
    if expect_value is not None:
        ok = all(rhs == expect_value for _, rhs, _ in report.rows) and \
            abs(report.lhs - expect_value) <= tol
    rows.append(_row(record="summary", verdict="ok" if ok else "mismatch",
                     detail=f"expect_value={expect_value if expect_value is not None else 'none'}"))
    return _emit(rows, ok, args, f"{Path(args.spec).stem}__volmult.csv")


def _cmd_eps(args) -> int:
    ideal = load_ideal(args.ideal)
    horizon = _resolve(args, {}, "horizon", 200)
    moduli = _resolve(args, {}, "moduli", 4)
    tol = _resolve(args, {}, "tol", DEFAULT_TOL)
    seq = saturation_gap_sequence(ideal, horizon)
    report = convergence_report(seq, moduli, tol)
    rows, ok = _convergence_rows(args.expect, seq, report)
    return _emit(rows, ok, args, f"{Path(args.ideal).stem}__eps.csv")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--horizon", type=int, default=None)
    sub.add_argument("--tol", type=rational, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--golden", default=None)
    sub.add_argument("--write-golden", dest="write_golden", default=None)
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored; the library is single-threaded")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedlimits",
        description="Exact limit experiments for graded semigroups, ideal "
                    "families, and monomial linear series.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("semigroup", help="invariants, level counts, truncations")
    p.add_argument("spec")
    p.add_argument("--truncate", default=None, help="comma separated levels")
    _add_common(p)
    p.set_defaults(fn=_cmd_semigroup)

    p = subs.add_parser("family", help="scaled lengths and convergence verdicts")
    p.add_argument("spec")
    p.add_argument("--moduli", type=int, default=None)
    p.add_argument("--expect", choices=VERDICTS, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_family)

    p = subs.add_parser("series", help="scaled dimensions and verdicts")
    p.add_argument("spec")
    p.add_argument("--moduli", type=int, default=None)
    p.add_argument("--expect", choices=VERDICTS, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_series)

    p = subs.add_parser("volmult", help="volume = multiplicity comparison")
    p.add_argument("spec")
    p.add_argument("--pset", default=None, help="comma separated powers")
    _add_common(p)
    p.set_defaults(fn=_cmd_volmult)

    p = subs.add_parser("eps", help="saturation length experiment on an ideal file")
    p.add_argument("ideal")
    p.add_argument("--moduli", type=int, default=None)
    p.add_argument("--expect", choices=VERDICTS, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_eps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except (SpecError, OSError, ValueError, MemoryError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> None:
    """Process entry point: exit with the code of ``main`` on ``sys.argv``.

    Before the exit every object still alive is frozen (``gc.freeze``), so
    the interpreter's last full collection has nothing to walk; module
    teardown, ``atexit`` handlers and the flush of stdio still run.  Only
    a process that is about to end may freeze, so ``main``, the in-process
    entry, never does.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
