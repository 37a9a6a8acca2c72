import gc
import hashlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradedlimits import cli
from gradedlimits.cli import main
from gradedlimits.series import MonomialLinearSeries

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"
IDEALS = REPO / "ideals"


def run(*argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_semigroup_ok(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("semigroup", SPECS / "semigroup_halfstep.spec",
                   "--out", out) == 0
        text = out.read_text()
        assert "summary" in text and ",ok," in text

    def test_family_expectation_met(self, tmp_path):
        assert run("family", SPECS / "family_nilpair_sigma.spec",
                   "--out", tmp_path / "o.csv") == 0

    def test_family_expectation_mismatch(self, tmp_path):
        assert run("family", SPECS / "family_valuation12.spec",
                   "--expect", "oscillates", "--out", tmp_path / "o.csv") == 1

    def test_usage_error(self):
        assert run("family") == 2
        assert run("family", "/nonexistent/path.spec") == 2

    def test_bad_spec_file(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("no colon here\n")
        assert run("family", bad) == 2

    @pytest.mark.parametrize("case", ["input_directory", "out_directory",
                                      "write_golden_file"])
    def test_os_errors_exit_two(self, capsys, tmp_path, case):
        spec = SPECS / "semigroup_halfstep.spec"
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {"input_directory": ("eps", tmp_path),
                "out_directory": ("semigroup", spec, "--out", tmp_path),
                "write_golden_file": ("semigroup", spec, "--out", tmp_path / "o.csv",
                                      "--write-golden", taken)}[case]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_eps(self, tmp_path):
        assert run("eps", IDEALS / "x2_xy.ideal", "--horizon", 200,
                   "--expect", "converges", "--out", tmp_path / "o.csv") == 0

    def test_volmult(self, tmp_path):
        assert run("volmult", SPECS / "volmult_valuation12.spec",
                   "--out", tmp_path / "o.csv") == 0

    def test_volmult_pset_order(self, tmp_path):
        # a descending pset restarts the power stream at every p
        spec = tmp_path / "power.spec"
        spec.write_text("family: power\nideal: 2 0; 1 1; 0 2\nhorizon: 20\n")
        rows = {}
        for pset in ("8,4,2,1", "1,2,4,8"):
            out = tmp_path / f"{pset}.csv"
            assert run("volmult", spec, "--pset", pset, "--out", out) == 0
            rows[pset] = sorted(r for r in out.read_text().splitlines()
                                if r.startswith("rhs,"))
        assert len(rows["1,2,4,8"]) == 4 and rows["8,4,2,1"] == rows["1,2,4,8"]


class TestArgumentEdges:
    """Explicit values are honoured; out-of-range ones exit 2 in one line."""

    def assert_usage_error(self, capsys, *argv, match):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_zero_tol_is_not_the_default(self, tmp_path):
        # the horizon-400 gap is 1/200, inside the default tol but not inside 0
        out = tmp_path / "o.csv"
        assert run("semigroup", SPECS / "semigroup_halfstep.spec", "--tol", 0,
                   "--out", out) == 1
        assert "summary" in out.read_text() and ",mismatch," in out.read_text()

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one(self, capsys, tmp_path, horizon):
        self.assert_usage_error(capsys, "semigroup", SPECS / "semigroup_halfstep.spec",
                                "--horizon", horizon, "--out", tmp_path / "o.csv",
                                match="--horizon")

    def test_negative_tol(self, capsys, tmp_path):
        self.assert_usage_error(capsys, "family", SPECS / "family_nilpair_sigma.spec",
                                "--tol=-1/10", "--out", tmp_path / "o.csv",
                                match="--tol")

    def test_moduli_below_one(self, capsys, tmp_path):
        self.assert_usage_error(capsys, "eps", IDEALS / "x2_xy.ideal", "--moduli", 0,
                                "--out", tmp_path / "o.csv", match="--moduli")

    def test_horizon_below_degree_index(self, capsys, tmp_path):
        spec = tmp_path / "even.spec"
        spec.write_text("kind: semigroup\ngenerator: 0 2\ngenerator: 2 2\n")
        self.assert_usage_error(capsys, "semigroup", spec, "--horizon", 1,
                                "--out", tmp_path / "o.csv", match="degree index")

    def test_point_budget_overflow(self, capsys, monkeypatch, tmp_path):
        build = cli.build_semigroup

        def small_budget(spec):
            s = build(spec)
            s.point_budget = 50
            return s

        monkeypatch.setattr(cli, "build_semigroup", small_budget)
        self.assert_usage_error(capsys, "semigroup", SPECS / "semigroup_halfstep.spec",
                                "--out", tmp_path / "o.csv", match="point budget")

    def test_overlapping_series_blocks(self, capsys, monkeypatch, tmp_path):
        build = cli.build_series

        def repeated_block(spec, horizon):
            s = build(spec, horizon)
            return MonomialLinearSeries(s.name, s.ambient, s.twist,
                                        lambda n: s.blocks(n) + s.blocks(n)[-1:], s.horizon)

        monkeypatch.setattr(cli, "build_series", repeated_block)
        self.assert_usage_error(capsys, "series", SPECS / "series_sigma_s0r1.spec",
                                "--out", tmp_path / "o.csv", match="overlap")

    def test_width_guard(self, capsys, tmp_path):
        # level 1 spans 10^9 + 1 lattice positions: past the default budget
        spec = tmp_path / "sparse.spec"
        spec.write_text("kind: semigroup\ngenerator: 0 1\ngenerator: 1 1\n"
                        "generator: 1000000000 1\n")
        self.assert_usage_error(capsys, "semigroup", spec, "--out", tmp_path / "o.csv",
                                match="point budget")

    def test_pset_below_one(self, capsys, tmp_path):
        self.assert_usage_error(capsys, "volmult", SPECS / "volmult_valuation12.spec",
                                "--pset", "0", "--out", tmp_path / "o.csv",
                                match="at least 1")

    @pytest.mark.parametrize("cmd, text, match", [
        ("volmult", "family: valuation\nlambda: 1 2\npset: 2 0\n", "at least 1"),
        ("family", "family: nilpair_sigma\ndim: 0\n", "dim must be at least 1, got 0"),
        ("family", "family: perturbed_power\ndim: 0\n", "dim must be at least 1, got 0"),
        ("family", "family: corrupted_sigma\ndim: 0\n", "dim must be at least 1, got 0"),
        ("family", "family: valuation\nlambda: 1/0 2\n", "bad rational"),
        ("family", "family: valuation\nlambda: 1 2\ntol: 1/0\n", "bad rational"),
        ("series", "series: log_nil\ntset: mod 0 1\n", "modulus"),
        ("series", "series: log_nil\ntset: mod\n", "modulus"),
        ("family", "family: valuation\nlambda: 1 2\nmoduli: 0\n", "spec key 'moduli'"),
        ("family", "family: valuation\nlambda: 1 2\nmoduli: -2\n", "spec key 'moduli'"),
        ("family", "family: valuation\nlambda: 1 2\nhorizon: 0\n", "spec key 'horizon'"),
        ("series", "series: log_nil\ntset: mod 2 0\nhorizon: 0\n", "spec key 'horizon'"),
        ("volmult", "family: valuation\nlambda: 1 2\nhorizon: 0\n", "spec key 'horizon'"),
        ("family", "family: valuation\nlambda: 1 2\ntol: -1\nexpect: oscillates\n",
         "spec key 'tol'"),
        ("series", "series: tau_pulse\ng: 0\n", "pulse degree g must be at least 1, got 0"),
        ("series", "series: tau_pulse\ng: -2\n",
         "pulse degree g must be at least 1, got -2"),
        ("family", "family: nilpair_sigma\ndim: x\n", "spec key 'dim'"),
        ("family", "family: nilpair_sigma\nschedule: 2 x\n", "spec key 'schedule'"),
        ("series", "series: full\nweights: 1 y\n", "spec key 'weights'"),
        ("series", "series: full\nweights: 1 0\n", "weight must be at least 1, got 0"),
        ("series", "series: nil_hyperplane\ntset: mod 2 0\ndim: 1\n",
         "reduced variable count dim must be at least 2, got 1"),
        ("family", "family: nilpair_sigma\ndim: 3000\n", "recursion depth"),
        ("family", "family: nilpair_sigma\ndim: 600\n", "recursion depth"),
        ("eps", "".join(" ".join("1" if i == j else "0" for i in range(1500)) + "\n"
                        for j in range(3)), "in 1500 variables is too deep"),
        ("volmult", "family: valuation\nlambda: 1 2\npset: ,\n", "spec key 'pset'"),
        ("semigroup", "kind: semigroup\ngenerator: 0 1\ngenerator: 1 1\ntruncate: ,\n",
         "spec key 'truncate'"),
        ("family", "family: valuation\nlambda: 1 2\nhorizon: 2.5\n",
         "spec key 'horizon': '2.5' is not an integer"),
        ("family", "family: valuation\nlambda: 1 2\nmoduli: 2.5\n",
         "spec key 'moduli': '2.5' is not an integer"),
        ("family", "family: valuation\nlambda: 1 2\nexpect: convrges\n",
         "spec key 'expect': 'convrges' is not converges or oscillates"),
        ("series", "series: artin_tau\nt: 1\nwith_unit: ye\n",
         "spec key 'with_unit': 'ye' is not yes or no"),
        ("family", "family: power\nideal: 2 0; 1 x\n", "spec key 'ideal': line 2"),
        ("family", "family: power\nideal: 2 0; 1 1 1\n",
         "spec key 'ideal': line 2: expected 2 exponents"),
        ("family", "family: power\nideal: ;\n", "spec key 'ideal': ideal has no generators"),
        ("family", "family: valuation\nlambda: 1 2\ntol: x\n",
         "spec key 'tol': bad rational 'x'"),
        ("series", "series: log_nil\ntset: mod 2 0\ntol: 1/x\n",
         "spec key 'tol': bad rational '1/x'"),
        ("series", "series: log_nil\ntset: mod 2 0\ntol: -1/10\n", "spec key 'tol'"),
        ("family", "family: valuation\nlambda: 1 x\n", "spec key 'lambda': bad rational 'x'"),
        ("semigroup", "generator: 0 1\ngenerator: 1 2\nexpect_limit: x\n",
         "spec key 'expect_limit': bad rational 'x'"),
        ("volmult", "family: valuation\nlambda: 1 2\nexpect_value: 1/0\n",
         "spec key 'expect_value': bad rational '1/0'"),
    ], ids=["pset-line", "nilpair-dim0", "perturbed-dim0", "corrupted-dim0",
            "lambda-1/0", "tol-1/0", "tset-mod-0", "tset-mod-missing",
            "moduli-0", "moduli-negative", "family-horizon-0", "series-horizon-0",
            "volmult-horizon-0", "tol-negative", "tau-pulse-g0", "tau-pulse-g-negative",
            "dim-not-int", "schedule-not-int", "weights-not-int", "weight-0",
            "nil-hyperplane-dim1",
            "nilpair-dim3000-too-deep", "nilpair-dim600-too-deep", "ideal-1500-vars-too-deep",
            "pset-empty", "truncate-empty", "horizon-not-int", "moduli-not-int",
            "expect-misspelt", "with-unit-misspelt", "inline-ideal-not-int",
            "inline-ideal-ragged", "inline-ideal-empty", "tol-not-rational",
            "series-tol-not-rational", "series-tol-negative", "lambda-not-rational",
            "expect-limit-not-rational", "expect-value-1/0"])
    def test_bad_spec_value(self, capsys, tmp_path, cmd, text, match):
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        # a --horizon flag would override the spec's own horizon line
        flags = [] if "horizon:" in text else ["--horizon", 10]
        self.assert_usage_error(capsys, cmd, spec, *flags,
                                "--out", tmp_path / "o.csv", match=match)

    @pytest.mark.parametrize("cmd, text", [
        ("family", "family: valuation\nlambda: 1 2\ntol: -1\n"),
        ("family", "family: valuation\nlambda: 1 2\ntol: x\n"),
        ("series", "series: full\nweights: 1 2\ntol: -1\n"),
        ("series", "series: full\nweights: 1 2\ntol: x\n"),
    ], ids=["family-negative", "family-not-rational", "series-negative",
            "series-not-rational"])
    def test_bad_tol_refused_before_any_level(self, capsys, monkeypatch, tmp_path,
                                              cmd, text):
        # tol is read with horizon and moduli, so a bad one is refused before
        # the family or the series builds its first level
        from gradedlimits.families import GradedFamily

        def no_level(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(GradedFamily, "ideal", no_level)
        monkeypatch.setattr(MonomialLinearSeries, "blocks", no_level)
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        self.assert_usage_error(capsys, cmd, spec, "--horizon", 2000,
                                "--out", tmp_path / "o.csv", match="spec key 'tol'")

    def test_volmult_rejects_artin_model(self, capsys, tmp_path):
        spec = tmp_path / "artin.spec"
        spec.write_text("family: artin_tau\nt: 2\n")
        assert run("volmult", spec, "--out", tmp_path / "o.csv") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: multiplicity experiment needs the polynomial model"]

    def test_bad_int_flag_names_flag(self, capsys, tmp_path):
        self.assert_usage_error(capsys, "volmult", SPECS / "volmult_valuation12.spec",
                                "--pset", "2,x", "--out", tmp_path / "o.csv",
                                match="--pset")

    @pytest.mark.parametrize("cmd, spec, flag", [
        ("volmult", "volmult_valuation12.spec", "--pset=,"),
        ("volmult", "volmult_valuation12.spec", "--pset="),
        ("semigroup", "semigroup_halfstep.spec", "--truncate=,"),
        ("semigroup", "semigroup_halfstep.spec", "--truncate="),
    ])
    def test_empty_list_flag(self, capsys, tmp_path, cmd, spec, flag):
        # an empty flag is not replaced by the spec's list
        self.assert_usage_error(capsys, cmd, SPECS / spec, flag, "--out", tmp_path / "o.csv",
                                match=flag.split("=")[0])

    def test_negative_exponent_keeps_scaled_exact(self, tmp_path):
        # dim/n^-2 = dim * n^2 is an integer; it must print as one, not as 8.0
        spec = tmp_path / "neg.spec"
        spec.write_text("series: full\nweights: 1 2\nexponent: -2\n")
        out = tmp_path / "o.csv"
        assert run("series", spec, "--horizon", 8, "--out", out) == 0
        rows = out.read_text().splitlines()
        assert "value,2,,2,8,8.000000,,,,," in rows
        assert "value,3,,2,18,18.000000,,,,," in rows

    def test_tol_zero_denominator(self, capsys, tmp_path):
        # rejected by argparse, which prints its usage line first
        assert run("family", SPECS / "family_nilpair_sigma.spec", "--tol", "1/0",
                   "--out", tmp_path / "o.csv") == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "gradedlimits family: error: argument --tol: invalid rational value: '1/0'"]
        assert "Traceback" not in err


# one runnable spec per command and kind; the fuzz below sets some keys to bad values
FUZZ_BASES = [
    ("semigroup", "generator: 0 1\ngenerator: 1 2\n"),
    ("family", "family: valuation\nlambda: 1 2\n"),
    ("family", "family: power\nideal: 2 0; 1 1; 0 2\n"),
    ("family", "family: symbolic\nideal: 2 0; 0 1\njideal: 1 0\n"),
    ("family", "family: nilpair_sigma\ndim: 1\n"),
    ("family", "family: artin_tau\nt: 2\n"),
    ("series", "series: full\nweights: 1 2\n"),
    ("series", "series: nil_hyperplane\ndim: 2\ntset: mod 2 0\n"),
    ("series", "series: log_nil\ntset: set 2 4\n"),
    ("series", "series: sigma_growth\ns: 0\nr: 1\n"),
    ("series", "series: tau_pulse\ne: 1\ng: 1\n"),
    ("series", "series: artin_tau\nt: 1\nwith_unit: yes\n"),
    ("volmult", "family: valuation\nlambda: 1 2\npset: 1 2\n"),
]
FUZZ_KEYS = ["horizon", "moduli", "tol", "truncate", "pset", "expect", "expect_limit",
             "expect_value", "exponent", "generator", "lambda", "ideal", "jideal",
             "dim", "t", "s", "r", "e", "g", "weights", "schedule", "tset"]
FUZZ_VALUES = ["", "x", "2,x", "1/0", "0", "0 0", "-2", "-1/3", "1 -1"]


class TestFuzz:
    @given(st.sampled_from(FUZZ_BASES),
           st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                    min_size=1, max_size=3),
           st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_bad_values_exit_cleanly(self, tmp_path_factory, base, edits, horizon):
        cmd, text = base
        lines = dict(line.split(": ", 1) for line in text.splitlines())
        lines.update(edits)
        text = "".join(f"{key}: {value}\n" for key, value in lines.items())
        tmp = tmp_path_factory.mktemp("fuzz")
        spec = tmp / "fuzz.spec"
        spec.write_text(text)
        # the flag would override a spoiled horizon line, so give it only without one
        flags = [] if any(key == "horizon" for key, _ in edits) else ["--horizon", horizon]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(cmd, spec, *flags, "--out", tmp / "o.csv")
        err = err.getvalue()
        assert code in (0, 1, 2), text
        assert "Traceback" not in err, text
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (text, err)


class TestGolden:
    def test_write_then_compare(self, tmp_path):
        gold = tmp_path / "golden"
        out = tmp_path / "a.csv"
        assert run("series", SPECS / "series_lognil_evens.spec", "--out", out,
                   "--write-golden", gold) == 0
        assert run("series", SPECS / "series_lognil_evens.spec",
                   "--out", tmp_path / "b.csv", "--golden", gold) == 0

    def test_mismatch_detected(self, tmp_path):
        gold = tmp_path / "golden"
        gold.mkdir()
        (gold / "series_lognil_evens__series.csv").write_text("record\n")
        assert run("series", SPECS / "series_lognil_evens.spec",
                   "--out", tmp_path / "o.csv", "--golden", gold) == 1

    def test_missing_golden(self, tmp_path):
        assert run("series", SPECS / "series_lognil_evens.spec",
                   "--out", tmp_path / "o.csv", "--golden", tmp_path) == 1

    def test_committed_goldens_match(self, tmp_path):
        golden = REPO / "golden"
        if not golden.exists():
            pytest.skip("golden directory not generated yet")
        jobs = [("semigroup", SPECS / "semigroup_halfstep.spec"),
                ("semigroup", SPECS / "semigroup_affine.spec"),
                ("family", SPECS / "family_valuation12.spec"),
                ("family", SPECS / "family_nilpair_sigma.spec"),
                ("family", SPECS / "family_artin_t2.spec"),
                ("series", SPECS / "series_sigma_s0r1.spec"),
                ("series", SPECS / "series_lognil_evens.spec"),
                ("volmult", SPECS / "volmult_valuation12.spec"),
                ("eps", IDEALS / "x2_xy.ideal")]
        for i, (cmd, spec) in enumerate(jobs):
            extra = ["--horizon", "200", "--expect", "converges"] if cmd == "eps" else []
            assert run(cmd, spec, *extra, "--out", tmp_path / f"{i}.csv",
                       "--golden", golden) == 0, (cmd, spec.name)

    def test_deep_semigroup_csv_is_pinned(self, tmp_path):
        # the horizon-4000 halfstep report, byte for byte: a fill change that
        # moves one byte of it fails here
        out = tmp_path / "o.csv"
        assert run("semigroup", SPECS / "semigroup_halfstep.spec",
                   "--horizon", 4000, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "efdf40db5082dec797c2ceeec73ad7847a081be090ec8b57ab961f82cf1151e5"


class TestProcessEntry:
    """``cli.run`` is the process entry and freezes before the exit;
    ``main`` is the in-process entry and leaves the collector alone."""

    @staticmethod
    def python(*argv):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        return subprocess.run([sys.executable, *map(str, argv)], cwd=REPO, env=env,
                              capture_output=True, text=True)

    def test_main_does_not_freeze(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert run("semigroup", SPECS / "semigroup_halfstep.spec",
                   "--out", tmp_path / "o.csv") == 0
        assert run("family") == 2
        assert gc.get_freeze_count() == frozen

    def test_module_job_matches_golden(self):
        # the CSV goes to stdout: it is flushed whole after the freeze
        proc = self.python("-m", "gradedlimits.cli", "semigroup",
                           SPECS / "semigroup_halfstep.spec", "--golden", REPO / "golden")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (REPO / "golden" / "semigroup_halfstep__semigroup.csv").read_text()

    def test_module_usage_error(self):
        proc = self.python("-m", "gradedlimits.cli", "family")
        assert proc.returncode == 2
        assert "required: spec" in proc.stderr

    def test_run_keeps_atexit(self):
        code = ("import atexit, sys\n"
                "atexit.register(sys.stderr.write, 'atexit ran\\n')\n"
                "sys.argv = ['gradedlimits', 'family']\n"
                "from gradedlimits.cli import run\n"
                "run()\n")
        proc = self.python("-c", code)
        assert proc.returncode == 2
        assert proc.stderr.endswith("atexit ran\n")

    def test_script_entry_is_run(self):
        # a regex, not tomllib: Python 3.10 has no tomllib
        text = (REPO / "pyproject.toml").read_text()
        assert re.findall(r'^gradedlimits\s*=\s*"([^"]*)"', text, re.M) == \
            ["gradedlimits.cli:run"]


class TestDeterminism:
    def test_byte_identical_across_thread_counts(self, tmp_path):
        jobs = [("family", SPECS / "family_valuation12.spec"),
                ("family", SPECS / "family_artin_t2.spec"),
                ("series", SPECS / "series_sigma_s0r1.spec"),
                ("volmult", SPECS / "volmult_valuation12.spec")]
        for i, (cmd, spec) in enumerate(jobs):
            a = tmp_path / f"{i}_t1.csv"
            b = tmp_path / f"{i}_t4.csv"
            assert run(cmd, spec, "--threads", 1, "--out", a) == 0
            assert run(cmd, spec, "--threads", 4, "--out", b) == 0
            assert a.read_bytes() == b.read_bytes()
