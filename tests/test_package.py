import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedlimits

PACKAGE = Path(gradedlimits.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent
ORACLES = REPO / "tests" / "oracles.py"
PERFBENCH = REPO / "perfbench"

# the gradedlimits submodules each subcommand loads; cli, specfiles and
# experiments load the rest only inside the functions that run them
COMMAND_MODULES = {
    "semigroup": {"lattice", "semigroup"},
    "family": {"families", "monomial"},
    "eps": {"families", "monomial"},
    "volmult": {"families", "lattice", "monomial"},
    "series": {"lattice", "series"},
}
GOLDEN_JOBS = [
    ("semigroup", "specs/semigroup_halfstep.spec"),
    ("semigroup", "specs/semigroup_affine.spec"),
    ("family", "specs/family_valuation12.spec"),
    ("family", "specs/family_nilpair_sigma.spec"),
    ("family", "specs/family_artin_t2.spec"),
    ("series", "specs/series_sigma_s0r1.spec"),
    ("series", "specs/series_lognil_evens.spec"),
    ("volmult", "specs/volmult_valuation12.spec"),
    ("eps", "ideals/x2_xy.ideal", "--horizon", "200", "--expect", "converges"),
]


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after ``code``."""
    probe = f"{code}\nimport sys\nprint(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], cwd=REPO, env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def loaded_submodules(code: str) -> set[str]:
    """The gradedlimits submodules a fresh interpreter holds after ``code``."""
    return {name.removeprefix("gradedlimits.") for name in loaded_modules(code)
            if name.startswith("gradedlimits.")}


def test_bare_import_loads_no_submodule():
    assert loaded_submodules("import gradedlimits") == set()


@pytest.mark.parametrize("job", GOLDEN_JOBS, ids=lambda job: Path(job[1]).stem)
def test_subcommand_loads_only_its_modules(tmp_path, job):
    argv = [*job, "--out", str(tmp_path / "o.csv"), "--golden", "golden"]
    code = f"from gradedlimits.cli import main\nassert main({argv!r}) == 0"
    assert loaded_submodules(code) == \
        {"cli", "specfiles", "experiments"} | COMMAND_MODULES[job[0]]


def test_series_loads_no_lattice():
    # kodaira_iitaka imports hermite_basis when it runs, so importing series
    # and checking a closure, as the graded-axiom suite does, load no lattice
    assert "lattice" not in loaded_submodules("import gradedlimits.series")
    code = ("from gradedlimits.series import closure_violations, sigma_growth_series\n"
            "assert closure_violations(sigma_growth_series(1, 2, horizon=20), 20) == []")
    assert loaded_submodules(code) == {"series"}


def tracer_targets() -> tuple:
    """The (span, module, attribute) triples the benchmark's tracer wraps,
    read from its source without importing it."""
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    # the benchmark's traced runs wrap these names; one renamed or removed
    # would stop them
    targets = tracer_targets()
    assert targets
    for _, module, attr in targets:
        owner = importlib.import_module(f"gradedlimits.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_benchmark_axiom_setup_runs():
    # the benchmark's set-up probe imports the graded-axiom suite's builders
    # and builds each of its inputs
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "setup", "axiom"],
                         cwd=REPO, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_every_export_resolves():
    listed = dir(gradedlimits)
    for name in gradedlimits.__all__:
        assert getattr(gradedlimits, name) is not None
        assert name in listed
    assert len(set(gradedlimits.__all__)) == len(gradedlimits.__all__)
    # the defining modules stay reachable as attributes, as before
    assert gradedlimits.monomial.MonomialIdeal is gradedlimits.MonomialIdeal
    assert "monomial" in listed
    with pytest.raises(AttributeError):
        gradedlimits.no_such_name


def imported_modules(path: Path) -> list[str]:
    """The modules a source file imports, plus ``module.name`` for every
    ``from module import name``; relative imports resolve inside the package."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"gradedlimits.{module}".rstrip(".")
            names.append(module)
            names += [f"{module}.{alias.name}" for alias in node.names]
    return names


def test_no_module_imports_threads():
    # the library is single-threaded: no pools, no locks
    banned = {"threading", "concurrent", "concurrent.futures"}
    found = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in imported_modules(path) if name in banned]
    assert found == []


def test_no_module_imports_dataclasses():
    # a dataclass builds its methods with exec at import, and dataclasses
    # loads inspect: records are NamedTuples and values subclass _Value
    found = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in imported_modules(path) if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_golden_job_loads_no_dataclasses(tmp_path):
    argv = ["family", "specs/family_valuation12.spec", "--out", str(tmp_path / "o.csv"),
            "--golden", "golden"]
    code = f"from gradedlimits.cli import main\nassert main({argv!r}) == 0"
    assert loaded_modules(code) & {"dataclasses", "inspect"} == set()


def value_cases() -> dict:
    """Per value class and two records: builders of two equal values (by the
    checked constructor, then by the unchecked one where there is one, or
    from reordered input) and of a third that differs in one field."""
    from fractions import Fraction

    from gradedlimits import BlockSchedule
    from gradedlimits.experiments import ClassVerdict, ScaledSequence
    from gradedlimits.lattice import IntegerLattice, RationalPolytope
    from gradedlimits.monomial import MonomialIdeal, NilPairIdeal
    from gradedlimits.series import WeightedAmbient

    entries = ((1, Fraction(1), Fraction(1)), (2, Fraction(3), Fraction(3, 4)))
    return {
        "MonomialIdeal": (
            lambda: MonomialIdeal(2, ((2, 0), (1, 1), (0, 2), (2, 2))),
            lambda: MonomialIdeal._of(2, ((0, 2), (1, 1), (2, 0))),
            lambda: MonomialIdeal(2, ((2, 0), (0, 2)))),
        "NilPairIdeal": (
            lambda: NilPairIdeal(2, 3, 1),
            lambda: NilPairIdeal(2, 1, 0) * NilPairIdeal(2, 2, 0),
            lambda: NilPairIdeal(2, 3, 2)),
        "IntegerLattice": (
            lambda: IntegerLattice(2, ((1, 1), (0, 2))),
            lambda: IntegerLattice._echelon(2, ((1, 1), (0, 2))),
            lambda: IntegerLattice(2, ((1, 0), (0, 2)))),
        "BlockSchedule": (
            lambda: BlockSchedule((2, 6, 26)),
            lambda: BlockSchedule.default(200),
            lambda: BlockSchedule((2, 6, 28))),
        "WeightedAmbient": (
            lambda: WeightedAmbient((1, 2), nil_degree=1),
            lambda: WeightedAmbient([1, 2.0], 1, False),
            lambda: WeightedAmbient((1, 2), nil_degree=1, nil_annihilates_base=True)),
        "ScaledSequence": (
            lambda: ScaledSequence("s", 2, "len/n^2", entries),
            lambda: ScaledSequence(label="s", exponent=2, normalization="len/n^2",
                                   entries=entries),
            lambda: ScaledSequence("s", 1, "len/n^2", entries)),
        "ClassVerdict": (
            lambda: ClassVerdict(2, 1, "converges", Fraction(1), Fraction(2), None, 5),
            lambda: ClassVerdict(modulus=2, residue=1, verdict="converges",
                                 liminf_est=Fraction(1), limsup_est=Fraction(2),
                                 limit_estimate=None, points=5),
            lambda: ClassVerdict(2, 1, "converges", Fraction(1), Fraction(2), None, 6)),
        "RationalPolytope": (
            lambda: RationalPolytope(1, ((Fraction(0),), (Fraction(1),)), 1),
            lambda: RationalPolytope(ambient_dim=1, affine_dim=1,
                                     vertices=((Fraction(0),), (Fraction(1),))),
            lambda: RationalPolytope(1, ((Fraction(0),), (Fraction(2),)), 1)),
    }


@pytest.mark.parametrize("name", list(value_cases()))
def test_value_contract(name):
    # equality and hashing go by the fields, whichever constructor built the
    # value, and a built value takes no assignment
    build, same, other = value_cases()[name]
    value, twin, different = build(), same(), other()
    assert type(value).__name__ == type(twin).__name__ == name
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert value != different and not value == different
    assert repr(value) == repr(twin)
    fields = tuple(getattr(value, name) for name in type(value)._fields)
    # a record is a tuple; a value, unlike it, equals no tuple of its fields
    assert (value == fields) == isinstance(value, tuple)
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(different, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == twin and value != different


def raised_strings(path: Path) -> list[str]:
    """The string constants inside the ``raise`` statements of a source file,
    f-string pieces included."""
    return [node.value for stmt in ast.walk(ast.parse(path.read_text()))
            if isinstance(stmt, ast.Raise) and stmt.exc is not None
            for node in ast.walk(stmt.exc)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_integer_rule_lives_in_the_package_root():
    # every index, horizon and count goes through gradedlimits._integer, so
    # no other module words the refusal itself; specfiles parses text, which
    # the rule does not read, and names the spec key it came from
    found = [(path.name, text) for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in {"__init__.py", "specfiles.py"}
             for text in raised_strings(path) if "is not an integer" in text]
    assert found == []
    assert any("is not an integer" in text for text in raised_strings(PACKAGE / "__init__.py"))


def test_families_and_series_do_not_import_semigroup():
    # the counting identity returns level point sets, not a semigroup, and
    # the series levels stay inside series: neither module needs semigroup
    found = [(name, module) for name in ("families.py", "series.py")
             for module in imported_modules(PACKAGE / name)
             if module == "gradedlimits.semigroup"]
    assert found == []


def oracle_functions() -> dict[str, ast.FunctionDef]:
    """The top-level functions of oracles.py by name."""
    tree = ast.parse(ORACLES.read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def called_oracles(oracle_name: str) -> set[str]:
    """``oracle_name`` and every oracles.py function its body names, followed
    transitively."""
    functions = oracle_functions()
    reached, todo = set(), [oracle_name]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(functions[name])
                     if isinstance(node, ast.Name) and node.id in functions]
    return reached


def reached_names(module: str, oracle_name: str, banned_calls: set) -> list[str]:
    """The private names of ``module`` that oracles.py imports, plus the
    banned calls and the private names inside the oracle's body and the
    bodies of the oracles.py functions it calls."""
    tree = ast.parse(ORACLES.read_text())
    reached = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == module
               for alias in node.names if alias.name.startswith("_")]
    functions = oracle_functions()
    for name in sorted(called_oracles(oracle_name)):
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called in banned_calls:
                    reached.append(called)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                reached.append(node.attr)
            if (isinstance(node, ast.Name) and node.id.startswith("_")
                    and node.id not in functions):
                reached.append(node.id)
    return reached


def test_colength_oracle_is_independent_of_the_kernel():
    # colength_bruteforce checks the staircase kernels, so it must not reach
    # them: no membership query, no colength, no private monomial helper
    assert reached_names("gradedlimits.monomial", "colength_bruteforce",
                         {"contains", "first_escape", "colength"}) == []


def test_colon_oracle_is_independent_of_the_kernel():
    # colon_bruteforce checks monomial_colon, so it must not reach it: no
    # colon, no membership query, no private monomial helper
    assert reached_names("gradedlimits.monomial", "colon_bruteforce",
                         {"colon", "monomial_colon", "colon_monomial", "contains"}) == []


def test_saturation_quotient_oracle_is_independent_of_the_kernel():
    # saturation_quotient_bruteforce checks saturation_quotient_colength, so
    # it must not reach the staircase kernels: no membership query, no
    # colength, no library colon, no private monomial helper
    assert reached_names("gradedlimits.monomial", "saturation_quotient_bruteforce",
                         {"contains", "first_escape", "colength",
                          "saturation_quotient_colength", "colon_monomial"}) == []


def test_containment_oracle_is_independent_of_the_kernel():
    # first_generator_outside checks first_escape, so it must not reach the
    # membership kernels: no membership query, no escape, no minimalization,
    # no private monomial helper
    assert reached_names("gradedlimits.monomial", "first_generator_outside",
                         {"contains", "first_escape", "_covers", "_slices",
                          "minimal_generators"}) == []


def test_m_primary_oracle_is_independent_of_the_kernel():
    # is_m_primary_by_support checks the slice test of is_m_primary, so it
    # must not reach it: no m-primary test, no membership query, no private
    # monomial helper
    assert reached_names("gradedlimits.monomial", "is_m_primary_by_support",
                         {"is_m_primary", "contains", "first_escape"}) == []


def test_fill_oracle_is_independent_of_the_fill():
    # brute_levels checks the bitset fill, so it must not reach it: no level
    # query, no Hermite basis, no private semigroup helper
    assert reached_names("gradedlimits.semigroup", "brute_levels",
                         {"level", "level_sizes", "hermite_basis"}) == []


def test_lattice_oracles_are_independent_of_lattice():
    # lattice_contains and invariants_by_degree_kernel check gradedlimits.lattice,
    # so neither they nor the helpers they call may reach it: no lattice call,
    # no name oracles.py imports from it, no private helper
    lattice_names = {name.rsplit(".", 1)[1] for name in imported_modules(ORACLES)
                     if name.startswith("gradedlimits.lattice.")}
    banned = lattice_names | {"hermite_basis", "convex_hull", "lattice_volume",
                              "saturate_lattice", "sublattice_index"}
    for oracle in ("lattice_contains", "invariants_by_degree_kernel"):
        assert reached_names("gradedlimits.lattice", oracle, banned) == [], oracle


def test_oracle_walk_follows_helpers():
    # the guards above see the helpers an oracle calls, through any depth
    assert called_oracles("invariants_by_degree_kernel") == {
        "invariants_by_degree_kernel", "degree_zero_rows", "delaunay_volume",
        "maximal_minors", "leibniz_det"}
    assert called_oracles("lattice_contains") == {"lattice_contains"}
    assert called_oracles("first_generator_outside") == {"first_generator_outside"}
    assert called_oracles("saturation_quotient_bruteforce") == {
        "saturation_quotient_bruteforce", "saturate_by_colon_fixpoint", "colon",
        "monomial_colon", "max_ideal_power"}


def test_no_oracle_is_exported():
    # an oracle lives in the tests; one defined in the package as well
    # could drift back into the public surface and check itself
    tree = ast.parse(ORACLES.read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & set(gradedlimits.__all__) == set()


def test_nilpair_is_its_exponents():
    # NilPairIdeal is the closed form in two exponents, and the generator
    # arithmetic on max_ideal_power is its oracle: its body names none of it
    tree = ast.parse((PACKAGE / "monomial.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "NilPairIdeal")
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    named |= {node.value for node in ast.walk(body) if isinstance(node, ast.Constant)}
    banned = {"MonomialIdeal", "max_ideal_power", "colength", "_degree_tuples",
              "minimal_generators"}
    assert named & banned == set()


def names_in(node: ast.AST) -> set[str]:
    """The names and attribute names used anywhere under ``node``."""
    named = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
    return named | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_series_dim_counts_blocks():
    # dim sums closed-form block counts; c10 and the series tests compare it
    # with the expanded level, so its body names none of the expansion
    tree = ast.parse((PACKAGE / "series.py").read_text())
    series = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "MonomialLinearSeries")
    body = next(node for node in series.body
                if isinstance(node, ast.FunctionDef) and node.name == "dim")
    assert names_in(body) & {"level", "_rows", "_block_rows"} == set()


def test_series_kappa_reads_blocks():
    # kappa spans each block's lattice from a few rows of its own, so its
    # body names none of the expansion
    tree = ast.parse((PACKAGE / "series.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "kodaira_iitaka")
    assert names_in(body) & {"level", "_rows", "_block_rows"} == set()
