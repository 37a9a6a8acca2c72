import ast
from pathlib import Path

import gradedlimits

PACKAGE = Path(gradedlimits.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"


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


def test_families_and_series_do_not_import_semigroup():
    # the counting identity returns level point sets, not a semigroup, and
    # the series levels stay inside series: neither module needs semigroup
    found = [(name, module) for name in ("families.py", "series.py")
             for module in imported_modules(PACKAGE / name)
             if module == "gradedlimits.semigroup"]
    assert found == []


def reached_names(module: str, oracle_name: str, banned_calls: set) -> list[str]:
    """The private names of ``module`` that oracles.py imports, plus the
    banned calls and the private names inside the oracle's body."""
    tree = ast.parse(ORACLES.read_text())
    reached = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == module
               for alias in node.names if alias.name.startswith("_")]
    oracle = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == oracle_name)
    for node in ast.walk(oracle):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in banned_calls:
                reached.append(name)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            reached.append(node.attr)
        if isinstance(node, ast.Name) and node.id.startswith("_"):
            reached.append(node.id)
    return reached


def test_colength_oracle_is_independent_of_the_kernel():
    # colength_bruteforce checks the staircase kernels, so it must not reach
    # them: no membership query, no colength, no private monomial helper
    assert reached_names("gradedlimits.monomial", "colength_bruteforce",
                         {"contains", "contains_ideal", "colength"}) == []


def test_fill_oracle_is_independent_of_the_fill():
    # brute_levels checks the bitset fill, so it must not reach it: no level
    # query, no Hermite basis, no private semigroup helper
    assert reached_names("gradedlimits.semigroup", "brute_levels",
                         {"level", "level_sizes", "hermite_basis"}) == []
