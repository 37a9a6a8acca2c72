import ast
from pathlib import Path

import gradedlimits

PACKAGE = Path(gradedlimits.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_no_module_imports_threads():
    # the library is single-threaded: no pools, no locks
    banned = {"threading", "concurrent", "concurrent.futures"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names if name in banned]
    assert found == []


def test_colength_oracle_is_independent_of_the_kernel():
    # colength_bruteforce checks the staircase kernels, so it must not reach
    # them: no membership query, no colength, no private monomial helper
    tree = ast.parse(ORACLES.read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "gradedlimits.monomial"
               for alias in node.names if alias.name.startswith("_")]
    oracle = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "colength_bruteforce")
    reached = []
    for node in ast.walk(oracle):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("contains", "contains_ideal", "colength"):
                reached.append(name)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            reached.append(node.attr)
        if isinstance(node, ast.Name) and node.id.startswith("_"):
            reached.append(node.id)
    assert private == [] and reached == []
