import ast
from pathlib import Path

import gradedlimits

PACKAGE = Path(gradedlimits.__file__).resolve().parent


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
