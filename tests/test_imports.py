"""The package depends on NumPy alone.

Other third-party packages may be installed where the tests run, so an
import of one would pass every other test; this one reads the imports.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curveflow"


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    roots = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.partition(".")[0])
    assert "numpy" in roots
    assert roots <= set(sys.stdlib_module_names) | {"numpy"}, roots
