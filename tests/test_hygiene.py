"""Source hygiene: no module of the package, and no test module, imports a
name it never uses.

No linter ships with the toolchain, so the check reads each module's
syntax tree: every name an ``import`` binds must be read somewhere in the
same module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mildlab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_check_flags_an_unused_import():
    found = {(path.parent.name, path.name) for path in SOURCES}
    assert {("mildlab", "solver.py"), ("tests", "test_hygiene.py")} <= found
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == [(1, "math")]
    assert unused_imports("from a import b as c, d\nd()\n") == [(1, "c")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name
