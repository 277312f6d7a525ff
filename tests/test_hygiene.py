"""Source hygiene: no module of the package, and no test module, imports a
name it never uses, and no module of the package calls ``print`` (it
reports through ``logging``).

No linter ships with the toolchain, so the checks read each module's
syntax tree: every name an ``import`` binds must be read somewhere in the
same module, and no call may name the builtin ``print``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mildlab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def print_calls(source):
    """Lines that call the builtin ``print``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


def test_check_flags_a_print_call():
    assert PACKAGE and all(path.parent.name == "mildlab" for path in PACKAGE)
    assert print_calls("import logging\nprint('x')\nlogging.info('y')\n") == [2]
    assert print_calls("def f(x):\n    return print(x, file=None)\n") == [2]
    assert print_calls("log.print('x')\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_print_calls(path):
    assert print_calls(path.read_text()) == [], path.name
