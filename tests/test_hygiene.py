"""Source hygiene: no module of the package, and no test module, imports a
name it never uses; no module of the package calls ``print`` (it reports
through ``logging``), defines a name that nothing else names, spells an
operator constant's name outside the two modules that own the tables, or
binds an empty dict, list or set at module level (a cache there outlives
and is shared by every grid; results computed from a grid live on it).

No linter ships with the toolchain, so the checks read each module's
syntax tree: every name an ``import`` binds must be read somewhere in the
same module, no call may name the builtin ``print``, every top-level
``def`` and ``class`` of the package must be named outside its own
definition, in the package, the tests or the benchmark harness, and a
string constant may name C1..C7, C4_1..C5_2, alpha or beta only in
``admissibility.py`` (the operator table) and ``duhamel.py`` (the terms
and the constants table).  No call ``int(x)`` of a bare name or an
attribute truncates a size outside ``grids.whole_number``, and only
``state.py`` calls ``Trajectory(``, so the packed layout of a stored
trajectory is built in one module.  No guard that raises or reports a
problem tests an ordering comparison, which NaN always fails: the
guard is written ``not (valid range)``.  A last check
runs pytest under the repo's config, where warnings are errors, on a
failing hypothesis test: the session must go on past it.
"""

import ast
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mildlab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))


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


def dead_names(package, others):
    """Top-level ``def`` and ``class`` names of the ``package`` sources that
    appear as a whole word nowhere outside their own definition: not in the
    rest of their module, another package source or ``others``.  Words are
    counted, not syntax-tree names, because the benchmark tracer names its
    targets in strings."""
    dead = []
    for i, source in enumerate(package):
        lines = source.splitlines(keepends=True)
        elsewhere = package[:i] + package[i + 1:] + others
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                word = re.compile(rf"\b{node.name}\b")
                rest = "".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
                if not any(word.search(text) for text in [rest] + elsewhere):
                    dead.append(node.name)
    return dead


def test_check_flags_a_dead_name():
    assert any(path.name == "tracing.py" for path in HARNESS)
    package = ["def used():\n    return 1\n\n\ndef dead():\n    return dead()\n",
               "class Named:\n    pass\n\n\ndef helper():\n    return used()\n"]
    assert dead_names(package, ["wrap('Named')\n"]) == ["dead", "helper"]
    assert dead_names(["def f():\n    pass\n"], ["f_1 = g.f2\n"]) == ["f"]


def test_no_dead_names():
    texts = [path.read_text() for path in PACKAGE]
    others = [path.read_text() for path in SOURCES[len(PACKAGE):] + HARNESS]
    assert dead_names(texts, others) == []


#: operator-constant names, and the modules that may spell them as strings
CONSTANT_NAME = re.compile(r"C[1-7]|C[45]_[12]|alpha|beta")
CONSTANT_OWNERS = ("admissibility.py", "duhamel.py")


def constant_literals(source):
    """Lines of string constants that are an operator constant's name."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and CONSTANT_NAME.fullmatch(node.value)]


def test_check_flags_a_constant_literal():
    assert {path.name for path in PACKAGE} >= set(CONSTANT_OWNERS) | {"solver.py"}
    assert constant_literals("table = {'C4_1': 1.0}\nx = table['beta']\n") == [1, 2]
    assert constant_literals("f('C8', 'C4_3', 'alphabet', 'C1 ')\ng(C1, beta=2)\n") == []
    assert constant_literals('"""C1 and beta in a docstring."""\n') == []


@pytest.mark.parametrize("path", [path for path in PACKAGE if path.name not in CONSTANT_OWNERS],
                         ids=lambda p: p.name)
def test_constant_names_only_in_the_tables(path):
    assert constant_literals(path.read_text()) == [], path.name


def module_caches(source):
    """Lines of module-level bindings of an empty dict, list or set: an
    empty literal, or ``dict()``, ``list()`` or ``set()`` with no argument."""
    def empty(value):
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return not (value.elts if hasattr(value, "elts") else value.keys)
        return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")
                and not value.args and not value.keywords)

    return [node.lineno for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and empty(node.value)]


def test_check_flags_a_module_level_cache():
    assert module_caches("_CACHE = {}\nA = []\nB: set = set()\nC = D = dict()\n") == [1, 2, 3, 4]
    assert module_caches("TABLE = {'a': 1}\nX = [1]\nY = set('ab')\nZ: int\n"
                         "def f():\n    seen = {}\n    return seen\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_level_caches(path):
    assert module_caches(path.read_text()) == [], path.name


def truncating_ints(source, exempt=()):
    """Lines that call ``int`` on a bare name or an attribute, which turns
    a fractional size into a smaller whole one without a word, outside the
    functions named in ``exempt``."""
    tree = ast.parse(source)
    allowed = {id(node) for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and func.name in exempt
               for node in ast.walk(func)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "int" and len(node.args) == 1
            and isinstance(node.args[0], (ast.Name, ast.Attribute)) and id(node) not in allowed]


def test_check_flags_a_truncating_int():
    assert truncating_ints("m = int(x)\nn = int(self.n)\nk = int(round(x))\nj = int(a.max())\n"
                           "i = int('3')\n") == [1, 2]
    checker = "def whole_number(v):\n    return int(v)\n\n\ndef f(v):\n    return int(v)\n"
    assert truncating_ints(checker, exempt=("whole_number",)) == [6]
    assert truncating_ints(checker) == [2, 6]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_sizes_are_made_whole_only_by_whole_number(path):
    # every size goes through grids.whole_number, which rejects a fraction
    exempt = ("whole_number",) if path.name == "grids.py" else ()
    assert truncating_ints(path.read_text(), exempt) == [], path.name


def trajectory_builds(source):
    """Lines that call ``Trajectory`` by name or as an attribute: a
    ``Trajectory.zero`` or ``copy`` is not a call of it."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "Trajectory"
                 or getattr(node.func, "attr", None) == "Trajectory")]


def test_check_flags_a_trajectory_build():
    assert trajectory_builds("a = Trajectory(g, t, x)\nb = state.Trajectory(g, t, x)\n"
                             "c = Trajectory.zero(g, t)\nd = a.copy()\n") == [1, 2]
    assert trajectory_builds("def f(Trajectory):\n    return Trajectory\n") == []


@pytest.mark.parametrize("path", [path for path in PACKAGE if path.name != "state.py"],
                         ids=lambda p: p.name)
def test_trajectories_are_built_only_in_state(path):
    assert trajectory_builds(path.read_text()) == [], path.name


def nan_blind_guards(source):
    """Lines of an ``if`` whose test is an ordering comparison (``<``,
    ``<=``, ``>``, ``>=``), or an ``and``/``or`` of them, and whose body
    raises or appends a message: every ordering comparison with NaN is
    false, so such a guard lets NaN through.  ``not (valid range)`` stops
    it."""
    def ordering(test):
        if isinstance(test, ast.BoolOp):
            return all(ordering(value) for value in test.values)
        return isinstance(test, ast.Compare) and all(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in test.ops)

    def reports(node):
        return isinstance(node, ast.Raise) or (
            isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append"
            and len(node.args) == 1 and isinstance(node.args[0], (ast.JoinedStr, ast.Constant))
            and isinstance(getattr(node.args[0], "value", ""), str))

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.If) and ordering(node.test)
            and any(reports(inner) for stmt in node.body for inner in ast.walk(stmt))]


def test_check_flags_a_nan_blind_guard():
    assert nan_blind_guards("if t < 0:\n    raise ValueError(t)\n"
                            "if x <= 0 or y > 1:\n    problems.append(f'bad {x}')\n"
                            "if a < b <= c and d >= 0:\n    errors.append('bad')\n") == [1, 3, 5]
    assert nan_blind_guards("if not t >= 0:\n    raise ValueError(t)\n"
                            "if not (x > 0 and y <= 1):\n    problems.append('bad')\n"
                            "if n >= 2:\n    ratios.append(a / b)\n"
                            "if x != y:\n    raise ValueError(x)\n"
                            "if t < 0:\n    t = 0.0\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_nan_blind_guards(path):
    assert nan_blind_guards(path.read_text()) == [], path.name


def test_a_failing_hypothesis_test_ends_only_itself(tmp_path):
    # under the repo's config, where warnings are errors, hypothesis's
    # failure report must not end the session: the next test still runs
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=5, deadline=None, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_runs_after():
            pass
    """))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           str(tmp_path)], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1, done.stdout[-3000:]
    assert "1 failed, 1 passed" in done.stdout
