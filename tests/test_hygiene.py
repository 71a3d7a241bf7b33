"""Static hygiene of the package sources: no module imports inside a
function or imports a name it never uses, no module defines a private
helper, constant or table that nothing in the package reads, no public
function or class goes uncalled by the package, the acceptance criteria and
the benchmark, no module reads a numpy name that the declared floor, numpy
1.24, lacks, no module but ``rng`` touches ``numpy.random``, and no module
but ``estimators`` sets an array's writeable flag. The benchmark's traced
layer names must resolve.

No linter is a test dependency, so this walks each module's syntax tree
itself. The unused-import check skips ``__init__.py``, since re-exporting
names is its purpose, and any import line marked ``# noqa: F401``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "swkit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")

# Public functions with no caller yet: ROADMAP item 6 gives them one, the
# envelope columns of the convergence study.
UNCALLED_PUBLIC_ALLOWED = {"theorem2_gap_bound", "indep_bound", "weakdep_bound"}

# Names numpy added in 2.0. pyproject.toml declares numpy>=1.24, where
# reading any of them raises AttributeError or ImportError.
NUMPY2_ONLY = {
    "vecdot", "matrix_transpose", "unstack", "concat", "permute_dims", "pow", "astype",
    "isdtype", "cumulative_sum", "cumulative_prod", "matvec", "vecmat", "unique_values",
    "unique_counts", "unique_inverse", "unique_all", "bitwise_count",
}

# Every stream is defined in rng.py. The one use of numpy.random elsewhere is
# the Monte Carlo sampler's single Philox generator, re-keyed per direction
# with rng.philox_keys, which yields the bits of rng.substream.
RANDOM_ALLOWED = {("estimators.py", "sample_directions", "np.random.Philox"),
                  ("estimators.py", "sample_directions", "np.random.Generator")}


def unused_imports(text: str) -> list[str]:
    """Names bound by the imports of ``text`` that no other code reads."""
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def function_imports(text: str) -> list[str]:
    """Imports of ``text`` made inside a function or method body, where a
    heavy module could load late and unseen by the start-up tests."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(inner.lineno for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return [f"line {line}" for line in sorted(lines)]


def numpy2_names(text: str) -> list[str]:
    """Numpy-2-only names that ``text`` reads from numpy or a numpy
    submodule, as an attribute of an imported alias or by a from-import."""
    tree = ast.parse(text)
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                           if alias.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in NUMPY2_ONLY]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY2_ONLY:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                found.append((node.lineno, node.attr))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def numpy_random_uses(text: str) -> list[tuple[int, str, str]]:
    """``(line, enclosing function or class, name)`` of each use of
    numpy.random in ``text``: an import of it or of a name from it, or an
    attribute read through a numpy alias (``np.random.Philox``, or
    ``np.random`` itself). Module-level uses have the scope ``<module>``."""
    tree = ast.parse(text)
    aliases = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.split(".")[0] == "numpy"}
    found = []

    def is_np_random(node):
        return (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in aliases)

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        if isinstance(node, ast.Import):
            found.extend((node.lineno, scope, alias.name) for alias in node.names
                         if alias.name.startswith("numpy.random"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found.extend((node.lineno, scope, f"{node.module}.{alias.name}")
                         for alias in node.names
                         if node.module.startswith("numpy.random") or alias.name == "random")
        elif is_np_random(node):
            found.append((node.lineno, scope, f"{node.value.id}.random"))
            return
        elif isinstance(node, ast.Attribute) and is_np_random(node.value):
            found.append((node.lineno, scope, f"{node.value.value.id}.random.{node.attr}"))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def writeable_flag_sets(text: str) -> list[str]:
    """Lines of ``text`` that set an array's writeable flag: an assignment
    to an attribute named ``writeable`` (``a.flags.writeable = False``) or a
    ``setflags`` call."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [node.lineno for target in targets for inner in ast.walk(target)
                      if isinstance(inner, ast.Attribute) and inner.attr == "writeable"]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setflags"):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def names_read(texts) -> set[str]:
    """Every name the sources ``texts`` read, as a variable or as an attribute."""
    read = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def top_level_defs(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``(module file name, name)`` of each module-level function and class."""
    return [(name, node.name) for name, text in sources.items() for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def top_level_assigned(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``(module file name, name)`` of each name a module-level assignment binds."""
    return [(module, name.id) for module, text in sources.items()
            for node in ast.parse(text).body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for name in ast.walk(target) if isinstance(name, ast.Name)]


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes, constants and tables
    (``_name``, not dunder) of ``sources`` (module file name to text) whose
    name no module reads."""
    read = names_read(sources.values())
    return [f"{module}: {name}"
            for module, name in top_level_defs(sources) + top_level_assigned(sources)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def uncalled_public(sources: dict[str, str], callers) -> list[str]:
    """Module-level public functions and classes of ``sources`` whose name no
    text of ``callers`` and no module of ``sources`` reads, ``__init__.py``
    aside: it only re-exports."""
    read = names_read([text for name, text in sources.items() if name != "__init__.py"]
                      + list(callers))
    return [f"{module}: {name}" for module, name in top_level_defs(sources)
            if not name.startswith("_") and name not in read]


def test_checker_sees_a_dead_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n\n"
                "def public():\n    return _used()\n",
        "b.py": "from . import a\n\ndef _by_attribute():\n    pass\n\nprint(a._by_attribute)\n",
    }
    assert dead_helpers(sources) == ["a.py: _dead", "a.py: _Gone"]


def test_checker_sees_a_dead_constant():
    sources = {
        "a.py": "__all__ = []\n_USED = 1\n_TABLE = {'x': _USED}\n_TYPED: int = 2\n"
                "_PAIR, _OTHER = 3, 4\n\ndef f():\n    _local = 5\n    return _OTHER\n",
        "b.py": "from . import a\n\n_READ_ELSEWHERE = 6\nprint(a._READ_ELSEWHERE)\n",
    }
    assert dead_helpers(sources) == ["a.py: _TABLE", "a.py: _TYPED", "a.py: _PAIR"]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert dead_helpers(sources) == []


def test_checker_sees_an_uncalled_public_function():
    sources = {
        "__init__.py": "from .a import exported_only\n\nprint(exported_only)\n",
        "a.py": "def exported_only():\n    pass\n\ndef called():\n    pass\n\n"
                "class ByCaller:\n    pass\n\ndef _private():\n    return called()\n",
    }
    callers = ["import swkit\n\nswkit.ByCaller()\n"]
    assert uncalled_public(sources, callers) == ["a.py: exported_only"]
    assert uncalled_public(sources, []) == ["a.py: exported_only", "a.py: ByCaller"]


def test_no_uncalled_public_api():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    callers = [(ROOT / "tests" / "test_acceptance.py").read_text()]
    callers += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    found = uncalled_public(sources, callers)
    assert [f for f in found if f.split(": ")[1] not in UNCALLED_PUBLIC_ALLOWED] == []


def test_benchmark_layer_names_resolve(monkeypatch):
    # the benchmark's tracer looks each layer up by name when it traces
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [spans.layer_name(module, func) for module, func, _ in spans.LAYERS
               if not callable(getattr(module, func, None))]
    assert spans.LAYERS
    assert missing == []


def test_checker_sees_an_unused_import():
    text = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(text) == ["line 3: pi"]


def test_checker_sees_a_function_level_import():
    text = ("import os\n\ndef f():\n    import json\n    return json\n\n"
            "class C:\n    def m(self):\n        try:\n            from math import pi\n"
            "        except ImportError:\n            pi = 3\n"
            "        def inner():\n            import sys\n        return pi, inner\n\n"
            "if os.sep:\n    import sys\n")
    assert function_imports(text) == ["line 4", "line 10", "line 14"]


def test_modules_exist():
    assert "estimators.py" in MODULES and "core_ot.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_function_level_imports(module):
    assert function_imports((SRC / module).read_text()) == []


def test_checker_sees_a_numpy2_only_name():
    text = ("import numpy as np\nimport numpy\nfrom numpy import concat, stack\n"
            "from numpy.linalg import matrix_transpose\n\n"
            "def f(x):\n    y = x.astype(float)\n    z = np.vecdot(x, x) + numpy.linalg.vecdot(x, x)\n"
            "    return np.matmul(y, z), stack, concat, matrix_transpose\n")
    assert numpy2_names(text) == ["line 3: concat", "line 4: matrix_transpose",
                                  "line 8: vecdot", "line 8: vecdot"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_numpy2_only_names(module):
    assert numpy2_names((SRC / module).read_text()) == []


def test_checker_sees_numpy_random():
    text = ("import numpy as np\nimport numpy.random\nfrom numpy import random as npr\n"
            "from numpy.random import default_rng\nfrom numpy import sqrt\n\n"
            "g = np.random.default_rng(0)\n\n"
            "def f():\n    np.random.seed(1)\n    return numpy.random.normal(), np.sqrt(2)\n\n"
            "class C:\n    def m(self):\n        r = np.random\n        return r\n")
    assert numpy_random_uses(text) == [
        (2, "<module>", "numpy.random"), (3, "<module>", "numpy.random"),
        (4, "<module>", "numpy.random.default_rng"), (7, "<module>", "np.random.default_rng"),
        (10, "f", "np.random.seed"), (11, "f", "numpy.random.normal"), (15, "m", "np.random")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "rng.py"))
def test_streams_are_defined_in_rng(module):
    found = [use for use in numpy_random_uses((SRC / module).read_text())
             if (module, *use[1:]) not in RANDOM_ALLOWED]
    assert found == []


def test_allowed_numpy_random_uses_exist():
    found = {(module, *use[1:]) for module in MODULES
             for use in numpy_random_uses((SRC / module).read_text())}
    assert RANDOM_ALLOWED <= found


def test_checker_sees_a_writeable_flag_set():
    text = ("import numpy as np\n\na = np.ones(3)\nprint(a.flags.writeable)\n"
            "a.flags.writeable = False\nb, a.flags.writeable = 1, True\n"
            "a.setflags(write=False)\nflags = a.flags\nflags.writeable = True\n")
    assert writeable_flag_sets(text) == ["line 5", "line 6", "line 7", "line 9"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "estimators.py"))
def test_only_estimators_sets_the_writeable_flag(module):
    # EmpiricalDistribution alone decides when an array is kept without a
    # copy; other modules hand it fresh arrays through estimators._adopt
    assert writeable_flag_sets((SRC / module).read_text()) == []
