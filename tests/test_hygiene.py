"""Static hygiene of the package sources: no module imports a name it never
uses, and no module defines a private helper that nothing in the package
reads.

No linter is a test dependency, so this walks each module's syntax tree
itself. ``__init__.py`` is skipped, since re-exporting names is its purpose,
and so is any import line marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "swkit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (``_name``, not dunder) of
    ``sources`` (module file name to text) whose name no module reads, as a
    variable or as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def test_checker_sees_a_dead_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n\n"
                "def public():\n    return _used()\n",
        "b.py": "from . import a\n\ndef _by_attribute():\n    pass\n\nprint(a._by_attribute)\n",
    }
    assert dead_helpers(sources) == ["a.py: _dead", "a.py: _Gone"]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert dead_helpers(sources) == []


def test_checker_sees_an_unused_import():
    text = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(text) == ["line 3: pi"]


def test_modules_exist():
    assert "estimators.py" in MODULES and "core_ot.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
