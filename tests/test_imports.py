"""Plain ast scans of the sources (no linter is a dependency).

No module of the package or of the tests imports a name it never uses: a
name bound by an import counts as used when it is read anywhere in the
module or listed in the module's __all__; `from __future__` imports bind
nothing.  No module of the package reads a private attribute `obj._name`
of an object other than self or cls, so that each module's layout stays
its own (tests may monkeypatch private names; they are not scanned).
Every function, class and non-dunder method the package defines is named
in the package or in perfbench, so none lives only for the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gftmux").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(np.pi)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: a", "line 5: w"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_reads(source: str) -> list:
    """Each obj._name, dunders aside, whose obj is not self or cls."""
    return sorted(f"line {node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not node.attr.endswith("__")
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))


def test_scan_finds_private_reads():
    source = ("import m\nclass A:\n    def f(self, o):\n"
              "        return self._a, cls._b, o._c, m._d.e, o.__dict__, o.f._g\n")
    assert private_reads(source) == ["line 4: m._d", "line 4: o._c", "line 4: o.f._g"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text()) == []


def definitions(source: str) -> list:
    """The module-level functions and classes, and the non-dunder methods."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not f.name.endswith("__")]
    return names


def named(source: str) -> set:
    """Each name read or written as an ast.Name or an attribute; strings,
    docstrings and comments do not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_scan_finds_definitions():
    source = ("def f(): pass\nclass A:\n    x = 1\n    def __init__(self): pass\n"
              "    def g(self): return h.k\n")
    assert definitions(source) == ["f", "A", "g"]
    assert named(source + "'f' # A\n") == {"x", "h", "k"}


def test_no_definition_lives_only_for_the_tests():
    used = set().union(*(named(p.read_text()) for p in [*PACKAGE, *PERFBENCH]))
    unused = [f"{p.name}: {name}" for p in PACKAGE for name in definitions(p.read_text())
              if name not in used]
    assert unused == []
