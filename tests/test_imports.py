"""Every name a package module imports is used in that module, every name
its `__all__` exports exists there, and every private top-level name is read
somewhere in the package; the CLI's import graph stays lean.

No linter ships with the project, so these scans stand in for one: an import
the module never reads, or a `_helper` nothing calls, is dead code that
outlives whatever once used it, and an export the module no longer binds
breaks `from module import *`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossfit

MODULES = sorted(Path(crossfit.__file__).parent.glob("*.py"))


def _exports(tree: ast.Module) -> list[str]:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exports(tree))  # re-exports named in __all__ count as used
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def undefined_exports(source: str) -> list[str]:
    """Names in `__all__` that no top-level statement of the module binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return sorted(set(_exports(tree)) - bound)


def _private_definitions(tree: ast.Module):
    """(name, statement) for each top-level `_name` a module defines; dunders
    such as `__all__` are read by Python itself, so they are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _references(node: ast.AST) -> set[str]:
    """Names a statement reads: bare loads, attributes, and `from` imports."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs.update(a.name for a in n.names)
    return refs


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module._name` for each private top-level name that no statement of
    any module in `sources` reads, outside the statement defining it."""
    trees = {mod: ast.parse(src) for mod, src in sorted(sources.items())}
    statements = [(node, _references(node)) for tree in trees.values()
                  for node in tree.body]
    return [f"{mod}.{name}" for mod, tree in trees.items()
            for name, definition in _private_definitions(tree)
            if not any(name in refs for node, refs in statements if node is not definition)]


def test_scan_flags_an_unused_import():
    src = "import os\nfrom json import dumps, loads as ld\n__all__ = ['dumps']\n"
    assert unused_imports(src) == ["ld (line 2)", "os (line 1)"]


def test_scan_flags_an_undefined_export():
    src = ("from json import dumps as dump\nA, (B, C) = 1, (2, 3)\nD: int = 4\n"
           "def f(): pass\nclass K: pass\n"
           "__all__ = ['dump', 'A', 'C', 'D', 'f', 'K', 'Gone', 'dumps']\n")
    assert undefined_exports(src) == ["Gone", "dumps"]


def test_scan_flags_a_dead_private_name():
    sources = {
        "a": ("def _called(): pass\n"
              "def _recursive(n): return _recursive(n - 1)\n"
              "class _Read: pass\n"
              "_A, _B = 1, 2\n"
              "_C: int = 3\n"
              "__all__ = []\n"
              "def public(): return _called() + _A\n"),
        "b": "from a import _Read\nimport a\nx = a._C\n",
    }
    assert dead_private_names(sources) == ["a._recursive", "a._B"]


def test_package_has_no_dead_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_private_names(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_every_export(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []


def test_cli_import_leaves_scipy_out():
    """The program runs on numpy alone: it ranks AUC scores and computes
    GELU's erf itself. Importing `scipy.special` alone costs ~0.3 s and
    ~25 MB, which every command and `compare` worker would pay."""
    src = os.path.dirname(os.path.dirname(crossfit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, crossfit.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["[]"]
