"""Every name a package module imports is used in that module, and every
name its `__all__` exports exists there; the CLI's import graph stays lean.

No linter ships with the project, so these scans stand in for one: an import
the module never reads is dead code that outlives whatever once used it, and
an export the module no longer binds breaks `from module import *`.
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


def test_scan_flags_an_unused_import():
    src = "import os\nfrom json import dumps, loads as ld\n__all__ = ['dumps']\n"
    assert unused_imports(src) == ["ld (line 2)", "os (line 1)"]


def test_scan_flags_an_undefined_export():
    src = ("from json import dumps as dump\nA, (B, C) = 1, (2, 3)\nD: int = 4\n"
           "def f(): pass\nclass K: pass\n"
           "__all__ = ['dump', 'A', 'C', 'D', 'f', 'K', 'Gone', 'dumps']\n")
    assert undefined_exports(src) == ["Gone", "dumps"]


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
