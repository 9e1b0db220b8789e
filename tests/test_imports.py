"""Every name a package module imports is used in that module, every name
its `__all__` exports exists there, every private top-level name is read
somewhere in the package, and every defaulted parameter is set to another
value by some call; the CLI's import graph stays lean.

No linter ships with the project, so these scans stand in for one: an import
the module never reads, a `_helper` nothing calls, or a parameter every call
leaves at its default is dead code that outlives whatever once used it, and
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
ROOT = Path(__file__).resolve().parents[1]


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


def _defaulted_parameters(body, cls=None):
    """(called name, parameter, position, default) for each defaulted
    parameter of each function or method defined in `body`. The called name
    is the class's for `__init__`; other dunders are left out. The position
    counts the arguments a call passes, so a method's `self` takes none; a
    keyword-only parameter has none."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defaulted_parameters(node.body, node.name)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = cls if node.name == "__init__" and cls else node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        bound = int(cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list))
        first = len(positional) - len(a.defaults)
        for i, (arg, default) in enumerate(zip(positional[first:], a.defaults), first):
            yield name, arg.arg, i - bound, default
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, default


def _sets(call: ast.Call, param: str, position, default: str) -> bool:
    """Whether `call` may give `param` a value other than the `default` dump."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return True
    given = [k.value for k in call.keywords if k.arg == param]
    if position is not None and position < len(call.args):
        given.append(call.args[position])
    return any(ast.dump(v) != default for v in given)


def one_value_parameters(package: dict[str, str], callers: list[str]) -> list[str]:
    """`module.function(parameter)` for each defaulted parameter of a
    function in `package` that no call in `callers` sets to a value other
    than its default literal. Calls match by the called name: `f(...)`,
    `x.f(...)`, or the class's name for `__init__`."""
    calls = {}
    for src in callers:
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                calls.setdefault(name, []).append(n)
    return [f"{mod}.{name}({param})" for mod, src in sorted(package.items())
            for name, param, position, default in _defaulted_parameters(ast.parse(src).body)
            if not any(_sets(c, param, position, ast.dump(default))
                       for c in calls.get(name, []))]


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


def test_scan_flags_a_one_value_parameter():
    package = {"m": ("def f(a, b=1, *, c=None, d=2): pass\n"
                     "def g(x=0): pass\n"
                     "def h(y=0): pass\n"
                     "class K:\n"
                     "    def __init__(self, z=0): pass\n"
                     "    def meth(self, w=0): pass\n"
                     "    @staticmethod\n"
                     "    def util(v=0): pass\n"
                     "    def __eq__(self, other=None): pass\n")}
    callers = ["f(0, 1, c=None)\nf(0, 5)\nobj.f(0, d=3)\n",   # b by position, d by keyword
               "g(*args)\nK(z=4)\nk.meth(1)\nK.util(2)\n"]
    assert one_value_parameters(package, callers) == ["m.f(c)", "m.h(y)"]


def test_package_has_no_one_value_parameters():
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for top in ("src", "perfbench", "tests")
               for p in sorted((ROOT / top).rglob("*.py"))]
    assert one_value_parameters(package, callers) == []


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
