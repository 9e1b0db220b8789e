"""Every name a package module imports is used in that module.

No linter ships with the project, so this scan stands in for one: an import
the module never reads is dead code that outlives whatever once used it.
"""

import ast
from pathlib import Path

import pytest

import crossfit

MODULES = sorted(Path(crossfit.__file__).parent.glob("*.py"))


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
    for node in ast.walk(tree):  # re-exports named in __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_an_unused_import():
    src = "import os\nfrom json import dumps, loads as ld\n__all__ = ['dumps']\n"
    assert unused_imports(src) == ["ld (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
