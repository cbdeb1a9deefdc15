import ast
import os

import pytest

import rankone

PACKAGE = os.path.dirname(rankone.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")  # __init__ re-exports


def _unused_imports(source):
    """Names bound by a module-level import that the module never reads.
    `__future__` imports and names listed in `__all__` count as used."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.partition(".")[0], node.lineno)
                         for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from a.b import c, d\nimport x.y\n__all__ = ['d']\nprint(system)\n")
    assert _unused_imports(source) == [(2, "os"), (3, "c"), (4, "x")]


@pytest.mark.parametrize("name", MODULES)
def test_module_level_imports_are_used(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        assert _unused_imports(fh.read()) == []
