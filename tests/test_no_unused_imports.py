"""Every import in the package is used: a module-level one by its module, one
inside a function by that function.

``__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stansym"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unused_imports(scope):
    """``{name: line}`` for each name that ``scope`` imports and never uses.

    A module's imports are those of its top level; a function's are those
    anywhere in its body.
    """
    statements = scope.body if isinstance(scope, ast.Module) else ast.walk(scope)
    bound = {}
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
    return {name: line for name, line in bound.items() if name not in used}


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from functools import lru_cache, reduce\nimport os.path\nreduce(max, [1])\n")
    assert _unused_imports(tree) == {"lru_cache": 1, "os": 2}


def test_the_guard_sees_an_unused_import_inside_a_function():
    tree = ast.parse("def f():\n    import os\n    from math import pi, tau\n    return pi\n")
    assert _unused_imports(tree) == {}
    assert _unused_imports(tree.body[0]) == {"os": 2, "tau": 3}


def test_package_has_no_unused_module_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
            found += [f"{path.name}:{line} {name}" for name, line in _unused_imports(scope).items()]
    assert not found, f"unused import in {', '.join(found)}"
