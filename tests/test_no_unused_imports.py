"""Every import in the package is used: a module-level one by its module, one
inside a function by that function.

Each read resolves to its nearest import, as Python resolves it: a read
inside a function that imports the name itself uses that import, not the
module's.  ``__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stansym"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """The nodes under ``scope`` outside the functions nested in it; a nested
    function's own node is included, its body is not."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _imports(scope):
    """``{name: line}`` for each name that ``scope`` imports: a module's at its
    top level, a function's anywhere in its body outside nested functions."""
    statements = scope.body if isinstance(scope, ast.Module) else _own_nodes(scope)
    bound = {}
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _reads(scope):
    """The names read under ``scope`` that resolve to ``scope`` or past it: a
    read inside a nested function that imports the name resolves there."""
    reads = set()
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, FUNCTIONS):
            reads |= _reads(node) - _imports(node).keys()
    return reads


def _unused_imports(scope):
    """``{name: line}`` for each name that ``scope`` imports and never uses."""
    used = _reads(scope)
    return {name: line for name, line in _imports(scope).items() if name not in used}


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from functools import lru_cache, reduce\nimport os.path\nreduce(max, [1])\n")
    assert _unused_imports(tree) == {"lru_cache": 1, "os": 2}


def test_the_guard_sees_an_unused_import_inside_a_function():
    tree = ast.parse("def f():\n    import os\n    from math import pi, tau\n    return pi\n")
    assert _unused_imports(tree) == {}
    assert _unused_imports(tree.body[0]) == {"os": 2, "tau": 3}


def test_the_guard_sees_a_module_import_shadowed_in_every_reader():
    # the only read of pi is in f, which imports pi itself
    tree = ast.parse("from math import pi\ndef f():\n    from math import pi\n    return pi\n")
    assert _unused_imports(tree) == {"pi": 1}
    assert _unused_imports(tree.body[1]) == {}
    # a nested function that does not import pi reads the enclosing import
    tree = ast.parse("from math import pi\ndef f():\n    def g():\n        return pi\n    return g\n")
    assert _unused_imports(tree) == {}
    tree = ast.parse("def f():\n    from math import pi\n    def g():\n        return pi\n    return g\n")
    assert _unused_imports(tree.body[0]) == {}


def test_package_has_no_unused_module_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
            found += [f"{path.name}:{line} {name}" for name, line in _unused_imports(scope).items()]
    assert not found, f"unused import in {', '.join(found)}"
