"""Every module-level function of the package has a caller outside ``tests/``.

A function counts as used when the package refers to it outside its own
body (a name, an attribute or an import alias, ``__init__``'s re-exports
among them), when a demo refers to it, or when the benchmark's tracer names
it.  An oracle that only tests call lives in ``tests/``; when a benchmark
change drops a name from the tracer, the oracle it pinned fails here until
it moves.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stansym"

_spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _references(node, skip=()):
    """Every name ``node`` refers to, outside the subtrees in ``skip``."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unused_functions(package, others=()):
    """``{"module.function": line}`` for each module-level ``def`` of
    ``package`` (a ``{module: tree}`` map) that nothing refers to: not the
    package outside the function's own body, and no name in ``others``."""
    defs = {
        node: module
        for module, tree in package.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    used = set(others)
    for tree in package.values():
        used |= _references(tree, skip=defs)
    for node in defs:
        used |= _references(node) - {node.name}
    return {f"{module}.{node.name}": node.lineno for node, module in defs.items() if node.name not in used}


def _traced_names():
    names = set()
    for table in (tracer.CACHES, tracer.PRIVATE_FUNCTIONS, tracer.CLASS_METHODS):
        for kernels in table.values():
            names.update(kernels)
    return names


def test_the_guard_sees_an_unused_function():
    package = {
        "a": ast.parse(
            "def used():\n    return helper()\n"
            "def helper():\n    return helper()\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def by_attribute():\n    pass\n"
            "def by_import():\n    pass\n"
            "def by_demo():\n    pass\n"
        ),
        "b": ast.parse("from .a import by_import\nimport a\na.by_attribute()\n"),
    }
    assert _unused_functions(package, {"by_demo"}) == {"a.used": 1, "a.recursive": 5}


def test_package_functions_have_callers_outside_the_tests():
    package = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    demos = set()
    for path in sorted((ROOT / "demos").glob("*.py")):
        demos |= _references(ast.parse(path.read_text(), str(path)))
    unused = _unused_functions(package, demos | _traced_names())
    found = [f"{name} (line {line})" for name, line in sorted(unused.items())]
    assert not found, f"only tests call {', '.join(found)}"
