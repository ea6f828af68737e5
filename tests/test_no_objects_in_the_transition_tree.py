"""The Schur expansion's transition tree runs on bare windows.

``stanley._transition_tree`` tests each node, finds its descent and takes
both sides of the transition identity from tuples, through the window scan
``_transition_covers``.  It builds no ``Permutation`` and calls no public
``transition_sides``, which wraps every term in one; this guard keeps the
fast path from quietly going back to objects.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stansym"
OBJECTS = {"Permutation", "transition_sides"}


def _object_uses(tree, function):
    """``{name: line}`` for each name of ``OBJECTS`` that the module-level
    function ``function`` of ``tree`` refers to."""
    found = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Name):
                    name = node.id
                else:
                    continue
                if name in OBJECTS:
                    found.setdefault(name, node.lineno)
            return found
    raise AssertionError(f"no function {function} at module level")


def test_the_guard_sees_an_object_in_the_tree():
    tree = ast.parse(
        "def _transition_tree(key):\n"
        "    u = permutation.Permutation(key)\n"
        "    return transition_sides(u, 1)\n"
    )
    assert _object_uses(tree, "_transition_tree") == {"Permutation": 2, "transition_sides": 3}


def test_the_transition_tree_builds_no_permutation():
    path = SRC / "stanley.py"
    found = _object_uses(ast.parse(path.read_text(), str(path)), "_transition_tree")
    assert not found, f"stanley._transition_tree uses objects: {found}"
