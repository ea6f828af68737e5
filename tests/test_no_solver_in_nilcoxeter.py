"""The nilCoxeter module solves no linear system.

The Fomin-Stanley report reads the coordinates of an element of B off the
dominant permutations, where the Schur basis is an identity matrix, so
``nilcoxeter.py`` needs none of symfunc's exact solver: ``_solve_exact``,
``_eliminate`` or ``_replay``, imported at any level or reached as an
attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stansym"
SOLVER = {"_solve_exact", "_eliminate", "_replay"}


def _solver_uses(tree):
    """``{name: line}`` for each solver name that ``tree`` imports or refers to."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        for name in SOLVER.intersection(names):
            found.setdefault(name, node.lineno)
    return found


def test_the_guard_sees_a_solver_import():
    tree = ast.parse(
        "from .symfunc import _solve_exact\n"
        "def f():\n    from . import symfunc\n    return symfunc._eliminate\n"
    )
    assert _solver_uses(tree) == {"_solve_exact": 1, "_eliminate": 4}


def test_nilcoxeter_uses_no_solver():
    path = SRC / "nilcoxeter.py"
    found = _solver_uses(ast.parse(path.read_text(), str(path)))
    assert not found, f"nilcoxeter.py uses the solver: {found}"
