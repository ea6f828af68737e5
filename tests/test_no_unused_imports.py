"""Every module-level import in the package is used by its module.

``__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stansym"


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in bound.items() if name not in used}


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from functools import lru_cache, reduce\nimport os.path\nreduce(max, [1])\n")
    assert _unused_imports(tree) == {"lru_cache": 1, "os": 2}


def test_package_has_no_unused_module_imports():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name, line in _unused_imports(ast.parse(path.read_text(), str(path))).items()
    ]
    assert not found, f"unused import in {', '.join(found)}"
