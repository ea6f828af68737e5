"""The package takes one reduced word with ``reduced_word()``.

``reduced_words()`` builds and caches every reduced word of its element, a
set that grows exponentially with the length, so indexing into it to get
one word, or calling it from the algebra layers, re-enumerates R(w).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stansym"
ALGEBRA = {"nilhecke.py", "nilcoxeter.py"}


def _is_reduced_words_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "reduced_words"
    )


def test_no_reduced_words_enumeration_for_one_word():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            indexed = isinstance(node, ast.Subscript) and _is_reduced_words_call(node.value)
            if indexed or (path.name in ALGEBRA and _is_reduced_words_call(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"reduced_words() enumerated for one word in {', '.join(found)}"
