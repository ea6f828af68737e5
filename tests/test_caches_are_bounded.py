"""Every module-level lru_cache in the package has a maxsize, save the ones
still open, and the memos of F_w's packed polynomials and zeta masks are
bounded by fields.

``OPEN`` lists the unbounded caches that remain.  It may only shrink: a cache
that gains a bound must leave it, and one that loses its bound, or a new
unbounded cache, fails here.
"""

import importlib
import pkgutil

import stansym
from stansym import stanley

OPEN = {
    "stanley._cyclically_decreasing_elements", "stanley._count_cyclic_factorizations",
    "symfunc._m_product", "symfunc._h_to_m", "symfunc._product_to_m",
}


def _unbounded_caches():
    found = set()
    for info in pkgutil.iter_modules(stansym.__path__):
        module = importlib.import_module(f"stansym.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "cache_info"):
                if obj.cache_info().maxsize is None:
                    found.add(f"{info.name}.{name}")
    return found


def test_no_module_level_cache_is_unbounded_save_the_open_ones():
    assert _unbounded_caches() == OPEN


def test_the_walk_and_mask_memos_are_bounded_by_fields():
    for memo in (stanley._WALK_MEMO, stanley._MASK_MEMO):
        assert isinstance(memo, stanley._FieldMemo)
        assert 0 < memo.budget < 1 << 24
    memo = stanley._FieldMemo(10)  # entries carry their field count first
    memo.put("a", (4, "A"))
    memo.put("b", (4, "B"))
    assert memo.get("a") == (4, "A")  # now "b" is the least recently used
    memo.put("c", (4, "C"))
    assert (memo.get("b"), memo.get("a"), memo.get("c"), memo.fields) == (None, (4, "A"), (4, "C"), 8)
    memo.put("d", (11, "D"))  # larger than the whole budget: not kept
    assert (memo.get("d"), memo.fields) == (None, 8)
    memo.put("e", (10, "E"))
    assert (list(memo.entries), memo.fields) == (["e"], 10)
    memo.clear()
    assert (len(memo.entries), memo.fields) == (0, 0)
