"""Layer spans and counters, recorded from outside the stansym package.

``install()`` wraps, in the running process:

- every public module-level function of the nine stansym modules;
- the private names other code calls across a boundary or that a counter
  needs: ``symfunc._jacobi_trudi_h`` (imported by nilcoxeter),
  ``symfunc._solve_exact`` and ``nilhecke._affine_transposition``;
- the group-kernel methods ``__mul__``, ``inverse``, ``length``, ``code``,
  ``right_descents`` and ``reduced_words`` of ``Permutation`` and
  ``AffinePermutation``, the products of ``SymFunc``,
  ``NilCoxeterElement`` and ``NilHeckeElement``, and ``SymFunc.to_m`` and
  ``SymFunc.change_basis``.

``__init__``, ``__call__``, ``__eq__`` and ``__hash__`` stay unwrapped: they
are the cheapest and most frequent calls, and their time counts as the self
time of the layer that calls them.

Every binding of a wrapped function in any stansym module is replaced, so a
name imported with ``from .x import y`` is traced too.  Each traced call
records a span (start, end, layer, function, parent span, op) in compact
in-memory arrays, which ``write_spans`` writes out once at the end.  A
layer's self time is the duration of its spans minus the time covered by
their child spans; calls within one layer count towards that layer.

One binding that is not a stansym function is replaced as well: symfunc's
``_itperm`` (``itertools.permutations``), by one that counts the
permutations ``_jacobi_trudi_h`` draws.
"""

import functools
import importlib
import itertools
import json
from array import array
from operator import itemgetter
from time import perf_counter

LAYERS = (
    "permutation", "affine", "partition", "symfunc", "stanley",
    "tableaux", "nilcoxeter", "nilhecke", "cli",
)
ROOT = "bench"  # the op itself: harness glue outside every wrapped call
KERNEL_METHODS = ("__mul__", "inverse", "length", "code", "right_descents", "reduced_words")
CLASS_METHODS = {
    ("permutation", "Permutation"): KERNEL_METHODS,
    ("affine", "AffinePermutation"): KERNEL_METHODS,
    ("symfunc", "SymFunc"): ("__mul__", "to_m", "change_basis"),
    ("nilcoxeter", "NilCoxeterElement"): ("__mul__",),
    ("nilhecke", "NilHeckeElement"): ("__mul__",),
}
PRIVATE_FUNCTIONS = {
    "symfunc": ("_jacobi_trudi_h", "_solve_exact"),
    "nilhecke": ("_affine_transposition",),
}
# module-level lru_cache kernels read after each run (the sixteenth,
# partition.count_standard_tableaux_brute's ``chains``, is rebuilt per call)
CACHES = {
    "permutation": ("_reduced_words",),
    "affine": ("_affine_reduced_words", "elements_of_length", "_grassmannian_table"),
    "partition": ("partitions_of",),
    "stanley": (
        "_decreasing_elements", "_count_decreasing_factorizations",
        "_cyclically_decreasing_elements", "_count_cyclic_factorizations",
    ),
    "symfunc": (
        "_m_product", "_h_to_m", "_product_to_m", "_expand_to_m",
        "affine_schur", "_k_schur_h_table",
    ),
}
COUNTERS = (
    "permutation.words_returned",
    "stanley.scan_useful", "stanley.scan_attempts",
    "symfunc.jt_terms", "symfunc.jt_perms", "symfunc.solve_cells",
    "nilcoxeter.mul_terms", "nilcoxeter.mul_pairs",
    "nilhecke.chevalley_kept", "nilhecke.chevalley_tried",
)


def _modules():
    return {name: importlib.import_module(f"stansym.{name}") for name in LAYERS}


def cache_info():
    """{"module.kernel": [hits, misses, currsize]} for every cache in CACHES."""
    mods = _modules()
    out = {}
    for mod, names in CACHES.items():
        for name in names:
            fn = getattr(mods[mod], name)
            if not hasattr(fn, "cache_info"):
                fn = fn.__wrapped__  # step past a tracer wrapper
            info = fn.cache_info()
            out[f"{mod}.{name}"] = [info.hits, info.misses, info.currsize]
    return out


# -- counters computed at the layer boundary -----------------------------------
#
# A hook runs after a traced call returns, with its time kept out of every
# layer's self time.  It gets the tracer, the call's span id, the arguments
# and the result, and returns the result the caller sees.  The denominators
# of the waste ratios count work the program does: words drawn from
# reduced_words results, permutations drawn by _jacobi_trudi_h, and group
# products made inside a nilCoxeter product.


def _drawing(iterable, *counters):
    """``iterable`` unchanged, advancing each counter once per item drawn."""
    return map(itemgetter(0), zip(iterable, *counters))


def drawn(counter):
    """How many items an ``itertools.count()`` counter has handed out."""
    return int(repr(counter)[len("count("):-1])


class ScannedWords(tuple):
    """Reduced words returned inside stanley_fn; each loop counts its draws."""

    __slots__ = ()
    counter = None  # set on each tracer's own subclass

    def __iter__(self):
        return _drawing(tuple.__iter__(self), self.counter)


def _enclosing(t, fid):
    """The innermost open span of function ``fid``, or None."""
    for sid, _, _ in reversed(t.stack):
        if t.function[sid] == fid:
            return sid
    return None


def _reduced_words(t, sid, args, kwargs, result):
    stanley = _enclosing(t, t.fids.get(("stanley", "stanley_fn")))
    if stanley is not None:
        t.scanning.add(stanley)
    if isinstance(result, tuple):
        t.counters["permutation.words_returned"] += len(result)
        return t.ScannedWords(result) if stanley is not None else result
    # a lazy result is counted as the caller draws from it
    counters = (t.words_drawn, t.words_scanned) if stanley is not None else (t.words_drawn,)
    return _drawing(result, *counters)


def _stanley_scan(t, sid, args, kwargs, result):
    if sid in t.scanning:  # this call scanned reduced words
        t.scanning.discard(sid)
        t.counters["stanley.scan_useful"] += sum(result.coeffs.values())
    return result


def _jacobi_trudi(t, sid, args, kwargs, result):
    t.counters["symfunc.jt_terms"] += len(result)
    return result


def _solve_cells(t, sid, args, kwargs, result):
    rows = args[0]
    t.counters["symfunc.solve_cells"] += len(rows) * (len(rows[0]) if rows else 0)
    return result


def _nilcoxeter_mul(t, sid, args, kwargs, result):
    if not isinstance(args[1], int):
        t.counters["nilcoxeter.mul_pairs"] += t.children(sid, t.group_products)
        t.counters["nilcoxeter.mul_terms"] += len(result.coeffs)
    return result


def _chevalley(t, sid, args, kwargs, result):
    # the A_w term is always there; the others are the reflections kept
    t.counters["nilhecke.chevalley_kept"] += len(result.coeffs) - (args[0] in result.coeffs)
    return result


def _affine_transposition(t, sid, args, kwargs, result):
    t.counters["nilhecke.chevalley_tried"] += 1
    return result


HOOKS = {
    ("permutation", "Permutation.reduced_words"): _reduced_words,
    ("stanley", "stanley_fn"): _stanley_scan,
    ("symfunc", "_jacobi_trudi_h"): _jacobi_trudi,
    ("symfunc", "_solve_exact"): _solve_cells,
    ("nilcoxeter", "NilCoxeterElement.__mul__"): _nilcoxeter_mul,
    ("nilhecke", "chevalley"): _chevalley,
    ("nilhecke", "_affine_transposition"): _affine_transposition,
}


# -- the tracer ----------------------------------------------------------------


class Tracer:
    """Spans kept in column arrays; self time and calls summed per layer."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.layers = (ROOT,) + LAYERS
        self.functions = []
        self.start = array("d")
        self.end = array("d")
        self.layer = array("b")
        self.function = array("i")
        self.parent = array("i")
        self.op_index = array("i")
        self.stack = []  # [span id, layer, time covered by children]
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.function_calls = array("q")
        self.hook_s = 0.0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.fids = {}  # (layer, qualname) -> function id
        self.scanning = set()  # open stanley_fn spans that drew reduced words
        self.words_drawn = itertools.count()  # from lazy reduced_words results
        self.words_scanned = itertools.count()  # inside stanley_fn
        self.ScannedWords = type("ScannedWords", (ScannedWords,), {"__slots__": (), "counter": self.words_scanned})
        self.jt_perms = itertools.count()  # drawn by _jacobi_trudi_h
        self.group_products = set()  # function ids of the group __mul__ methods
        self.root_function = self._function_id(ROOT, "op")

    def open(self, layer, function):
        sid = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.layer.append(layer)
        self.function.append(function)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op_index.append(self.op)
        self.stack.append([sid, layer, 0.0])
        self.calls[layer] += 1
        self.function_calls[function] += 1
        return sid

    def close(self):
        t = perf_counter()
        sid, layer, covered = self.stack.pop()
        self.end[sid] = t
        elapsed = t - self.start[sid]
        self.self_s[layer] += elapsed - covered
        if self.stack:
            self.stack[-1][2] += elapsed

    def exclude(self, seconds):
        """Keep counter bookkeeping out of every layer's self time."""
        self.hook_s += seconds
        if self.stack:
            self.stack[-1][2] += seconds

    def children(self, sid, functions):
        """Direct child spans of ``sid`` whose function is in ``functions``."""
        return sum(
            1 for k in range(sid + 1, len(self.start))
            if self.parent[k] == sid and self.function[k] in functions
        )

    def op_begin(self, index):
        self.op = index
        self.on = True
        self.open(0, self.root_function)

    def op_end(self):
        self.close()
        self.on = False

    def _function_id(self, layer_name, qualname):
        self.functions.append(f"{layer_name}.{qualname}")
        self.function_calls.append(0)
        return len(self.functions) - 1

    def wrap(self, fn, layer_name, qualname):
        layer = self.layers.index(layer_name)
        fid = self._function_id(layer_name, qualname)
        self.fids[(layer_name, qualname)] = fid
        if qualname.endswith("Permutation.__mul__"):
            self.group_products.add(fid)
        hook = HOOKS.get((layer_name, qualname))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = tracer.open(layer, fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if hook is not None:
                t = perf_counter()
                result = hook(tracer, sid, args, kwargs, result)
                tracer.exclude(perf_counter() - t)
            return result

        return traced

    def summary(self):
        counters = dict(self.counters)
        counters["permutation.words_returned"] += drawn(self.words_drawn)
        counters["stanley.scan_attempts"] = drawn(self.words_scanned)
        counters["symfunc.jt_perms"] = drawn(self.jt_perms)
        return {
            "self_s": dict(zip(self.layers, self.self_s)),
            "calls": dict(zip(self.layers, self.calls)),
            "function_calls": {f: n for f, n in zip(self.functions, self.function_calls) if n},
            "counters": counters,
            "hook_s": self.hook_s,
            "spans": len(self.start),
        }

    def write_spans(self, path):
        """One JSON header line, then the columns as raw machine arrays."""
        columns = ("start", "end", "layer", "function", "parent", "op_index")
        header = {
            "layers": list(self.layers),
            "functions": self.functions,
            "count": len(self.start),
            "columns": [[name, getattr(self, name).typecode] for name in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for name in columns:
                getattr(self, name).tofile(fh)


def load_spans(path):
    """Read a file written by ``Tracer.write_spans``: (header, {column: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, typecode in header["columns"]:
            col = array(typecode)
            col.fromfile(fh, header["count"])
            columns[name] = col
    return header, columns


def _count_jacobi_trudi_permutations(tracer, symfunc):
    """Replace symfunc's binding of itertools.permutations with one that counts
    the permutations drawn inside _jacobi_trudi_h."""
    if getattr(symfunc, "_itperm", None) is not itertools.permutations:
        return  # the program no longer enumerates them this way
    jt = tracer.fids[("symfunc", "_jacobi_trudi_h")]

    def permutations(iterable, r=None):
        perms = itertools.permutations(iterable, r)
        if tracer.on and tracer.stack and tracer.function[tracer.stack[-1][0]] == jt:
            return _drawing(perms, tracer.jt_perms)
        return perms

    symfunc._itperm = permutations


def install():
    """Wrap the stansym layers in this process; returns the Tracer."""
    tracer = Tracer()
    mods = _modules()
    replace = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        names = [
            name for name, obj in vars(mod).items()
            if not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__
        ]
        names += PRIVATE_FUNCTIONS.get(layer, ())
        for name in names:
            fn = getattr(mod, name)
            replace[id(fn)] = (fn, tracer.wrap(fn, layer, name))
    for (layer, cls_name), methods in CLASS_METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for method in methods:
            fn = cls.__dict__[method]
            wrapped = tracer.wrap(fn, layer, f"{cls_name}.{method}")
            for attr, value in list(vars(cls).items()):
                if value is fn:  # e.g. SymFunc.__rmul__ = __mul__
                    setattr(cls, attr, wrapped)
    _count_jacobi_trudi_permutations(tracer, mods["symfunc"])
    package = importlib.import_module("stansym")
    for mod in list(mods.values()) + [package]:
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tracer
