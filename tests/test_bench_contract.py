"""The names the benchmark's tracer reads from stansym still exist.

``perfbench/tracer.py`` reads the lru caches in ``CACHES`` after every round
and wraps the private functions in ``PRIVATE_FUNCTIONS`` and the methods in
``CLASS_METHODS``.  If one of them is renamed or loses its cache, no round
reports and every end-to-end metric is lost, so a refactor must fail here
first.
"""

import importlib
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_traced_cache_is_an_lru_cache():
    for mod, names in tracer.CACHES.items():
        module = importlib.import_module(f"stansym.{mod}")
        for name in names:
            assert hasattr(getattr(module, name, None), "cache_info"), f"{mod}.{name}"


def test_every_traced_method_is_defined_on_its_class():
    # install() reads cls.__dict__[method]; an inherited or renamed one is a KeyError
    for (mod, cls_name), methods in tracer.CLASS_METHODS.items():
        cls = getattr(importlib.import_module(f"stansym.{mod}"), cls_name)
        for method in methods:
            assert method in cls.__dict__, f"{mod}.{cls_name}.{method}"


def test_every_traced_private_function_exists():
    for mod, names in tracer.PRIVATE_FUNCTIONS.items():
        module = importlib.import_module(f"stansym.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"
