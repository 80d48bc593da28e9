"""Memory stays bounded on long runs: every package cache has a finite size."""

import gc
import importlib
import pkgutil
import tracemalloc

import shapiro12
from shapiro12.harness import FuzzConfig, run_fuzz


def _package_caches():
    """Every module-level lru_cache defined in the package."""
    caches = []
    for info in pkgutil.walk_packages(shapiro12.__path__, "shapiro12."):
        if info.name.endswith(".__main__"):  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if hasattr(value, "cache_parameters") and value.__module__ == info.name:
                caches.append(value)
    return caches


def test_every_cache_is_bounded():
    caches = _package_caches()
    names = {f"{c.__module__}.{c.__name__}" for c in caches}
    assert {"shapiro12.polycore.gcd", "shapiro12.polycore._sturm_sequence",
            "shapiro12.polycore.proves_coprime",
            "shapiro12.harness._targeted_case"} <= names
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] is not None, cache.__name__


def test_memory_flat_on_long_fuzz_run():
    # With unbounded caches the traced memory grew by 4.5 MB from case 500 to
    # case 2000 below; with bounded ones it grows by about 0.1 MB.
    for cache in _package_caches():
        cache.cache_clear()
    tracemalloc.start()
    try:
        run_fuzz(FuzzConfig(seed=101, cases=500, degree_range=(2, 8)))
        gc.collect()
        at_500 = tracemalloc.get_traced_memory()[0]
        run_fuzz(FuzzConfig(seed=102, cases=1500, degree_range=(2, 8)))
        gc.collect()
        at_2000 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert at_2000 - at_500 < 1 << 20
