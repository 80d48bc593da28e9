"""Memory stays bounded on long runs: the package keeps no cache, so nothing
outlives a call."""

import gc
import importlib
import pkgutil
import tracemalloc

import shapiro12
from shapiro12.harness import FuzzConfig, Strategy, run_fuzz


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


def test_package_keeps_no_cache():
    assert _package_caches() == []


def test_memory_flat_on_long_fuzz_run():
    # With unbounded caches the traced memory grew by 4.5 MB from case 500 to
    # case 2000 below; with bounded ones it grows by about 0.1 MB.
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


def test_memory_per_case_small_at_high_degree():
    # Counting keeps no Sturm sequence, whose middle elements are far wider
    # than the polynomial at degrees 24-32. Caching the sequences grew the
    # traced memory by about 195 KB per case here.
    config = FuzzConfig(seed=103, cases=40, degree_range=(24, 32), coeff_bound=12,
                        strategy=Strategy.UNIFORM)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = run_fuzz(config)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert summary.disagreements == []
    assert growth / config.cases < 10 * 1024
