"""Outside-in tracer: wraps declared public functions of shapiro12 from the
benchmark's own code, without touching the package sources.

Each declared name is rebound, in every shapiro12 module that holds it, to a
wrapper that records a span (name, start, end, parent span, case id).  Calls
made inside the package go through module globals, so they are caught too.
A declared name the package no longer has is reported as absent.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

#: Public names wrapped per module (layer).
DECLARED = {
    "polycore": ("gcd", "squarefree_part", "squarefree_decomposition",
                 "sign_at", "divmod_exact", "div_exact"),
    "realroots": ("sturm_count", "root_count", "isolate_real_roots",
                  "sign_at_root", "compare_roots"),
    "rootlocus": ("normalize", "axis_events", "axis_segments",
                  "breakaway_points", "gain_vs_threshold", "gain_compare_at"),
    "shapiro": ("build", "classify", "actual_verdict"),
    "harness": ("find_class_example",),
}

LAYERS = tuple(DECLARED)

#: Metric groups: a group's calls are its spans not nested in another span of
#: the same group, so a forwarding call is not counted twice.
GROUPS = {
    "polycore.gcd": ("polycore.gcd",),
    "polycore.squarefree": ("polycore.squarefree_part", "polycore.squarefree_decomposition"),
    "polycore.sign_at": ("polycore.sign_at",),
    "polycore.divmod": ("polycore.divmod_exact", "polycore.div_exact"),
    "realroots.isolate": ("realroots.isolate_real_roots",),
    "realroots.sign_at_root": ("realroots.sign_at_root",),
    "realroots.sturm_count": ("realroots.sturm_count",),
    "realroots.root_count": ("realroots.root_count",),
    "realroots.compare_roots": ("realroots.compare_roots",),
    "rootlocus.normalize": ("rootlocus.normalize",),
    "rootlocus.events": ("rootlocus.axis_events", "rootlocus.axis_segments"),
    "rootlocus.breakaway": ("rootlocus.breakaway_points",),
    "rootlocus.gain_compare": ("rootlocus.gain_vs_threshold", "rootlocus.gain_compare_at"),
    "shapiro.build": ("shapiro.build",),
    "shapiro.classify": ("shapiro.classify",),
    "shapiro.actual_verdict": ("shapiro.actual_verdict",),
    "harness.find_class_example": ("harness.find_class_example",),
}

#: Groups whose cache hit ratio is read from the original cached callables.
CACHED_GROUPS = ("polycore.gcd", "polycore.squarefree")


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in getattr(poly, "coeffs", ())), default=0)


def _package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def module_caches(package: str = "shapiro12") -> list:
    """Every module-level lru_cache in the package, public or private."""
    seen = {}
    for module in _package_modules(package):
        for value in vars(module).values():
            # A traced name holds the tracer's wrapper; its cache sits behind it.
            for candidate in (value, getattr(value, "__wrapped__", None)):
                if hasattr(candidate, "cache_info") \
                        and getattr(candidate, "__module__", "").startswith(package):
                    seen[id(candidate)] = candidate
                    break
    return list(seen.values())


class Tracer:
    """Span recorder plus the per-name observations the layer metrics need."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.stack: list[int] = []
        self.case = -1
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}
        self.reset()

    def reset(self) -> None:
        """Drop spans and observations, e.g. those recorded during warm-up."""
        if self.stack:
            raise RuntimeError("tracer reset inside a traced call")
        self.spans.clear()
        self.roots = 0
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.breakaway_points = 0
        self.breakaway_standard = 0
        self.labels: dict[str, int] = {}

    # -- installation -------------------------------------------------------

    def install(self, package: str = "shapiro12") -> None:
        modules = _package_modules(package)
        for layer, names in DECLARED.items():
            module = sys.modules.get(f"{package}.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                original = getattr(module, name, None) if module else None
                if not callable(original):
                    self.absent.append(key)
                    continue
                self.originals[key] = original
                wrapper = self._wrap(key, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, key: str, fn):
        sid = len(self.names)
        self.names.append(key)
        observe = {
            "realroots.isolate_real_roots": self._observe_isolate,
            "rootlocus.breakaway_points": self._observe_breakaway,
            "polycore.gcd": self._observe_gcd,
            "shapiro.classify": self._observe_classify,
        }.get(key)
        # Breakaway points are counted on computed calls only, not on calls
        # the cache served, so the misses counter is read before each call.
        info = getattr(fn, "cache_info", None) if key == "rootlocus.breakaway_points" else None
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            misses = info().misses if info else -1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent, self.case)
            if observe is not None and (info is None or info().misses > misses):
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_breakaway(self, args, result) -> None:
        self.breakaway_points += len(result)
        self.breakaway_standard += sum(1 for b in result if getattr(b, "standard", False))

    def _observe_isolate(self, args, result) -> None:
        self.roots += len(result)
        degree = getattr(args[0], "degree", 0)
        if isinstance(degree, int):
            self.max_degree = max(self.max_degree, degree)

    def _observe_gcd(self, args, result) -> None:
        bits = max(_coeff_bits(a) for a in (*args, result))
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def _observe_classify(self, args, result) -> None:
        label = getattr(result[0], "value", str(result[0]))
        self.labels[label] = self.labels.get(label, 0) + 1

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) per cached group, summed over its cached originals."""
        out = {}
        for group in CACHED_GROUPS:
            hits = misses = 0
            for key in GROUPS[group]:
                info = getattr(self.originals.get(key), "cache_info", None)
                if info is not None:
                    ci = info()
                    hits += ci.hits
                    misses += ci.misses
            out[group] = (hits, misses)
        return out

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-group calls, self and inclusive time; per-layer self time."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            sid, t0, t1, parent, _ = span
            if parent >= 0:
                child_ns[parent] += t1 - t0
        group_of = {}
        for group, keys in GROUPS.items():
            for key in keys:
                group_of[key] = group
        groups = {g: {"calls": 0, "self_ns": 0, "ns": 0} for g in GROUPS}
        layers = {layer: 0 for layer in LAYERS}
        for idx, (sid, t0, t1, parent, _) in enumerate(spans):
            key = self.names[sid]
            self_ns = t1 - t0 - child_ns[idx]
            layers[key.split(".", 1)[0]] += self_ns
            group = group_of[key]
            g = groups[group]
            g["self_ns"] += self_ns
            if parent < 0 or group_of[self.names[spans[parent][0]]] != group:
                g["calls"] += 1
                g["ns"] += t1 - t0
        return {
            "groups": groups,
            "layers_self_ns": layers,
            "roots": self.roots,
            "max_degree": self.max_degree,
            "max_coeff_bits": self.max_coeff_bits,
            "breakaway_points": self.breakaway_points,
            "breakaway_standard": self.breakaway_standard,
            "labels": self.labels,
            "absent": self.absent,
        }

    def write(self, path) -> None:
        """Write every span as a tab-separated line: name start end parent case."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcase\n")
            for sid, t0, t1, parent, case in self.spans:
                fh.write(f"{self.names[sid]}\t{t0}\t{t1}\t{parent}\t{case}\n")
