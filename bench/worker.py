"""One benchmark worker: a fresh process that sets up, warms up, decides one
block of cases (or one coverage report) and prints a JSON result.

Run only by ``run.py``, which sends the job as JSON on stdin.  A fresh process
per block keeps shapiro12's global caches from serving a polynomial a second
time and gives each block its own peak RSS.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from corpus import WARMUP_SEED, case_text  # noqa: E402
from tracer import Tracer, module_caches  # noqa: E402


def import_package():
    """Import shapiro12 from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import shapiro12

    if not Path(shapiro12.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"shapiro12 was imported from {shapiro12.__file__}, not from {src}")
    return shapiro12


def decide(api, poly) -> tuple[str, bool]:
    """One case: build, classify, predicted verdict, counted verdict.

    Returns the outcome fields (label, predicted, counted verdict, root counts
    of delta and p) and whether the predicted verdict equals the counted one.
    """
    instance = api.build(poly)
    label, _ = api.classify(instance)
    predicted = api.predict_verdict(label).value
    try:
        actual = api.actual_verdict(instance)
    except api.DeltaIdenticallyZeroError as exc:
        # p = c(ax+b)^n: p has a real zero, so the conjecture holds.
        counted = "HOLDS" if exc.nr_p.distinct > 0 else "FAILS"
        nr_delta, nr_p = "zero", exc.nr_p
    else:
        counted, nr_delta, nr_p = actual.verdict.value, actual.nr_delta, actual.nr_p
        nr_delta = f"{nr_delta.distinct}/{nr_delta.with_multiplicity}"
    fields = f"{label.value}|{predicted}|{counted}|{nr_delta}|{nr_p.distinct}/{nr_p.with_multiplicity}"
    return fields, predicted == counted


def _start_timed(tracer):
    if tracer is None:
        return None
    tracer.reset()
    return tracer.cache_counts()


def _end_timed(out: dict, job: dict, tracer, cache_start) -> None:
    """Record what the timed region left behind, before any checking work."""
    out["cache_entries"] = sum(c.cache_info().currsize for c in module_caches())
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["cache_start"] = cache_start
        out["cache_end"] = tracer.cache_counts()
        if job.get("spans_file"):
            tracer.write(job["spans_file"])


def run_fuzz_block(api, job, tracer) -> dict:
    recipe, degrees, bound, seed = job["recipe"], tuple(job["degrees"]), job["bound"], job["seed"]
    texts = [case_text(recipe, degrees, bound, seed, i) for i in job["cases"]]
    polys = [api.parse_polynomial(t) for t in texts]
    timed = set(texts)
    for i in job["warmup"]:
        text = case_text(recipe, degrees, bound, WARMUP_SEED, i)
        if text not in timed:
            decide(api, api.parse_polynomial(text))
    out = {"setup_s": time.perf_counter() - _T_START}
    cache_start = _start_timed(tracer)
    lat_ns, lines, ok, errors = [], [], [], []
    clock = time.perf_counter_ns
    for index, text, poly in zip(job["cases"], texts, polys):
        if tracer is not None:
            tracer.case = index
        t0 = clock()
        try:
            fields, agrees = decide(api, poly)
        except Exception as exc:  # a raising case is a failed case, not a crash
            fields, agrees = f"ERROR|{type(exc).__name__}", False
            errors.append(f"case {index} ({text}): {exc!r}")
        lat_ns.append(clock() - t0)
        ok.append(agrees)
        lines.append(f"{text}|{fields}")
    _end_timed(out, job, tracer, cache_start)
    out.update(lat_ns=lat_ns, lines=lines, ok=ok, errors=errors)
    return out


def run_coverage_report(api, job, tracer) -> dict:
    degrees, bound, seed = tuple(job["degrees"]), job["bound"], job["seed"]
    # Warm up on uniform cases of the warm-up stream, not on the report's own
    # inputs, so the report starts with cold caches.
    for i in job["warmup"]:
        decide(api, api.parse_polynomial(case_text("uniform", degrees, bound, WARMUP_SEED, i)))
    config = api.FuzzConfig(seed=seed, cases=0, degree_range=degrees, coeff_bound=bound)
    out = {"setup_s": time.perf_counter() - _T_START}
    cache_start = _start_timed(tracer)
    lat_ns, found, errors = [], [], []
    clock = time.perf_counter_ns
    t_report = clock()
    for label in api.ClassLabel:
        t0 = clock()
        try:
            poly = api.find_class_example(label, budget=job["budget"], config=config)
        except Exception as exc:
            poly = exc
        lat_ns.append(clock() - t0)
        found.append((label, poly))
    out["report_s"] = (clock() - t_report) / 1e9
    _end_timed(out, job, tracer, cache_start)
    # Outside the timed region: every example must classify to its label and
    # its predicted verdict must equal the counted one.
    lines, ok = [], []
    for label, poly in found:
        if poly is None:
            lines.append(f"{label.value}|NOT_FOUND")
            ok.append(True)
            continue
        if isinstance(poly, Exception):
            lines.append(f"{label.value}|ERROR|{type(poly).__name__}")
            errors.append(f"{label.value}: {poly!r}")
            ok.append(False)
            continue
        text = api.format_polynomial(poly)
        try:
            fields, agrees = decide(api, poly)
        except Exception as exc:
            fields, agrees = "ERROR", False
            errors.append(f"{label.value} ({text}): {exc!r}")
        ok.append(agrees and fields.startswith(label.value + "|"))
        lines.append(f"{label.value}|{text}|{fields}")
    out.update(lat_ns=lat_ns, lines=lines, ok=ok, errors=errors)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    api = import_package()
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    if job["kind"] == "fuzz":
        out = run_fuzz_block(api, job, tracer)
    else:
        out = run_coverage_report(api, job, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
