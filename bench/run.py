"""shapiro12 benchmark: end-to-end and per-layer metrics on frozen workloads.

Usage, from the repository root:

    python3 bench/run.py --workload fuzz-positive --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --record          # re-record bench/workloads.json
    python3 bench/selftest.py              # tampered digest must fail the run

Each timed block of cases runs in a fresh worker process (``worker.py``), one
worker at a time.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
decides a fixed set of blocks once untraced and once traced and prints the
per-layer metrics.  Human-readable lines come first; the last line of stdout is
one JSON object.  The exit code is 1 when any case failed (verdict mismatch,
exception or digest mismatch) and 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from corpus import case_text, corpus_digest  # noqa: E402
from tracer import CACHED_GROUPS, GROUPS, LAYERS  # noqa: E402

RECORD = BENCH / "workloads.json"
OUT = ROOT / ".bench_out"
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170
#: setup_s is the median over the workers of a run; at least this many run.
MIN_WORKERS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "fuzz" or "coverage"
    why: str
    degrees: tuple[int, int]
    bound: int
    default_seed: int
    block: int                   # cases per worker (coverage: one report)
    blocks: int                  # blocks in the frozen corpus
    trace_blocks: int            # blocks a --trace 1 run decides
    warmup: int                  # warm-up cases per worker
    recipe: str = "uniform"
    budget: int = 0              # coverage: search budget per label
    layer_map: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fuzz-uniform", kind="fuzz", recipe="uniform", degrees=(2, 16), bound=12,
        default_seed=7, block=250, blocks=40, trace_blocks=3, warmup=3,
        why="Most cases are Lambda1 and stop after one Sturm count of p, so build, "
            "gcd and counting carry the weight; it mostly bypasses the root-locus layer.",
        layer_map={
            "polycore.gcd.*, polycore.squarefree.*, polycore.sign_at.*": ["cases_per_s"],
            "realroots.sturm_count.*, realroots.root_count.ms": ["case_ms_p50"],
            "shapiro.build.self_ms": ["case_ms_p50"],
            "rootlocus.*": ["no change expected in case_ms_p50"],
            "mem.cache_entries": ["peak_rss_mb"],
        }),
    Workload(
        name="fuzz-positive", kind="fuzz", recipe="positive_only", degrees=(8, 12), bound=12,
        default_seed=7, block=24, blocks=60, trace_blocks=3, warmup=2,
        why="p has no real zeros, so every case enters the Gamma branch or is Lambda21: "
            "classification (isolation, signs at roots, breakaways, gain tests) dominates.",
        layer_map={
            "polycore.gcd.*, polycore.squarefree.*, polycore.sign_at.*": ["cases_per_s"],
            "realroots.isolate.*, realroots.sign_at_root.*": ["cases_per_s", "case_ms_p90"],
            "rootlocus.breakaway.*, rootlocus.gain_compare.*, rootlocus.events.self_ms, "
            "rootlocus.normalize.self_ms": ["cases_per_s", "case_ms_p90"],
            "shapiro.classify.*": ["cases_per_s"],
        }),
    Workload(
        name="coverage-search", kind="coverage", degrees=(4, 8), bound=10, budget=100,
        default_seed=29, block=1, blocks=100, trace_blocks=3, warmup=3,
        why="find_class_example for all 13 labels; the only workload whose inputs repeat, "
            "so the global caches serve the repeats: it shows the cost of cache scope.",
        layer_map={
            "harness.find_class_example.*": ["report_s"],
            "polycore.gcd.cache_hit_ratio, polycore.squarefree.cache_hit_ratio": ["report_s"],
            "polycore.gcd.*, polycore.squarefree.*": ["report_s", "cases_per_s"],
        }),
)}

END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


#: Per-layer metrics of a traced run.  calls count spans not nested in a span
#: of the same group; self_ms excludes time in nested traced spans; ms is the
#: inclusive time of the outermost spans.
PER_LAYER_UNITS = {
    "polycore.gcd.calls": "count",
    "polycore.gcd.self_ms": "ms",
    "polycore.gcd.cache_hit_ratio": "ratio",
    "polycore.squarefree.calls": "count",
    "polycore.squarefree.self_ms": "ms",
    "polycore.squarefree.cache_hit_ratio": "ratio",
    "polycore.sign_at.calls": "count",
    "polycore.sign_at.self_ms": "ms",
    "polycore.divmod.self_ms": "ms",
    "polycore.max_coeff_bits": "bits",
    "realroots.isolate.calls": "count",
    "realroots.isolate.self_ms": "ms",
    "realroots.isolate.roots": "count",
    "realroots.isolate.max_degree": "degree",
    "realroots.sign_at_root.calls": "count",
    "realroots.sign_at_root.self_ms": "ms",
    "realroots.sturm_count.calls": "count",
    "realroots.sturm_count.self_ms": "ms",
    "realroots.root_count.ms": "ms",
    "realroots.compare_roots.calls": "count",
    "realroots.compare_roots.self_ms": "ms",
    "rootlocus.normalize.self_ms": "ms",
    "rootlocus.events.self_ms": "ms",
    "rootlocus.breakaway.calls": "count",
    "rootlocus.breakaway.self_ms": "ms",
    "rootlocus.breakaway.points": "count",
    "rootlocus.breakaway.standard_ratio": "ratio",
    "rootlocus.gain_compare.calls": "count",
    "rootlocus.gain_compare.self_ms": "ms",
    "shapiro.build.self_ms": "ms",
    "shapiro.classify.ms": "ms",
    "shapiro.classify.self_ms": "ms",
    "shapiro.actual_verdict.ms": "ms",
    "shapiro.gamma_share": "ratio",
    "harness.find_class_example.calls": "count",
    "harness.find_class_example.ms": "ms",
    "mem.cache_entries": "count",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed case)."""


# ---------------------------------------------------------------------------
# Jobs and workers
# ---------------------------------------------------------------------------

def job_for(w: Workload, seed: int, k: int, trace: bool, spans_file: str | None = None) -> dict:
    """Job for block k.  Warm-up cases come from negative indices, disjoint
    from the timed corpus and from every other block's warm-up."""
    warmup = [-(k * w.warmup + j + 1) for j in range(w.warmup)]
    job = {"kind": w.kind, "degrees": list(w.degrees), "bound": w.bound,
           "warmup": warmup, "trace": trace, "spans_file": spans_file}
    if w.kind == "fuzz":
        job.update(recipe=w.recipe, seed=seed, cases=list(range(k * w.block, (k + 1) * w.block)))
    else:
        # Report k searches with its own seed, so no two reports of a run
        # classify the same targeted polynomials; report 0 uses the run seed.
        job.update(seed=seed + 7919 * k, budget=w.budget)
    return job


def run_worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run's time limit ({RUN_LIMIT_S} s)") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# Correctness: stored digests at the default seed
# ---------------------------------------------------------------------------

def case_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:8]


def corpus_texts(w: Workload, seed: int) -> list[str]:
    return [case_text(w.recipe, w.degrees, w.bound, seed, i) for i in range(w.blocks * w.block)]


def digest_matches(w: Workload, k: int, lines: list[str], stored: dict) -> list[bool]:
    """Per entry of block k: whether it equals the stored record."""
    if w.kind == "fuzz":
        expected = stored["case_digests"][k]
        return [case_digest(line) == expected[8 * i:8 * i + 8] for i, line in enumerate(lines)]
    expected = stored["report"]
    return [i < len(expected) and line == expected[i] for i, line in enumerate(lines)]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def stratum(line: str) -> str:
    """"degree/label" of a fuzz case line (the degree is the comma count)."""
    text, label = line.split("|")[:2]
    return f"{text.count(',')}/{label}"


def case_weights(strata: list[str], mix: dict[str, float]) -> list[float]:
    """Weights, summing to 1, under which each stratum present in the run
    counts with its share of the recorded corpus.

    Degrees are balanced by construction, but the class mix of a few hundred
    cases varies from seed to seed, and classes differ in cost by up to 40x.
    Weighting by the recorded mix measures every seed on the same mix.  A
    stratum the record never saw gets weight 0 (it is rare by definition).
    """
    counts = Counter(strata)
    total = sum(mix.get(s, 0.0) for s in counts)
    if total == 0:
        raise BenchError("no case of this run falls in a recorded stratum")
    return [mix.get(s, 0.0) / total / counts[s] for s in strata]


def weighted_quantile(values: list[float], weights: list[float], q: float) -> float:
    acc = 0.0
    for value, weight in sorted(zip(values, weights)):
        acc += weight
        if acc >= q:
            return value
    return max(values)


def end_to_end(w: Workload, results: list[dict], mix: dict[str, float] | None,
               ) -> tuple[dict, dict]:
    if w.kind == "fuzz":
        lat_ms = [ns / 1e6 for r in results for ns in r["lat_ns"]]
        weights = case_weights([stratum(line) for r in results for line in r["lines"]], mix)
    else:
        # The case of coverage-search is one whole report: a label answered
        # from a fixture takes milliseconds and a searched one seconds, so
        # per-label latency mostly tells which labels have fixtures.
        lat_ms = [r["report_s"] * 1e3 for r in results]
        weights = [1 / len(lat_ms)] * len(lat_ms)
    mean_ms = sum(t * wt for t, wt in zip(lat_ms, weights))
    p90 = weighted_quantile(lat_ms, weights, 0.9)
    values = {
        "cases_per_s": 1e3 / mean_ms,
        "case_ms_p50": weighted_quantile(lat_ms, weights, 0.5),
        "case_ms_p90": p90,
        # A fuzz report is one worker's block; at the weighted rate it takes
        # block / cases_per_s.  A coverage report is measured directly.
        "report_s": (w.block * mean_ms / 1e3 if w.kind == "fuzz"
                     else statistics.median(lat_ms) / 1e3),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
    }
    info = {"samples": len(lat_ms), "beyond_p90": sum(t > p90 for t in lat_ms),
            "unweighted": sum(wt == 0 for wt in weights),
            "raw_cases_per_s": len(lat_ms) / (sum(lat_ms) / 1e3)}
    return values, info


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    summaries = [r["trace"] for r in traced]
    values: dict[str, float] = {}
    for group in GROUPS:
        values[f"{group}.calls"] = sum(s["groups"][group]["calls"] for s in summaries)
        values[f"{group}.self_ms"] = sum(s["groups"][group]["self_ns"] for s in summaries) / 1e6
        values[f"{group}.ms"] = sum(s["groups"][group]["ns"] for s in summaries) / 1e6
    for group in CACHED_GROUPS:
        hits = sum(r["cache_end"][group][0] - r["cache_start"][group][0] for r in traced)
        misses = sum(r["cache_end"][group][1] - r["cache_start"][group][1] for r in traced)
        values[f"{group}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    points = sum(s["breakaway_points"] for s in summaries)
    classify_calls = values["shapiro.classify.calls"]
    case_ns = sum(sum(r["lat_ns"]) for r in traced)
    values.update({
        "polycore.max_coeff_bits": max(s["max_coeff_bits"] for s in summaries),
        "realroots.isolate.roots": sum(s["roots"] for s in summaries),
        "realroots.isolate.max_degree": max(s["max_degree"] for s in summaries),
        "rootlocus.breakaway.points": points,
        "rootlocus.breakaway.standard_ratio":
            sum(s["breakaway_standard"] for s in summaries) / points if points else 0.0,
        "shapiro.gamma_share": sum(n for s in summaries for label, n in s["labels"].items()
                                   if label.startswith("Gamma")) / classify_calls
        if classify_calls else 0.0,
        "mem.cache_entries": statistics.median(r["cache_entries"] for r in traced),
        "trace.overhead_ratio": case_ns / sum(sum(r["lat_ns"]) for r in untraced),
    })
    for layer in LAYERS:
        values[f"{layer}.self_share"] = sum(s["layers_self_ns"][layer] for s in summaries) / case_ns
    return {name: values[name] for name in PER_LAYER_UNITS}, sorted(set(summaries[0]["absent"]))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def check_results(w: Workload, blocks: list[tuple[int, dict]], stored: dict | None,
                  ) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over the decided blocks.  An entry fails
    when the worker found it wrong or, at the default seed, when it differs
    from the stored record."""
    attempted = failed = 0
    messages = []
    for k, r in blocks:
        ok = r["ok"]
        messages.extend(r["errors"][:3])
        if stored is not None:
            matches = digest_matches(w, k, r["lines"], stored)
            if not all(matches):
                messages.append(f"block {k}: {matches.count(False)} entries differ from the stored record")
            ok = [a and b for a, b in zip(ok, matches)]
        attempted += len(ok)
        failed += ok.count(False)
    return attempted, failed, messages


def stored_for(w: Workload, path: Path) -> dict:
    """The workload's record; at the default seed its corpus digest is checked."""
    stored = json.loads(path.read_text()).get(w.name) if path.exists() else None
    if stored is None:
        raise BenchError(f"{path} has no record for {w.name}; run with --record")
    if w.kind == "fuzz" and corpus_digest(corpus_texts(w, w.default_seed)) != stored["corpus_sha256"]:
        raise BenchError("the generated corpus differs from the recorded corpus digest")
    return stored


def timed_run(w: Workload, seed: int, seconds: float, deadline: float) -> list[tuple[int, dict]]:
    start = time.monotonic()
    done = []
    for k in range(w.blocks):
        if len(done) >= MIN_WORKERS and time.monotonic() - start >= seconds:
            break
        done.append((k, run_worker(job_for(w, seed, k, False), deadline)))
    return done


def trace_run(w: Workload, seed: int, deadline: float) -> tuple[list, list]:
    untraced, traced = [], []
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for k in range(w.trace_blocks):
        untraced.append((k, run_worker(job_for(w, seed, k, False), deadline)))
        spans = trace_dir / f"{w.name}-seed{seed}-block{k}.tsv"
        traced.append((k, run_worker(job_for(w, seed, k, True, str(spans)), deadline)))
    return untraced, traced


def print_metrics(values: dict, units: dict) -> None:
    width = max(len(n) for n in values)
    for name, value in values.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")


def bench(w: Workload, seed: int, seconds: float, trace: bool, record_path: Path) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    stored = stored_for(w, record_path)
    if trace:
        untraced, traced = trace_run(w, seed, deadline)
        blocks = untraced + traced
        values, absent = per_layer([r for _, r in traced], [r for _, r in untraced])
        units = PER_LAYER_UNITS
    else:
        blocks = timed_run(w, seed, seconds, deadline)
        values, info = end_to_end(w, [r for _, r in blocks], stored.get("strata"))
        units = END_TO_END_UNITS
    digests = stored if seed == w.default_seed else None
    attempted, failed, messages = check_results(w, blocks, digests)
    histogram = Counter(line.split("|")[1] if w.kind == "fuzz" else line.split("|")[0]
                        for _, r in blocks for line in r["lines"]
                        if w.kind == "fuzz" or "NOT_FOUND" not in line)

    mode = "traced" if trace else "untraced"
    print(f"{w.name} seed {seed} ({mode}): {len(blocks)} workers, {attempted} cases, {failed} failed"
          f"{' (digest checked)' if digests is not None else ''}")
    if not trace:
        print(f"  latency samples {info['samples']}, beyond p90 {info['beyond_p90']}"
              + (f", outside recorded strata {info['unweighted']}, "
                 f"unweighted cases_per_s {info['raw_cases_per_s']:.6g}" if w.kind == "fuzz" else ""))
    else:
        print(f"  absent names: {', '.join(absent) if absent else 'none'}")
    print(f"  classes: {dict(sorted(histogram.items()))}")
    print_metrics(values, units)
    print(f"  fail_ratio  {failed / attempted if attempted else 1.0:.6g} ratio")
    for message in messages[:10]:
        print(f"  FAIL {message}")
    correct = failed == 0 and attempted > 0
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Recording the frozen workloads
# ---------------------------------------------------------------------------

def record(record_path: Path, names: list[str]) -> int:
    """Decide every block of each named workload at its default seed and store
    the per-case digests, the class mix and the layer shares of a traced run."""
    out = json.loads(record_path.read_text()) if record_path.exists() else {}
    out["_note"] = "Written by `python3 bench/run.py --record`; see bench/README.md."
    for w in (WORKLOADS[name] for name in names):
        deadline = time.monotonic() + 3600
        entry = {"why": w.why, "default_seed": w.default_seed, "degrees": list(w.degrees),
                 "bound": w.bound, "layer_map": w.layer_map}
        if w.kind == "fuzz":
            blocks = [(k, run_worker(job_for(w, w.default_seed, k, False), deadline))
                      for k in range(w.blocks)]
            entry.update(recipe=w.recipe, cases=w.blocks * w.block,
                         corpus_sha256=corpus_digest(corpus_texts(w, w.default_seed)),
                         case_digests=["".join(case_digest(line) for line in r["lines"])
                                       for _, r in blocks])
            labels = Counter(line.split("|")[1] for _, r in blocks for line in r["lines"])
            strata = Counter(stratum(line) for _, r in blocks for line in r["lines"])
            entry["strata"] = {k: n / sum(strata.values()) for k, n in sorted(strata.items())}
        else:
            blocks = [(0, run_worker(job_for(w, w.default_seed, 0, False), deadline))]
            entry.update(budget=w.budget, report=blocks[0][1]["lines"])
        failed = sum(r["ok"].count(False) for _, r in blocks)
        if failed:
            print(f"{w.name}: {failed} failed cases; nothing recorded", file=sys.stderr)
            return 1
        untraced, traced = trace_run(w, w.default_seed, deadline)
        if w.kind == "coverage":
            # The mix of what the search classified, repeats included.
            labels = Counter()
            for _, r in traced:
                labels.update(r["trace"]["labels"])
        total = sum(labels.values())
        entry["class_mix"] = {label: round(n / total, 4) for label, n in sorted(labels.items())}
        layer_values, _ = per_layer([r for _, r in traced], [r for _, r in untraced])
        entry["layer_shares"] = {layer: round(layer_values[f"{layer}.self_share"], 4)
                                 for layer in LAYERS}
        entry["gamma_share"] = round(layer_values["shapiro.gamma_share"], 4)
        out[w.name] = entry
        print(f"{w.name}: recorded; class mix over {total} classifications; "
              f"layer shares {entry['layer_shares']}")
    record_path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="corpus seed (default: the workload's stored seed)")
    parser.add_argument("--seconds", type=float, default=35.0, help="timed wall seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record bench/workloads.json (all workloads, or --workload)")
    parser.add_argument("--record-file", type=Path, default=RECORD,
                        help="record file to check against (the self-test passes a tampered copy)")
    args = parser.parse_args(argv)
    try:
        if args.record:
            return record(args.record_file, [args.workload] if args.workload else list(WORKLOADS))
        if args.workload is None:
            parser.error("--workload is required")
        w = WORKLOADS[args.workload]
        seed = w.default_seed if args.seed is None else args.seed
        return bench(w, seed, args.seconds, bool(args.trace), args.record_file)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
