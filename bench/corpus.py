"""Frozen, seeded input recipes for the benchmark's fuzz workloads.

The recipes are the uniform and positive-only strategies of
``shapiro12.harness``, kept here so that a change to the harness cannot change
what the benchmark measures.  One difference is deliberate: case ``i`` has
degree ``degrees[i % len(degrees)]`` instead of a random even degree, so every
block of consecutive cases carries the same degree mix and the cost per case
varies less between seeds.  The program only ever receives the coefficient
text of each case.
"""

from __future__ import annotations

import hashlib
import random


def _case_rng(stream: str, seed: int, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so the stream is the same on every
    # platform and Python version that keeps random's version-2 seeding.
    return random.Random(f"{stream}/{seed}/{index}")


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def uniform_coeffs(rng: random.Random, degree: int, bound: int) -> list[int]:
    """Coefficients uniform in [-bound, bound], non-zero leading coefficient."""
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    lead = rng.randint(1, bound) * rng.choice((-1, 1))
    return coeffs + [lead]


def positive_only_coeffs(rng: random.Random, degree: int, bound: int) -> list[int]:
    """Product of monic irreducible quadratics x^2 + b x + c: no real zeros."""
    p = [1]
    for _ in range(degree // 2):
        while True:
            b = rng.randint(-bound, bound)
            c_min = b * b // 4 + 1
            if c_min <= bound:
                break
        c = rng.randint(c_min, bound)
        p = _mul(p, [c, b, 1])
    return p


RECIPES = {"uniform": uniform_coeffs, "positive_only": positive_only_coeffs}


#: Warm-up cases use this seed and negative indices whatever the run's seed,
#: so warm-up costs the same on every seed.  Workers skip a warm-up case that
#: equals one of their timed cases.
WARMUP_SEED = 0


def case_text(recipe: str, degrees: tuple[int, int], bound: int,
              seed: int, index: int) -> str:
    """Ascending coefficient text of case ``index`` of the seed's stream."""
    lo, hi = degrees
    tier = list(range(lo, hi + 1, 2))
    rng = _case_rng(recipe, seed, index)
    coeffs = RECIPES[recipe](rng, tier[index % len(tier)], bound)
    return ",".join(str(c) for c in coeffs)


def corpus_digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()
