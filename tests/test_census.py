"""An exhaustive census: every p of two small coefficient boxes, decided by
both routes.

A box holds every p of its degree with leading coefficient in ``1..b`` and
the other coefficients in ``-b..b`` (``-p`` has the label and verdict of
``p``). Unlike a seeded sample, it holds every small multiple root, rational
root and ``delta = 0`` case. Each box is closed under ``x -> -x``, which swaps
Gamma211 and Gamma22 and keeps every other label, so those two counts must be
equal. ``tests/test_golden.py`` pins the class table by its digest.
"""

import functools
import itertools
from collections import Counter

from shapiro12.polycore import from_coefficients
from shapiro12.shapiro import (
    ClassLabel,
    DeltaIdenticallyZeroError,
    Verdict,
    actual_verdict,
    build,
    classify,
    predict_verdict,
)

#: (degree, b): 3 * 7^4 = 7203 and 1 * 3^6 = 729 polynomials.
BOXES = ((4, 3), (6, 1))


# Cached, so a pytest run that also digests the table in test_golden.py
# decides each box once.
@functools.cache
def census(degree: int, bound: int) -> tuple[Counter, list[str]]:
    """Label counts of the box, with ``delta=0`` counted apart, and the
    texts of the cases whose counted verdict differs from the predicted one."""
    table, disagreements = Counter(), []
    others = [range(-bound, bound + 1)] * degree
    for coeffs in itertools.product(*others, range(1, bound + 1)):
        instance = build(from_coefficients(coeffs))
        label, _ = classify(instance)
        table[label.value] += 1
        try:
            counted = actual_verdict(instance).verdict
        except DeltaIdenticallyZeroError as exc:
            table["delta=0"] += 1
            counted = Verdict.HOLDS if exc.nr_p.distinct > 0 else Verdict.FAILS
        if counted is not predict_verdict(label):
            disagreements.append(",".join(map(str, coeffs)))
    return table, disagreements


def census_table() -> str:
    """One line per box and class, in box order and then sorted by class."""
    return "".join(f"{degree}:{bound} {key} {count}\n"
                   for degree, bound in BOXES
                   for key, count in sorted(census(degree, bound)[0].items()))


def test_every_box_agrees_and_is_mirror_symmetric():
    for degree, bound in BOXES:
        table, disagreements = census(degree, bound)
        assert disagreements == []
        assert sum(table[label.value] for label in ClassLabel) == (2 * bound + 1) ** degree * bound
        assert table[ClassLabel.GAMMA_211.value] == table[ClassLabel.GAMMA_22.value] > 0
