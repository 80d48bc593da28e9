"""Exact analyzer for Shapiro's conjecture on delta = (n-1)(p')^2 - n*p*p''.

Classifies any real polynomial of even degree into one of thirteen classes by
real-axis root-locus analysis of p''*p/(p')^2, predicts from the class alone
whether delta and p have a real zero between them, and verifies the
prediction by exact counting: p and delta each by the leaves of its
continued fractions.

The other layers (``polycore``, ``realroots``, ``harness``, ``cli``) are
imported from their own modules; ``shapiro`` also holds the axis analysis of
pp that ``plotdata`` reads.
"""

from .polycore import Polynomial, format_polynomial, parse_polynomial
from .shapiro import (
    ActualVerdict,
    ClassLabel,
    DeltaIdenticallyZeroError,
    Evidence,
    ShapiroInstance,
    Verdict,
    actual_verdict,
    build,
    classify,
    predict_verdict,
)
from .harness import FuzzConfig, find_class_example

__version__ = "0.1.0"

__all__ = [
    "Polynomial", "parse_polynomial", "format_polynomial",
    "ShapiroInstance", "ClassLabel", "Verdict", "Evidence", "ActualVerdict",
    "DeltaIdenticallyZeroError", "build", "classify", "predict_verdict",
    "actual_verdict",
    "FuzzConfig", "find_class_example",
    "__version__",
]
