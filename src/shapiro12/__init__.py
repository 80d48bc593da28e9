"""Exact analyzer for Shapiro's conjecture on delta = (n-1)(p')^2 - n*p*p''.

Classifies any real polynomial of even degree into one of thirteen classes by
real-axis root-locus analysis of p''*p/(p')^2, predicts from the class alone
whether delta and p have a real zero between them, and verifies the
prediction by exact Sturm counting.
"""

from .polycore import (
    Polynomial,
    format_polynomial,
    from_coefficients,
    parse_polynomial,
)
from .realroots import (
    IsolatedRoot,
    IsolatingInterval,
    RootCount,
    compare_roots,
    isolate_real_roots,
    order_roots,
    refine,
    root_count,
    sign_at_root,
    sturm_count,
)
from .rootlocus import (
    AxisEvent,
    AxisSegment,
    BreakawayPoint,
    Comparison,
    EventKind,
    Extremum,
    Parity,
    RationalFunctionOnAxis,
    axis_events,
    axis_segments,
    breakaway_points,
    gain_at,
    gain_derivative_numerator,
    normalize,
)
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
    delta_sign_shortcut,
    predict_verdict,
)
from .harness import FIXTURES, FuzzConfig, FuzzSummary, Strategy, find_class_example, run_fuzz

__version__ = "0.1.0"

__all__ = [
    "Polynomial", "from_coefficients", "parse_polynomial", "format_polynomial",
    "IsolatingInterval", "IsolatedRoot", "RootCount", "sturm_count",
    "isolate_real_roots", "refine", "sign_at_root", "order_roots",
    "compare_roots", "root_count",
    "RationalFunctionOnAxis", "AxisEvent", "AxisSegment", "BreakawayPoint",
    "EventKind", "Parity", "Extremum", "Comparison", "normalize",
    "axis_events", "axis_segments", "gain_at", "gain_derivative_numerator",
    "breakaway_points",
    "ShapiroInstance", "ClassLabel", "Verdict", "Evidence", "ActualVerdict",
    "DeltaIdenticallyZeroError", "build", "classify", "predict_verdict",
    "actual_verdict", "delta_sign_shortcut",
    "FuzzConfig", "FuzzSummary", "Strategy", "run_fuzz", "find_class_example",
    "FIXTURES",
    "__version__",
]
