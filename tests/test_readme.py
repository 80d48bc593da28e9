"""README's Library example runs, and gives the results its comments state."""

import re
from pathlib import Path

from shapiro12.shapiro import ClassLabel, Verdict

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_gives_its_commented_results():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    for comment in ("# ClassLabel.GAMMA_211", "# Verdict.HOLDS",
                    "# counted: HOLDS, 3 real zeros of delta"):
        assert comment in block
    namespace = {}
    exec(block, namespace)
    assert namespace["label"] is ClassLabel.GAMMA_211
    assert namespace["predict_verdict"](namespace["label"]) is Verdict.HOLDS
    outcome = namespace["outcome"]
    assert outcome.verdict is Verdict.HOLDS and outcome.nr_delta.distinct == 3
