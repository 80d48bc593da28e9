"""Self-test of the benchmark's correctness gate.

Tampers with one stored digest entry at a time and checks that the run then
fails (exit code 1, ``"correct": false``), and that the untampered record
passes.  Run from the repository root:

    python3 bench/selftest.py

Scratch files go to ``.bench_out/selftest/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORD = BENCH / "workloads.json"
SCRATCH = ROOT / ".bench_out" / "selftest"


def flip_hex(entry: str) -> str:
    return ("0" if entry[0] != "0" else "1") + entry[1:]


def tampered(kind: str) -> dict:
    record = json.loads(RECORD.read_text())
    if kind == "fuzz":
        digests = record["fuzz-positive"]["case_digests"]
        digests[0] = flip_hex(digests[0])  # first case of block 0
    else:
        report = record["coverage-search"]["report"]
        report[0] = report[0] + "0"  # example text of the first label
    return record


def run(workload: str, record: dict | None) -> tuple[int, dict | None]:
    args = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seconds", "1"]
    if record is not None:
        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / f"{workload}.json"
        path.write_text(json.dumps(record))
        args += ["--record-file", str(path)]
    proc = subprocess.run(args, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main() -> int:
    checks = [
        ("fuzz-positive with its stored digests passes", "fuzz-positive", None, 0),
        ("fuzz-positive with one tampered case digest fails", "fuzz-positive", tampered("fuzz"), 1),
        ("coverage-search with one tampered report entry fails", "coverage-search",
         tampered("coverage"), 1),
    ]
    ok = True
    for title, workload, record, want in checks:
        code, result = run(workload, record)
        good = code == want and result is not None and result["correct"] == (want == 0)
        if want:
            good = good and result["failed"] >= 1
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}: {title} (exit {code}, "
              f"failed {None if result is None else result['failed']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
