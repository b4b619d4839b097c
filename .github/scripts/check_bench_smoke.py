"""Run every benchmark workload once, plain and traced, and pass only if
each run's own output checks held.

    python .github/scripts/check_bench_smoke.py

For each workload named in BENCHMARK.json and for --trace 0 and 1, runs
``perfbench/run.py --workload W --seconds 0 --trace T`` from the root of
the checkout and reads the last line it prints.  Exits 0 when every run
exited 0 and its last line is JSON with "correct": true and "failed": 0;
otherwise it names each failed run and exits 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(stdout: str) -> str | None:
    """None when the last line of a run's stdout reports a correct run with
    no failed check, else the reason it does not."""
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
    except ValueError:
        return f"last line is not JSON: {last[:200]!r}"
    if not isinstance(result, dict):
        return f"last line is not a JSON object: {last[:200]!r}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return (f"correct={result.get('correct')!r}, "
                f"failed={result.get('failed')!r}")
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            problem = verdict(run.stdout)
            if run.returncode != 0:
                problem = f"exit {run.returncode}: {run.stderr.strip()[-500:]}"
            print(f"{workload} --trace {trace}: {problem or 'correct'}")
            failed += problem is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
