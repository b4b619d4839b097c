"""The names the benchmark's tracer wraps are still called, with the same
signatures, and tracing does not change what the program prints.

perfbench/layers.py replaces module-global names (engine.rank_mod_p,
engine.snf, ...) with counting wrappers.  A layer that stops calling its
wrapped name reads 0 calls, and a wrapper whose observer no longer matches
the call's arguments raises; both are caught here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPANS = (
    "coxeter_complex.min_coset_reps",
    "exact_linalg.product_is_zero",
    "coxeter_complex.build_complex",
    "exact_linalg.snf",
    "exact_linalg.rank_mod_p",
    "homology_engine.calibrate",
    "surface_rep.build_rep",
    "homology_engine.cache.load",
    "homology_engine.cache.store",
)


ROWS_SPANS = (
    "coxeter_complex.build_complex",
    "exact_linalg.snf",
    "exact_linalg.product_is_zero",
    "coxeter_complex.min_coset_reps",
)


def _pass(tmp_path: Path, name: str, traced: bool, args: list[str]):
    trace = tmp_path / f"trace-{name}.json"
    command = [sys.executable, str(ROOT / "perfbench" / "passes.py")]
    if traced:
        command += ["--trace-out", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(command + args, capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    return proc, (json.loads(trace.read_text()) if traced else None)


def _verify_pass(tmp_path: Path, name: str, traced: bool):
    return _pass(tmp_path, name, traced,
                 ["cli", "verify", "--window", "2:4,3:4,6:4",
                  "--cache-dir", str(tmp_path / f"cache-{name}"),
                  "--format", "json"])


def _assert_same_output(plain, traced):
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    assert plain.stdout
    assert "Traceback" not in plain.stderr
    assert "Traceback" not in traced.stderr


def test_traced_verify_matches_untraced_and_reaches_every_span(tmp_path):
    plain, _ = _verify_pass(tmp_path, "plain", traced=False)
    traced, report = _verify_pass(tmp_path, "traced", traced=True)
    _assert_same_output(plain, traced)
    missing = [s for s in SPANS if report["calls"].get(s, 0) <= 0]
    assert not missing, f"spans never called: {missing}"


def test_traced_rows_match_untraced_and_reach_the_row_spans(tmp_path):
    """The rows pass is the path of the stretch workload: an integral row
    computed directly, with the boundary observer reading nnz and max_abs
    of every boundary the engine builds."""
    plain, _ = _pass(tmp_path, "rows-plain", False, ["rows", "2", "6"])
    traced, report = _pass(tmp_path, "rows-traced", True, ["rows", "2", "6"])
    _assert_same_output(plain, traced)
    assert plain.returncode == 0
    missing = [s for s in ROWS_SPANS if report["calls"].get(s, 0) <= 0]
    assert not missing, f"spans never called: {missing}"
    assert report["counts"]["coxeter_complex.boundary.nnz"] > 0
