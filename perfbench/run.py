"""Benchmark of superbraid: fixed workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify_cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it runs the program from ``src/``.
Every timed pass is a fresh interpreter, so the program's process-wide memo
tables start empty, as they do for every command-line user.  The workloads,
their checks and what they leave out are described in perfbench/README.md.

With ``--trace 0`` the result line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from passes whose layer entry points are wrapped (layers.py), and the
tracing overhead against untraced passes of the same run.  The line before
the result holds details: versions, seed, pass times, check messages.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layers import MAX_BITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A reduced verify window: every d and every check kind of the default
# window 2:10,3:10,4:9,5:9,6:8, small enough for several passes per run.
# d = 4 reaches n = 8, where the two documented golden-table cells are.
WINDOW = "2:8,3:7,4:8,5:6,6:6"
# Table cells delivered by one verify pass: rows n = 1..n_max for each d,
# over Z, F_2, F_3 and F_5.
VERIFY_CELLS = 4 * sum(n * (n + 1) // 2 for n in (8, 7, 8, 6, 6))
DOCUMENTED_FAILURE = "golden-table d=4"
DOCUMENTED_CELLS = [(8, 4), (8, 5)]
STRETCH_D = 2
STRETCH_ROWS = (11, 12)
IMPORT_SAMPLES = 5
PASS_TIMEOUT_S = 100

_CELL = re.compile(r"\(n=(\d+), i=(\d+)\)")


@dataclass
class Pass:
    wall_s: float
    rc: int
    stdout: bytes
    stderr: bytes
    rss_mb: float
    trace: dict | None


class Checks:
    def __init__(self):
        self.attempted = 0
        self.messages = []

    def expect(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.messages.append(message)


def pinned_env() -> dict:
    """The environment of every pass: no ambient superbraid settings."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SUPERBRAID_")}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def versions() -> dict:
    out = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


class Bench:
    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.env = pinned_env()
        self.checks = Checks()
        self._spawned = 0

    def spawn(self, argv: list[str], trace_file: Path | None = None) -> Pass:
        self._spawned += 1
        out_path = self.work / f"out-{self._spawned}"
        err_path = self.work / f"err-{self._spawned}"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        trace = None
        if trace_file is not None and trace_file.exists():
            trace = json.loads(trace_file.read_text())
        return Pass(wall, proc.returncode, out_path.read_bytes(),
                    err_path.read_bytes(), usage.ru_maxrss / 1024, trace)

    def run_pass(self, kind: str, args: list[str], traced: bool) -> Pass:
        """One pass: ``cli`` runs the command line, ``rows`` the row API."""
        if kind == "cli" and not traced:
            return self.spawn([sys.executable, "-m", "superbraid.cli.main",
                               *args])
        argv = [sys.executable, str(HERE / "passes.py")]
        trace_file = None
        if traced:
            trace_file = self.work / f"trace-{self._spawned + 1}.json"
            argv += ["--trace-out", str(trace_file)]
        return self.spawn(argv + [kind, *args], trace_file)

    def import_s(self) -> float:
        """Median time to start an interpreter and import the program."""
        walls = []
        for _ in range(IMPORT_SAMPLES):
            p = self.spawn([sys.executable, "-c", "import superbraid.cli.main"])
            self.checks.expect(p.rc == 0, f"import failed: {p.stderr[-500:]!r}")
            walls.append(p.wall_s)
        return statistics.median(walls)

    def timed(self, seconds: float, run_one) -> list[Pass]:
        """Passes for about ``seconds``, each a fresh interpreter.

        A pass starts when it should end less than half a pass after the
        deadline.  Traced runs alternate traced and untraced passes,
        starting traced, and make at least one of each.
        """
        deadline = time.perf_counter() + seconds
        need = 2 if self.trace else 1
        passes = [run_one(self.trace)]
        while len(passes) < need or (
                time.perf_counter() + passes[-1].wall_s / 2 < deadline):
            passes.append(run_one(self.trace and len(passes) % 2 == 0))
        return passes


def verify_problem(p: Pass) -> str | None:
    """Why a verify pass is not the documented outcome, or None."""
    if p.rc != 1:
        return f"exit code {p.rc}, expected 1; stderr {p.stderr[-300:]!r}"
    try:
        report = json.loads(p.stdout)
    except ValueError:
        return "stdout is not JSON"
    if report.get("failures") != [DOCUMENTED_FAILURE]:
        return f"failures {report.get('failures')}, expected [{DOCUMENTED_FAILURE!r}]"
    (golden,) = [c for c in report["checks"] if c["name"] == DOCUMENTED_FAILURE]
    cells = [_CELL.match(v) for v in golden["violations"]]
    found = [tuple(map(int, m.groups())) if m else None for m in cells]
    if found != DOCUMENTED_CELLS:
        return f"golden-table d=4 violations at {found}, expected {DOCUMENTED_CELLS}"
    return None


def check_verify(checks: Checks, passes: list[Pass], label: str):
    for p in passes:
        why = verify_problem(p)
        checks.expect(why is None, f"{label}: {why}")


def check_rows(checks: Checks, p: Pass, n: int):
    """Every printed reference cell of stretch row n matches."""
    from superbraid.cli.fixtures import UNKNOWN, fixture
    from superbraid.exact_linalg import AbelianGroup

    checks.expect(p.rc == 0, f"row n={n}: exit code {p.rc}: {p.stderr[-300:]!r}")
    try:
        row = json.loads(p.stdout).get(str(n), [])
    except ValueError:
        row = []
    checks.expect(len(row) == n, f"row n={n} has {len(row)} degrees")
    fix = fixture(STRETCH_D)
    for i, (rank, torsion) in enumerate(row):
        printed = fix.cell(n, i)
        if printed is None or printed is UNKNOWN:
            continue
        got = AbelianGroup.from_divisors(rank, torsion)
        checks.expect(got == printed,
                      f"(n={n}, i={i}): computed {got.describe()}, "
                      f"reference has {printed.describe()}")


@dataclass
class Outcome:
    passes: list[Pass]
    setup_s: float
    cells: int
    details: dict
    setup_trace: dict | None = None


def verify_cmd(*extra: str) -> list[str]:
    return ["verify", "--format", "json", "--window", WINDOW, *extra]


def verify_cold(b: Bench, seed: int, seconds: float) -> Outcome:
    setup = 0.0 if b.trace else b.import_s()
    passes = b.timed(seconds, lambda traced: b.run_pass(
        "cli", verify_cmd(), traced))
    check_verify(b.checks, passes, "verify_cold")
    for p in passes[1:]:
        b.checks.expect(p.stdout == passes[0].stdout,
                        "verify_cold: stdout differs between cold passes")
    return Outcome(passes, setup, VERIFY_CELLS, {"window": WINDOW})


def verify_warm(b: Bench, seed: int, seconds: float) -> Outcome:
    cmd = verify_cmd("--cache-dir", str(b.work / "cache"))
    setup = 0.0 if b.trace else b.import_s()
    cold = b.run_pass("cli", cmd, b.trace)
    check_verify(b.checks, [cold], "verify_warm cold run")
    passes = b.timed(seconds, lambda traced: b.run_pass("cli", cmd, traced))
    check_verify(b.checks, passes, "verify_warm rerun")
    for p in passes:
        b.checks.expect(
            p.rc == cold.rc and p.stdout == cold.stdout,
            "verify_warm: rerun stdout is not byte-identical to the cold "
            "run's" + first_difference(cold.stdout, p.stdout))
    walls = sorted(p.wall_s for p in passes)
    details = {"window": WINDOW, "cold_run_s": cold.wall_s,
               "rerun_p50_s": statistics.median(walls), "reruns": len(walls)}
    if len(walls) >= 11:
        # Highest percentile with at least ten reruns beyond it.
        k = len(walls) - 11
        details["rerun_tail"] = {"percentile": 100 * (k + 1) / len(walls),
                                 "value_s": walls[k], "samples": len(walls)}
    return Outcome(passes, setup + cold.wall_s, VERIFY_CELLS, details,
                   cold.trace)


def verify_fill(b: Bench, seed: int, seconds: float) -> Outcome:
    """The verify_cold command, each pass writing a cache of its own.

    The output must be byte-identical to a run without a cache, made
    before the timed part and not counted in any metric.
    """
    setup = 0.0 if b.trace else b.import_s()
    reference = b.run_pass("cli", verify_cmd(), False)
    check_verify(b.checks, [reference], "verify_fill reference run")
    fresh = itertools.count()

    def fill(traced: bool) -> Pass:
        cache = b.work / f"cache-{next(fresh)}"
        p = b.run_pass("cli", verify_cmd("--cache-dir", str(cache)), traced)
        b.checks.expect(any(cache.glob("*.json")),
                        f"verify_fill: the pass wrote nothing to {cache.name}")
        return p

    passes = b.timed(seconds, fill)
    check_verify(b.checks, passes, "verify_fill")
    for p in passes:
        b.checks.expect(
            p.rc == reference.rc and p.stdout == reference.stdout,
            "verify_fill: stdout with a fresh cache differs from stdout "
            "without one" + first_difference(reference.stdout, p.stdout))
    return Outcome(passes, setup, VERIFY_CELLS, {"window": WINDOW})


def first_difference(a: bytes, b: bytes) -> str:
    lines = zip(a.decode(errors="replace").splitlines(),
                b.decode(errors="replace").splitlines())
    for x, y in lines:
        if x != y:
            return f" (cold: {x.strip()!r}, warm: {y.strip()!r})"
    return ""


def stretch_d2(b: Bench, seed: int, seconds: float) -> Outcome:
    order = random.Random(seed).sample(STRETCH_ROWS, len(STRETCH_ROWS))
    sys.path.insert(0, str(SRC))  # the reference tables, for the check

    def rows(traced: bool) -> Pass:
        # One interpreter per row, so a row does not inherit the memo
        # tables (and the peak memory) of the row before it.
        parts = []
        for n in order:
            p = b.run_pass("rows", [str(STRETCH_D), str(n)], traced)
            check_rows(b.checks, p, n)
            parts.append(p)
        return Pass(sum(p.wall_s for p in parts),
                    max((p.rc for p in parts), key=abs),
                    b"".join(p.stdout for p in parts), b"",
                    max(p.rss_mb for p in parts),
                    merge_traces([p.trace for p in parts]) if traced else None)

    setup = 0.0 if b.trace else b.import_s()
    passes = b.timed(seconds, rows)
    return Outcome(passes, setup, sum(order), {"rows": order})


def merge_traces(traces: list[dict]) -> dict:
    """One trace for passes that ran in separate interpreters."""
    out = {}
    for part in ("calls", "self_s", "total_s", "counts", "distinct"):
        merged = {}
        for trace in traces:
            for key, value in trace[part].items():
                if key == MAX_BITS:
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        out[part] = merged
    return out


WORKLOADS = {"verify_cold": verify_cold, "stretch_d2": stretch_d2,
             "verify_fill": verify_fill, "verify_warm": verify_warm}

_LAYERS = ("coxeter_complex.min_coset_reps", "coxeter_complex.build_complex",
           "exact_linalg.product_is_zero", "exact_linalg.snf",
           "exact_linalg.rank_mod_p", "homology_engine.calibrate",
           "surface_rep.build_rep", "homology_engine.cache.load",
           "homology_engine.cache.store")
# Counts taken from return values; missing ones were never incremented.
_COUNTS = ("coxeter_complex.boundary.nnz", MAX_BITS,
           "exact_linalg.snf.unit_divisors", "exact_linalg.snf.nonunit_divisors",
           "exact_linalg.rank_mod_p.cells", "homology_engine.cache.load.hits",
           "homology_engine.cache.load.bytes",
           "homology_engine.cache.store.bytes")
# Timed layer metrics; every other one is a count that repeats exactly.
_TIMES = ("self_s", "total_s")


def layer_metrics(trace: dict) -> dict:
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    m = {}
    for name in _LAYERS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["homology_engine.calibrate.total_s"] = trace["total_s"].get(
        "homology_engine.calibrate", 0.0)
    for name in _COUNTS:
        m[name] = counts.get(name, 0)
    reps = m["coxeter_complex.min_coset_reps.calls"]
    distinct = trace["distinct"].get("coxeter_complex.min_coset_reps", 0)
    m["coxeter_complex.min_coset_reps.reuse_ratio"] = (
        (reps - distinct) / reps if reps else 0.0)
    builds = m["coxeter_complex.build_complex.calls"]
    distinct = trace["distinct"].get("coxeter_complex.build_complex", 0)
    m["coxeter_complex.build_complex.builds_per_distinct"] = (
        builds / distinct if distinct else 0.0)
    m["homology_engine.cache.load.misses"] = (
        m["homology_engine.cache.load.calls"]
        - m["homology_engine.cache.load.hits"])
    return m


def per_layer(b: Bench, out: Outcome) -> dict:
    traced = [p for p in out.passes if p.trace is not None]
    plain = [p for p in out.passes if p.trace is None]
    runs = [layer_metrics(p.trace) for p in traced]
    metrics = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        if name.endswith(_TIMES):
            metrics[name] = statistics.median(values)
        else:
            b.checks.expect(len(set(values)) == 1,
                            f"count {name} differs between passes: {values}")
            metrics[name] = values[0]
    if out.setup_trace is not None:
        # Only the cache-filling set-up run stores; the reruns only load.
        cold = layer_metrics(out.setup_trace)
        for name, value in cold.items():
            if name.startswith("homology_engine.cache.store."):
                metrics[name] = value
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in plain))
    return metrics


def end_to_end(out: Outcome) -> dict:
    wall = statistics.median(p.wall_s for p in out.passes)
    return {"wall_s": wall, "cells_per_s": out.cells / wall,
            "setup_s": out.setup_s,
            "peak_rss_mb": statistics.median(p.rss_mb for p in out.passes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superbraid" / "cli" / "main.py").is_file():
        print(f"perfbench: no superbraid sources under {SRC}; run it from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".run-") as work:
        bench = Bench(Path(work), bool(args.trace))
        out = WORKLOADS[args.workload](bench, args.seed, args.seconds)
        values = per_layer(bench, out) if args.trace else end_to_end(out)
    if set(values) != set(wanted):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(wanted))} "
                         "disagree with BENCHMARK.json")
    checks = bench.checks
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "versions": versions(),
               "pass_walls_s": [p.wall_s for p in out.passes],
               "traced_passes": sum(p.trace is not None for p in out.passes),
               **out.details, "check_failures": checks.messages[:10]}
    for message in checks.messages[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not checks.messages,
        "attempted": checks.attempted,
        "failed": len(checks.messages),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
