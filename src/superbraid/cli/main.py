"""Command-line front end: compute, verify, export, and cache."""

from __future__ import annotations

import argparse
import csv
import json
import sys

from ..coxeter_complex import CoxeterSpec, build_complex
from ..exact_linalg import CooMatrix, product_is_zero, require_prime
from ..homology_engine import (
    CacheConflictError,
    CalibrationError,
    ResourceLimitError,
    braid_system,
    braid_trivial_homology,
    braid_twisted_homology,
    braid_twisted_rows,
    cache_root,
    calibrate,
    check_type_b_gates,
    compute_table,
    compute_tables,
    parse_coeff,
    verify_covering_iso,
    verify_stability,
    verify_torsion_law,
    verify_uct,
    verify_unstable_free,
)
from ..homology_engine.cache import encode_groups
from ..homology_engine.laws import Report
from ..reference import FIXTURES, UNKNOWN, fixture
from ..series import compare_local, local_series, stable_series
from ..surface_rep import build_rep

GATING_WINDOW = "2:10,3:10,4:9,5:9,6:8"

LOCAL_PRIMES = ((2, 2), (3, 3), (2, 4), (5, 5), (2, 6), (3, 6))

# Every table verify reads: the integral one and the three the laws need.
VERIFY_RINGS = ("z", "f:2", "f:3", "f:5")


def _reasoned(parse):
    """parse as an argparse type whose usage error names the reason."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(
                f"invalid value {text!r}: {err}") from None
    return convert


def _coeff(text: str) -> str:
    parse_coeff(text)
    return text


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{text} is not a positive integer")
    return value


def _window(text: str) -> dict[int, int]:
    out = {}
    if not text.strip():
        return out
    for part in text.split(","):
        try:
            d, n_max = map(int, part.split(":"))
        except ValueError:
            raise ValueError(f"window entry {part!r} is not d:n_max") from None
        if d < 1 or n_max < 1:
            raise ValueError(f"window entry {part!r} needs d >= 1 and "
                             "n_max >= 1")
        if d in out:
            raise ValueError(f"window repeats d = {d}")
        out[d] = n_max
    return out


def _refused(option: str, reason: str) -> int:
    """Report an option the chosen mode would ignore; the usage exit code."""
    print(f"argument {option}: {reason}", file=sys.stderr)
    return 2


def _emit_json(payload: dict):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _poly_text(coefficients, var: str) -> str:
    terms = []
    for i, c in enumerate(coefficients):
        if c == 0:
            continue
        factor = "" if c == 1 and i > 0 else str(c)
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{factor}{var}")
        else:
            terms.append(f"{factor}{var}^{i}")
    return " + ".join(terms) if terms else "0"


def cmd_twist(args) -> int:
    if args.k < 1 or args.k >= args.n:
        print(f"k must be in 1..{args.n - 1}", file=sys.stderr)
        return 2
    if args.d == 1:
        if args.format == "json":
            _emit_json({"n": args.n, "d": 1, "k": args.k,
                        "construction": args.construction, "matrix": []})
        else:
            print("empty matrix (rank-0 module)")
        return 0
    rep = build_rep(args.n, args.d, construction=args.construction,
                    order="left_to_right")
    matrix = rep.generator(args.k).to_dense()
    if args.format == "json":
        _emit_json({"n": args.n, "d": args.d, "k": args.k,
                    "construction": args.construction,
                    "order": "left_to_right", "matrix": matrix})
    else:
        print(json.dumps(matrix))
    return 0


def _group_text(g, coeff: str) -> str:
    kind, p = parse_coeff(coeff)
    if kind == "f":
        return "0" if g.rank == 0 else f"F_{p}^{g.rank}"
    return g.describe()


def cmd_homology(args) -> int:
    if args.trivial:
        for option, value in (("--d", args.d), ("--cache-dir", args.cache_dir)):
            if value is not None:
                return _refused(option, "not allowed with --trivial")
        d = None
        row = braid_trivial_homology(args.n, args.coeff)
        fingerprint = {"module": "trivial"}
    else:
        d = 2 if args.d is None else args.d
        row = braid_twisted_homology(args.n, d, args.coeff, args.cache_dir)
        fingerprint = calibrate(d).fingerprint()
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "d": d,
            "coeff": args.coeff,
            "trivial": args.trivial,
            "fingerprint": fingerprint,
            "groups": encode_groups(row),
        })
    else:
        for i, g in enumerate(row):
            print(f"H_{i} = {_group_text(g, args.coeff)}")
    return 0


def _cell_status(fix, n: int, i: int, computed) -> tuple[str, str | None]:
    printed = None if fix is None else fix.cell(n, i)
    if printed is UNKNOWN:
        return "UNKNOWN", None
    if printed is None:
        return "NOT-IN-REFERENCE", None
    if printed == computed:
        return "MATCH", printed.describe()
    return "MISMATCH", printed.describe()


def cmd_table(args) -> int:
    if args.d == 1:
        cache_root(args.cache_dir)  # an empty path is refused here too
        if args.format == "json":
            _emit_json({"d": 1, "coeff": "z", "cells": [], "mismatches": []})
        elif args.format == "csv":
            print("n,i,rank,torsion")
        else:
            print("empty table (rank-0 coefficients)")
        return 0
    table = compute_table(args.d, args.n_max, cache_dir=args.cache_dir)
    fix = FIXTURES.get(args.d)
    statuses = {}
    cells = []
    mismatches = []
    for n in table.n_values():
        row = table.row(n)
        for g, cell in zip(row, encode_groups(row)):
            i = cell["i"]
            status, printed = statuses[(n, i)] = _cell_status(fix, n, i, g)
            if status == "MISMATCH":
                mismatches.append({"n": n, "i": i, "computed": g.describe(),
                                   "reference": printed})
            cells.append({"n": n, **cell, "status": status})
    if args.format == "json":
        _emit_json({"d": args.d, "coeff": "z",
                    "fingerprint": table.fingerprint, "cells": cells,
                    "mismatches": mismatches})
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "i", "rank", "torsion"])
        for cell in cells:
            writer.writerow([cell["n"], cell["i"], cell["rank"],
                             ";".join(str(q) for q in cell["torsion"])])
    else:
        for n in table.n_values():
            parts = []
            for i in range(n):
                status, printed = statuses[(n, i)]
                text = f"H_{i} = {table.cell(n, i).describe()} [{status}]"
                if status == "MISMATCH":
                    text += f" (reference: {printed})"
                if status == "UNKNOWN":
                    text += " (computed, reference unknown)"
                parts.append(text)
            print(f"n={n}: " + "; ".join(parts))
        if mismatches:
            print(f"{len(mismatches)} cell(s) differ from the reference")
    return 1 if mismatches else 0


def cmd_series(args) -> int:
    if args.mode == "stable":
        if args.max_t is not None:
            return _refused("--max-t", "not allowed with --mode stable")
        series = stable_series(args.p, args.max_q)
    else:
        series = local_series(args.p, args.max_q,
                              9 if args.max_t is None else args.max_t)
    if args.format == "json":
        payload = series.to_json()
        payload.update({"p": args.p, "mode": args.mode})
        _emit_json(payload)
    elif args.mode == "stable":
        print(_poly_text(series.q_coefficients(), "q"))
    else:
        for n in range(series.max_t + 1):
            row = series.q_coefficients(n)
            if any(row):
                print(f"t^{n}: " + _poly_text(row, "q"))
    return 0


def _injected_fault_report() -> Report:
    """Flip one boundary sign and confirm the composition check trips."""
    spec = CoxeterSpec("A", 3)
    cx = build_complex(spec, braid_system(4, 2))
    for k in range(spec.rank, 1, -1):
        low, high = cx.boundary(k - 1), cx.boundary(k)
        for r, c, at in sorted(zip(high.rows.tolist(), high.cols.tolist(),
                                   range(high.nnz()))):
            vals = high.vals.copy()
            vals[at] = -vals[at]
            tampered = CooMatrix(high.nrows, high.ncols, high.rows,
                                 high.cols, vals)
            if not product_is_zero(low, tampered):
                return Report(
                    "injected-fault self-test", False, 1,
                    (f"injected sign flip at boundary({k})[{r},{c}]: "
                     "boundary composition is nonzero",))
    return Report("injected-fault self-test", False, 0,
                  ("no sign flip broke the composition; the square-zero "
                   "check cannot be trusted",))


def _golden_report(d: int, table) -> Report:
    """The table's cells against reference table d, by the rule of the
    table command (_cell_status): every printed cell is checked."""
    fix = fixture(d)
    violations = []
    checked = 0
    for (n, i), computed in sorted(table.cells.items()):
        status, printed = _cell_status(fix, n, i, computed)
        if status in ("MATCH", "MISMATCH"):
            checked += 1
        if status == "MISMATCH":
            violations.append(f"(n={n}, i={i}): computed "
                              f"{computed.describe()}, reference has {printed}")
    return Report(f"golden-table d={d}", not violations, checked,
                  tuple(violations))


def cmd_verify(args) -> int:
    cache_root(args.cache_dir)  # refused even when no row reaches the cache
    check_type_b_gates()
    window = args.window
    checks: list[Report] = []
    if args.inject_fault:
        checks.append(_injected_fault_report())
    if not window:
        print("warning: empty verification window; vacuously passing",
              file=sys.stderr)
    mod_tables = {}
    fingerprints = {}
    for d, n_max in sorted(window.items()):
        try:
            cal = calibrate(d)
        except CalibrationError as err:
            checks.append(Report(f"calibration d={d}", False, 0,
                                 (str(err),)))
            continue
        fingerprints[d] = fp = cal.fingerprint()
        checks.append(Report(f"calibration d={d}", True, len(cal.rows), (),
                             (f"{fp['construction']}/{fp['order']}: match",)))
        by_ring = compute_tables(d, n_max, VERIFY_RINGS,
                                 cache_dir=args.cache_dir)
        table = by_ring["z"]
        # The reference tables cover d = 2..6; past them every law still runs.
        highlights = None
        if d in FIXTURES:
            checks.append(_golden_report(d, table))
            highlights = fixture(d).highlights
        checks.append(verify_torsion_law(table))
        checks.append(verify_stability(table, highlights))
        checks.append(verify_unstable_free(table))
        for p in (2, 3, 5):
            mod_tables[(d, p)] = by_ring[f"f:{p}"]
            checks.append(verify_uct(table, mod_tables[(d, p)]))
        for p, dd in LOCAL_PRIMES:
            if dd == d:
                checks.append(compare_local(p, d, table))
    # The covering laws compare the rows two tables share, so the full
    # tables above serve them as they are.
    for base, cover, p in ((2, 6, 2), (3, 6, 3)):
        if (base, p) in mod_tables and (cover, p) in mod_tables:
            pair = {base: mod_tables[(base, p)], cover: mod_tables[(cover, p)]}
            checks.append(verify_covering_iso(base, cover, p, pair))
    odd = [d for d in (3, 5) if (d, 2) in mod_tables]
    if odd:
        # The window's own d = 1 table serves, gaining the rows it lacks.
        reach = max(window[d] for d in odd)
        baseline = mod_tables.get((1, 2))
        if baseline is None:
            baseline = compute_table(1, reach, "f:2")
        for n in range(max(baseline.n_values()) + 1, reach + 1):
            row = braid_twisted_rows(n, 1, ("f:2",))["f:2"]
            baseline.cells.update(((n, i), g) for i, g in enumerate(row))
        for d_odd in odd:
            pair = {1: baseline, d_odd: mod_tables[(d_odd, 2)]}
            checks.append(verify_covering_iso(1, d_odd, 2, pair))
    failures = [c for c in checks if not c.ok]
    if args.format == "json":
        _emit_json({
            "window": {str(d): n for d, n in sorted(window.items())},
            "fingerprints": {str(d): fp
                             for d, fp in sorted(fingerprints.items())},
            "checks": [{"name": c.name, "ok": c.ok, "checked": c.checked,
                        "violations": list(c.violations),
                        "notes": list(c.notes)} for c in checks],
            "failures": [c.name for c in failures],
        })
    else:
        for c in checks:
            print(c.summary())
        if failures:
            print("failures: " + json.dumps(
                [{"name": c.name, "violations": list(c.violations)}
                 for c in failures], sort_keys=True))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superbraid",
        description="Twisted homology of braid groups acting on "
                    "superelliptic curve classes")
    sub = parser.add_subparsers(dest="command", required=True)
    size = _reasoned(_positive)

    twist = sub.add_parser("twist", help="print one twist matrix")
    twist.add_argument("--n", type=size, required=True)
    twist.add_argument("--d", type=size, required=True)
    twist.add_argument("--k", type=int, required=True)
    twist.add_argument("--construction", choices=("A", "B"), default="B")
    twist.add_argument("--format", choices=("text", "json"), default="text")
    twist.set_defaults(func=cmd_twist)

    hom = sub.add_parser("homology", help="homology groups for one (n, d)")
    hom.add_argument("--n", type=size, required=True)
    hom.add_argument("--d", type=size, help="default 2; not with --trivial")
    hom.add_argument("--coeff", type=_reasoned(_coeff), default="z")
    hom.add_argument("--trivial", action="store_true",
                     help="use trivial coefficients instead of the twist")
    hom.add_argument("--cache-dir", help="not with --trivial")
    hom.add_argument("--format", choices=("text", "json"), default="text")
    hom.set_defaults(func=cmd_homology)

    table = sub.add_parser("table", help="compute a table and diff it "
                                         "against the reference")
    table.add_argument("--d", type=size, required=True)
    table.add_argument("--n-max", type=size, required=True)
    table.add_argument("--cache-dir", default=None)
    table.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
    table.set_defaults(func=cmd_table)

    series = sub.add_parser("series", help="reference generating series")
    series.add_argument("--p", required=True,
                        type=_reasoned(lambda text: require_prime(int(text))))
    series.add_argument("--mode", choices=("local", "stable"),
                        default="stable")
    series.add_argument("--max-q", type=size, default=11)
    series.add_argument("--max-t", type=size,
                        help="default 9; --mode local only")
    series.add_argument("--format", choices=("text", "json"), default="text")
    series.set_defaults(func=cmd_series)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--window", type=_reasoned(_window),
                        default=GATING_WINDOW,
                        help="comma-separated d:n_max pairs")
    verify.add_argument("--inject-fault", action="store_true",
                        help="self-test: flip a boundary sign and require "
                             "the composition check to catch it")
    verify.add_argument("--cache-dir", default=None)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 3
    except CalibrationError as err:
        print(f"calibration failed: {err}", file=sys.stderr)
        return 1
    except CacheConflictError as err:
        print(f"cache error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
