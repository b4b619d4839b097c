"""Calibrated homology of braid and signed-permutation Artin groups.

The twist construction and composition order are not pinned down by the
defining relations alone, so the engine calibrates once per d: it runs the
candidate configurations against the embedded reference rows and keeps the
first (and only, up to identical results) configuration that reproduces
them.  Every cached result records the winning fingerprint.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..cli.fixtures import UNKNOWN, fixture
from ..coxeter_complex import (
    DEFAULT_CONVENTION,
    CoxeterSpec,
    LocalSystem,
    T_VARIANTS,
    build_complex,
    t_local_system,
    trivial_system,
)
from ..exact_linalg import AbelianGroup, rank_mod_p, rank_rational, snf
from ..surface_rep import RelationError, build_rep
from .cache import cache_root, load, store
from .limits import charge

CALIBRATION_GRID = (
    ("B", "left_to_right"),
    ("B", "right_to_left"),
    ("A", "left_to_right"),
)

GATE_ROWS = (3, 4, 5)


class CalibrationError(RuntimeError):
    """No candidate configuration, or several conflicting ones, fit the gates."""


def parse_coeff(coeff: str) -> tuple[str, int | None]:
    """Split a coefficient spec into ('z', None) or ('f', p)."""
    if coeff == "z":
        return ("z", None)
    if coeff.startswith("f:"):
        p = int(coeff[2:])
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        return ("f", p)
    raise ValueError(f"bad coefficient spec {coeff!r}; use 'z' or 'f:p'")


def _braid_system(n: int, d: int, construction: str, order: str) -> LocalSystem:
    rep = build_rep(n, d, construction=construction, order=order)
    spec = CoxeterSpec("A", n - 1)
    return LocalSystem(spec, [rep.generator(k) for k in range(1, n)],
                       dimension=rep.dim)


def _integral_groups(cx) -> list[AbelianGroup]:
    """One Smith form per boundary, swept bottom-up, shared between degrees.

    Precondition: the boundaries compose to zero, which build_complex checks
    before it returns a complex.  The snf of the boundary d_k skips the rows
    at the columns where the unit-pivot phase of d_(k-1) pivoted.  That keeps
    the row lattice of d_k, and with it the divisors: if (i, j) is a +-1
    pivot of A = d_(k-1), row i of A * d_k = 0 writes row j of d_k as an
    integer combination of its other rows.  Eliminating the pivot leaves a
    Schur complement that still composes to zero with d_k minus row j, whose
    next pivot is again a unit, so the argument repeats pivot by pivot.  The
    kept rows of d_k still compose to zero with d_(k+1), so the pivots d_k's
    own phase finds on them serve d_(k+1) in turn.
    """
    top = cx.spec.rank
    forms = {}
    paired = ()
    for k in range(1, top + 1):
        b = cx.boundary(k)
        charge(b.nrows, b.ncols, b.max_abs())
        forms[k] = snf(b, skip_rows=paired)
        paired = forms[k].pivot_cols
    groups = []
    for k in range(top + 1):
        r_low = forms[k].rank if k >= 1 else 0
        nxt = forms.get(k + 1)
        r_high = nxt.rank if nxt else 0
        torsion = nxt.divisors if nxt else ()
        groups.append(AbelianGroup.from_divisors(
            cx.rank(k) - r_low - r_high, torsion))
    return groups


def _modular_dims(cx, p: int) -> list[int]:
    top = cx.spec.rank
    ranks = {}
    for k in range(1, top + 1):
        b = cx.boundary(k)
        charge(b.nrows, b.ncols, b.max_abs())
        ranks[k] = rank_mod_p(b, p)
    return [cx.rank(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(top + 1)]


def _rational_dims(cx) -> list[int]:
    top = cx.spec.rank
    ranks = {k: rank_rational(cx.boundary(k)) for k in range(1, top + 1)}
    return [cx.rank(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(top + 1)]


def _twisted_row(n: int, d: int, construction: str, order: str,
                 coeff: str = "z") -> list[AbelianGroup]:
    kind, p = parse_coeff(coeff)
    spec = CoxeterSpec("A", n - 1)
    cx = build_complex(spec, _braid_system(n, d, construction, order))
    if kind == "z":
        return _integral_groups(cx)
    return [AbelianGroup.from_divisors(r, ()) for r in _modular_dims(cx, p)]


@dataclass(frozen=True)
class CalibrationResult:
    """The configuration selected for one d, with the full grid record."""

    d: int
    construction: str
    order: str
    outcomes: tuple[tuple[str, str, str], ...]

    def fingerprint(self) -> dict:
        return {
            "construction": self.construction,
            "order": self.order,
            "side": DEFAULT_CONVENTION.side,
            "mu_base": DEFAULT_CONVENTION.mu_base,
        }


_CALIBRATIONS: dict[int, CalibrationResult] = {}


def _zero_group() -> AbelianGroup:
    return AbelianGroup.from_divisors(0, ())


def _gate_mismatch(d: int, rows: dict) -> str | None:
    """First gate cell the computed rows get wrong, or None.

    Row n=3 gates only the printed i=1 cell; rows n=4 and n=5 are compared
    in full, with unprinted cells in degrees >= 1 required to vanish.
    """
    fix = fixture(d)
    want = fix.cell(3, 1)
    if rows[3][1] != want:
        return (f"(n=3, i=1): computed {rows[3][1].describe()}, "
                f"table has {want.describe()}")
    for n in (4, 5):
        for i in range(1, n):
            want = fix.cell(n, i)
            if want is UNKNOWN:
                continue
            if want is None:
                want = _zero_group()
            if rows[n][i] != want:
                return (f"(n={n}, i={i}): computed {rows[n][i].describe()}, "
                        f"table has {want.describe()}")
    return None


def calibrate(d: int) -> CalibrationResult:
    """Select the construction/order pair that reproduces the reference rows.

    For d = 1 the coefficient module is zero and every configuration agrees,
    so the first grid entry is returned without gating.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d in _CALIBRATIONS:
        return _CALIBRATIONS[d]
    if d == 1:
        result = CalibrationResult(
            1, *CALIBRATION_GRID[0],
            outcomes=((*CALIBRATION_GRID[0], "match: rank-0 module"),))
        _CALIBRATIONS[1] = result
        return result
    try:
        fixture(d)
    except KeyError as err:
        raise CalibrationError(
            f"no reference rows to calibrate against for d={d}") from err
    outcomes = []
    matches = []
    for construction, order in CALIBRATION_GRID:
        try:
            rows = {n: _twisted_row(n, d, construction, order)
                    for n in GATE_ROWS}
        except RelationError as err:
            outcomes.append((construction, order, f"rejected: {err}"))
            continue
        why = _gate_mismatch(d, rows)
        if why is None:
            outcomes.append((construction, order, "match"))
            matches.append(((construction, order), rows))
        else:
            outcomes.append((construction, order, f"mismatch at {why}"))
    if not matches:
        detail = "; ".join(f"{c}/{o}: {msg}" for c, o, msg in outcomes)
        raise CalibrationError(
            f"no configuration reproduces the d={d} reference rows ({detail})")
    (first_config, first_rows) = matches[0]
    for config, rows in matches[1:]:
        if rows != first_rows:
            raise CalibrationError(
                f"calibration for d={d} is ambiguous: {first_config} and "
                f"{config} both match the gates with different results")
    result = CalibrationResult(d, first_config[0], first_config[1],
                               tuple(outcomes))
    _CALIBRATIONS[d] = result
    return result


def braid_twisted_homology(n: int, d: int, coeff: str = "z",
                           cache_dir=None) -> list[AbelianGroup]:
    """Homology of the n-strand braid group acting on the curve classes.

    Returns one group per degree i = 0..n-1.  Over a prime field the groups
    carry dimensions only (empty torsion).
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    parse_coeff(coeff)
    cal = calibrate(d)
    fp = cal.fingerprint()
    root = cache_root(cache_dir)
    if root is not None:
        hit = load(root, "A", n, d, coeff, fp)
        if hit is not None:
            return hit
    row = _twisted_row(n, d, cal.construction, cal.order, coeff)
    if root is not None:
        store(root, "A", n, d, coeff, fp, row)
    return row


def braid_trivial_homology(n: int, coeff: str = "z") -> list[AbelianGroup]:
    """Homology of the n-strand braid group with trivial coefficients."""
    if n < 1:
        raise ValueError("need n >= 1")
    kind, p = parse_coeff(coeff)
    spec = CoxeterSpec("A", n - 1)
    cx = build_complex(spec, trivial_system(spec))
    if kind == "z":
        return _integral_groups(cx)
    return [AbelianGroup.from_divisors(r, ()) for r in _modular_dims(cx, p)]


def bddn_homology(n: int, d: int, cache_dir=None) -> list[AbelianGroup]:
    """Homology of the complex reflection braid group B(d, d, n).

    Splits as trivial-coefficient braid homology plus the twisted homology
    shifted up one degree; degrees run 0..n.
    """
    plain = braid_trivial_homology(n)
    twisted = braid_twisted_homology(n, d, cache_dir=cache_dir)
    zero = _zero_group()
    out = []
    for i in range(n + 1):
        a = plain[i] if i < len(plain) else zero
        b = twisted[i - 1] if 1 <= i <= len(twisted) else zero
        out.append(a + b)
    return out


@dataclass
class HomologyTable:
    """Computed groups for one d over a window of n, with provenance meta."""

    d: int
    coeff: str
    fingerprint: dict
    cells: dict

    def n_values(self) -> list[int]:
        return sorted({n for (n, _) in self.cells})

    def cell(self, n: int, i: int) -> AbelianGroup | None:
        return self.cells.get((n, i))

    def row(self, n: int) -> list[AbelianGroup]:
        return [self.cells[(n, i)] for i in range(n)]

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "coeff": self.coeff,
            "fingerprint": self.fingerprint,
            "cells": [
                {"n": n, "i": i, "rank": g.rank, "torsion": list(g.primary())}
                for (n, i), g in sorted(self.cells.items())
            ],
        }

    @classmethod
    def from_json(cls, blob: dict) -> "HomologyTable":
        cells = {
            (item["n"], item["i"]): AbelianGroup.from_divisors(
                item["rank"], item["torsion"])
            for item in blob["cells"]
        }
        return cls(blob["d"], blob["coeff"], dict(blob["fingerprint"]), cells)


def thread_count(explicit=None) -> int:
    if explicit:
        return max(1, int(explicit))
    env = os.environ.get("SUPERBRAID_THREADS")
    return max(1, int(env)) if env else 1


def compute_table(d: int, n_max: int, coeff: str = "z", cache_dir=None,
                  threads=None) -> HomologyTable:
    """All rows n = 1..n_max; row jobs fan out, assembly is deterministic."""
    cal = calibrate(d)
    ns = list(range(1, n_max + 1))
    workers = thread_count(threads)
    if workers == 1:
        rows = [braid_twisted_homology(n, d, coeff, cache_dir) for n in ns]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                lambda n: braid_twisted_homology(n, d, coeff, cache_dir), ns))
    cells = {(n, i): g for n, row in zip(ns, rows) for i, g in enumerate(row)}
    return HomologyTable(d, coeff, cal.fingerprint(), cells)


# Signed-permutation (type B) side.  The rank-d module splits one dimension
# off rationally: the companion matrix has eigenvalue -1 for every d, and on
# that line the calibrated variant acts trivially.  Total Betti numbers
# therefore decompose as trivial-coefficient Betti numbers plus the reduced
# part, and the even-n reference polynomials concern the reduced part.

_T_VARIANT: list = []
_T_OUTCOMES: list = []


def _betti_gate_odd(n: int) -> list[int]:
    return [1] + [2] * (n - 1) + [1]


def _betti_gate_even_reduced(n: int, d: int) -> list[int]:
    out = [0] * (n + 1)
    if d % 2 == 0:
        out[n - 1] = 1
        out[n] = 1
    return out


def artinB_homology(n: int, d: int, coeff: str = "z",
                    variant: int | None = None) -> list[AbelianGroup]:
    """Homology of the type-B Artin group on the rank-d cyclic module."""
    if variant is None:
        variant = calibrate_t_variant()
    kind, p = parse_coeff(coeff)
    spec = CoxeterSpec("B", n)
    cx = build_complex(spec, t_local_system(n, d, variant=variant))
    if kind == "z":
        return _integral_groups(cx)
    return [AbelianGroup.from_divisors(r, ()) for r in _modular_dims(cx, p)]


def artinB_betti(n: int, d: int, variant: int | None = None) -> list[int]:
    """Rational Betti numbers of the full rank-d module, degrees 0..n."""
    if variant is None:
        variant = calibrate_t_variant()
    spec = CoxeterSpec("B", n)
    cx = build_complex(spec, t_local_system(n, d, variant=variant))
    return _rational_dims(cx)


def artinB_trivial_betti(n: int) -> list[int]:
    spec = CoxeterSpec("B", n)
    return _rational_dims(build_complex(spec, trivial_system(spec)))


def artinB_reduced_betti(n: int, d: int,
                         variant: int | None = None) -> list[int]:
    """Betti numbers of the module minus its one-dimensional trivial summand."""
    full = artinB_betti(n, d, variant=variant)
    plain = artinB_trivial_betti(n)
    reduced = [a - b for a, b in zip(full, plain)]
    if any(x < 0 for x in reduced):
        raise ArithmeticError(
            f"trivial summand does not split off at (n={n}, d={d}): "
            f"{full} vs {plain}")
    return reduced


def calibrate_t_variant() -> int:
    """Select the sign variant reproducing the type-B Betti gates.

    Gates, for d in {2, 3}: the full module at n = 3 has Betti numbers
    (1, 2, 2, 1), and the reduced module at n = 2 has (0, 0, 0) for odd d
    and (0, 1, 1) for even d.
    """
    if _T_VARIANT:
        return _T_VARIANT[0]
    outcomes = []
    for v in range(len(T_VARIANTS)):
        verdict = "match"
        for d in (2, 3):
            try:
                if artinB_betti(3, d, variant=v) != _betti_gate_odd(3):
                    verdict = f"mismatch: full Betti gate at (n=3, d={d})"
                    break
                reduced = artinB_reduced_betti(2, d, variant=v)
            except (RelationError, ArithmeticError) as err:
                verdict = f"rejected: {err}"
                break
            if reduced != _betti_gate_even_reduced(2, d):
                verdict = f"mismatch: reduced Betti gate at (n=2, d={d})"
                break
        outcomes.append((v, verdict))
        if verdict == "match":
            _T_VARIANT.append(v)
            _T_OUTCOMES.extend(outcomes)
            return v
    raise CalibrationError(f"no sign variant fits the type-B gates: {outcomes}")
