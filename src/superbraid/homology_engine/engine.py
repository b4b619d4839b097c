"""Calibrated homology of braid and signed-permutation Artin groups.

The twist construction and composition order are not pinned down by the
defining relations alone, so the engine calibrates once per d: it keeps
the first candidate configuration whose generators are the reduced Burau
representation at t = zeta_d, certified at n = 3, 4, 5 by an integral
unimodular intertwiner (surface_rep.burau).  It builds no complex and
reads no reference table to do so.  Every cached result records the
winning fingerprint.

A row is computed over every coefficient ring a caller needs from one
build of its complex: the representation, the Salvetti complex and its
square-zero check do not depend on the ring.  The engine holds one complex
at a time and keeps none after the row is done.  Coset tables, braid
systems and calibrations are kept for the process, in functools caches, so
the gate systems calibration certifies are the systems the rows use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..coxeter_complex import (
    DEFAULT_CONVENTION,
    CoxeterSpec,
    LocalSystem,
    RelationError,
    T_VARIANTS,
    build_complex,
    t_local_system,
    trivial_system,
)
from ..exact_linalg import AbelianGroup, rank_mod_p, snf
from ..surface_rep import build_rep
from ..surface_rep.burau import burau, intertwiner
from .cache import cache_root, load, parse_coeff, store
from .limits import charge

CALIBRATION_GRID = (
    ("B", "left_to_right"),
    ("B", "right_to_left"),
    ("A", "left_to_right"),
)

GATE_ROWS = (3, 4, 5)


class CalibrationError(RuntimeError):
    """No candidate configuration fits the gates."""


@functools.cache
def braid_system(n: int, d: int, construction: str, order: str) -> LocalSystem:
    """The n-strand braid generators acting on the curve classes, as a
    local system on the type-A Salvetti complex, built once per process."""
    return build_rep(n, d, construction=construction, order=order).system


def homology(cx, coeff: str) -> list[AbelianGroup]:
    """Groups H_0..H_top of a chain complex over Z ("z") or F_p ("f:p").

    One Smith form per boundary, swept bottom-up and shared between
    degrees: snf over Z, rank_mod_p over F_p, whose divisors are all 1, so
    the F_p groups carry dimensions only (empty torsion).  Each prime
    sweeps on its own pivots, never on the integral ones, so a mod-p row is
    not read off the integral divisors.

    Precondition: the boundaries compose to zero, which build_complex
    checks before it returns a complex.  The boundary d_k is charged whole
    (see limits.charge); then, in either ring, its rows at the columns
    where the sparse elimination of d_(k-1) pivoted are dropped
    (without_rows) before its form is taken.  That keeps the row space of
    d_k over the ring (over Z its row lattice, and with it the divisors):
    if (i, j) is a pivot of A = d_(k-1), a unit of the ring (+-1 over Z,
    any nonzero residue over F_p), row i of A * d_k = 0 writes row j of d_k
    as a combination of its other rows with coefficients in the ring.
    Eliminating the pivot leaves a Schur complement that still composes to
    zero with d_k minus row j, whose next pivot is again a unit, so the
    argument repeats pivot by pivot.  The kept rows of d_k still compose to
    zero with d_(k+1), so the pivots d_k's own elimination finds on them
    serve d_(k+1) in turn.
    """
    _, p = parse_coeff(coeff)
    top = cx.spec.rank
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    paired = ()
    for k in range(1, top + 1):
        b = cx.boundary(k)
        charge(b.nrows, b.ncols, b.max_abs())
        b = b.without_rows(paired)
        form = rank_mod_p(b, p) if p else snf(b)
        ranks[k], torsion[k], paired = form.rank, form.divisors, form.pivot_cols
    return [AbelianGroup.from_divisors(
                cx.rank(k) - ranks.get(k, 0) - ranks.get(k + 1, 0),
                torsion.get(k + 1, ()))
            for k in range(top + 1)]


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


def _zero_group() -> AbelianGroup:
    return AbelianGroup.from_divisors(0, ())


def _burau_mismatch(n: int, d: int, rho: LocalSystem) -> str | None:
    """The first generator of rho that the intertwiner does not carry to
    reduced Burau at t = zeta_d, or None."""
    x = intertwiner(n, d)
    for k, t in enumerate(rho.actions, start=1):
        if x * t != burau(n, d, k) * x:
            return f"(n={n}, k={k}): not reduced Burau at t = zeta_d"
    return None


@functools.cache
def calibrate(d: int) -> CalibrationResult:
    """Select the construction/order pair whose generators are reduced
    Burau at t = zeta_d.

    A candidate's gate representations n = 3, 4, 5 are built, with their
    relations checked, and then each generator T_k is tested against
    X * T_k = B_k * X, n by n and k by k; the first generator that fails
    ends it.  For d = 1 the coefficient module is zero and every
    configuration agrees, so the first grid entry is returned without
    gating.  Each d is calibrated once per process; a failure is retried.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return CalibrationResult(
            1, *CALIBRATION_GRID[0],
            outcomes=((*CALIBRATION_GRID[0], "match: rank-0 module"),))
    outcomes = []
    for construction, order in CALIBRATION_GRID:
        # Every gate representation is built, and its relations checked,
        # before any generator is compared, so a rejection outranks a
        # mismatch.
        try:
            systems = {n: braid_system(n, d, construction, order)
                       for n in GATE_ROWS}
        except RelationError as err:
            outcomes.append((construction, order, f"rejected: {err}"))
            continue
        why = None
        for n, rho in systems.items():
            why = _burau_mismatch(n, d, rho)
            if why is not None:
                break
        outcomes.append((construction, order,
                         "match" if why is None else f"mismatch at {why}"))
    # X is invertible, so T_k = X^-1 B_k X: every candidate that matches
    # has the same matrices, and the first one stands for them all.
    matches = [(c, o) for c, o, msg in outcomes if msg == "match"]
    if not matches:
        detail = "; ".join(f"{c}/{o}: {msg}" for c, o, msg in outcomes)
        raise CalibrationError(
            f"no configuration is reduced Burau at t = zeta_{d} ({detail})")
    return CalibrationResult(d, *matches[0], tuple(outcomes))


def braid_twisted_rows(n: int, d: int, coeffs=("z",),
                       cache_dir=None) -> dict[str, list[AbelianGroup]]:
    """Homology of the n-strand braid group acting on the curve classes,
    over each coefficient ring in coeffs ("z" or "f:p").

    Returns {coeff: row}, one group per degree i = 0..n-1 in each row.  Over
    a prime field the groups carry dimensions only (empty torsion).  Every
    ring found in the cache is loaded; the complex is built once, and only
    if some ring misses, and each computed row is stored.  Every F_p row is
    ranked mod p on its own boundaries and its own pivots, never read off
    the integral divisors, so the universal-coefficient check stays a check.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    for coeff in coeffs:
        parse_coeff(coeff)
    cal = calibrate(d)
    fp = cal.fingerprint()
    root = cache_root(cache_dir)
    rows = {}
    if root is not None:
        for coeff in coeffs:
            hit = load(root, "A", n, d, coeff, fp)
            if hit is not None:
                rows[coeff] = hit
    missing = [coeff for coeff in coeffs if coeff not in rows]
    if missing:
        rho = braid_system(n, d, cal.construction, cal.order)
        cx = build_complex(rho.spec, rho)
        fresh = {coeff: homology(cx, coeff) for coeff in missing}
        if root is not None:
            for coeff, row in fresh.items():
                store(root, "A", n, d, coeff, fp, row)
        rows.update(fresh)
    return {coeff: rows[coeff] for coeff in coeffs}


def braid_twisted_homology(n: int, d: int, coeff: str = "z",
                           cache_dir=None) -> list[AbelianGroup]:
    """The one-ring case of braid_twisted_rows."""
    return braid_twisted_rows(n, d, (coeff,), cache_dir)[coeff]


def braid_trivial_homology(n: int, coeff: str = "z") -> list[AbelianGroup]:
    """Homology of the n-strand braid group with trivial coefficients."""
    if n < 1:
        raise ValueError("need n >= 1")
    spec = CoxeterSpec("A", n - 1)
    return homology(build_complex(spec, trivial_system(spec)), coeff)


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


def compute_tables(d: int, n_max: int, coeffs=("z",),
                   cache_dir=None) -> dict[str, HomologyTable]:
    """All rows n = 1..n_max of the calibrated twisted homology for one d,
    as {coeff: table}; each row is computed over every ring from one build."""
    cal = calibrate(d)
    cells = {coeff: {} for coeff in coeffs}
    for n in range(1, n_max + 1):
        for coeff, row in braid_twisted_rows(n, d, coeffs, cache_dir).items():
            for i, g in enumerate(row):
                cells[coeff][(n, i)] = g
    return {coeff: HomologyTable(d, coeff, cal.fingerprint(), cells[coeff])
            for coeff in coeffs}


def compute_table(d: int, n_max: int, coeff: str = "z",
                  cache_dir=None) -> HomologyTable:
    """The one-ring case of compute_tables."""
    return compute_tables(d, n_max, (coeff,), cache_dir)[coeff]


# Signed-permutation (type B) side.  The rank-d module splits one dimension
# off rationally: the companion matrix has eigenvalue -1 for every d, and on
# that line the calibrated variant acts trivially.  Total Betti numbers
# therefore decompose as trivial-coefficient Betti numbers plus the reduced
# part, and the even-n reference polynomials concern the reduced part.


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
    spec = CoxeterSpec("B", n)
    cx = build_complex(spec, t_local_system(n, d, variant=variant))
    return homology(cx, coeff)


def artinB_betti(n: int, d: int, variant: int | None = None) -> list[int]:
    """Rational Betti numbers of the full rank-d module, degrees 0..n."""
    return [g.rank for g in artinB_homology(n, d, "z", variant)]


def artinB_trivial_betti(n: int) -> list[int]:
    spec = CoxeterSpec("B", n)
    cx = build_complex(spec, trivial_system(spec))
    return [g.rank for g in homology(cx, "z")]


def artinB_reduced_betti(n: int, d: int,
                         variant: int | None = None) -> list[int]:
    """Betti numbers of the module minus its one-dimensional trivial summand."""
    return _split_trivial(n, d, artinB_betti(n, d, variant=variant),
                          artinB_trivial_betti(n))


def _split_trivial(n: int, d: int, full: list[int],
                   plain: list[int]) -> list[int]:
    """full minus the trivial-coefficient Betti numbers plain, or
    ArithmeticError if the trivial summand does not split off."""
    reduced = [a - b for a, b in zip(full, plain)]
    if any(x < 0 for x in reduced):
        raise ArithmeticError(
            f"trivial summand does not split off at (n={n}, d={d}): "
            f"{full} vs {plain}")
    return reduced


@functools.cache
def calibrate_t_variant() -> int:
    """Select the sign variant reproducing the type-B Betti gates.

    Gates, for d in {2, 3}: the full module at n = 3 has Betti numbers
    (1, 2, 2, 1), and the reduced module at n = 2 has (0, 0, 0) for odd d
    and (0, 1, 1) for even d.  Kept once per process.
    """
    plain = artinB_trivial_betti(2)  # the same for every gate tried
    outcomes = []
    for v in range(len(T_VARIANTS)):
        verdict = "match"
        for d in (2, 3):
            try:
                if artinB_betti(3, d, variant=v) != _betti_gate_odd(3):
                    verdict = f"mismatch: full Betti gate at (n=3, d={d})"
                    break
                reduced = _split_trivial(
                    2, d, artinB_betti(2, d, variant=v), plain)
            except (RelationError, ArithmeticError) as err:
                verdict = f"rejected: {err}"
                break
            if reduced != _betti_gate_even_reduced(2, d):
                verdict = f"mismatch: reduced Betti gate at (n=2, d={d})"
                break
        outcomes.append((v, verdict))
        if verdict == "match":
            return v
    raise CalibrationError(f"no sign variant fits the type-B gates: {outcomes}")
