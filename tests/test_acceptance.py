"""Acceptance gates, one test per criterion.

Each test asserts one shipping criterion end to end, so ``pytest -v``
prints one pass/fail line per criterion.  The gating windows are n <= 10
for d in {2, 3}, n <= 9 for d in {4, 5}, and n <= 8 for d = 6.  Rows
n = 11..13 of the d = 2 table are reported but do not gate.
"""

import time
import warnings
from itertools import product

import pytest

from superbraid.cli.fixtures import UNKNOWN, fixture
from superbraid.coxeter_complex import (
    CoxeterSpec,
    RelationError,
    build_complex,
    trivial_system,
)
from superbraid.coxeter_complex.systems import t_local_system
from superbraid.exact_linalg import IntMatrix, product_is_zero, snf
from superbraid.homology_engine import (
    artinB_betti,
    artinB_reduced_betti,
    braid_system,
    braid_trivial_homology,
    braid_twisted_homology,
    calibrate,
    compute_table,
    compute_tables,
    verify_covering_iso,
    verify_stability,
    verify_torsion_law,
    verify_uct,
    verify_unstable_free,
)
from superbraid.series import compare_local, stable_series
from superbraid.surface_rep import build_rep, convention_audit, root_check
from superbraid.surface_rep.burau import burau, intertwiner

WINDOWS = {2: 10, 3: 10, 4: 9, 5: 9, 6: 8}

PRINTED_STABLE = {
    2: [0, 1, 1, 2, 3, 4, 5, 7, 9, 11, 14, 17],
    3: [0, 1, 1, 1, 1, 2, 3, 3, 3, 4, 5, 5, 6],
}

LOCAL_PAIRS = ((2, 2), (3, 3), (2, 4), (5, 5), (2, 6), (3, 6))


@pytest.fixture(scope="session")
def ring_tables():
    """Every gating table, each row built once for Z, F_2, F_3 and F_5."""
    return {d: compute_tables(d, n_max, ("z", "f:2", "f:3", "f:5"))
            for d, n_max in WINDOWS.items()}


@pytest.fixture(scope="session")
def tables(ring_tables):
    return {d: by_ring["z"] for d, by_ring in ring_tables.items()}


@pytest.fixture(scope="session")
def mod_tables(ring_tables):
    return {(d, p): ring_tables[d][f"f:{p}"]
            for d in WINDOWS for p in (2, 3, 5)}


def _one_over_d_twist_failures(rep):
    """Where the first twist of an even-d representation is no 1/d-twist.

    T^d is the product of the Dehn twists about the two boundary curves
    of the preimage of the disk around points 1 and 2.  Those curves are
    opposite in homology, so for n >= 3 T^d sends x to x + 2 omega(x, c) c:
    T^d - I has rank 1, square zero and even entries.  At n = 2 the curves
    are the boundary of the surface and T^d = I.  The half-twist power
    T^(d/2) is itself a Dehn twist only at d = 2; for d >= 4 it has
    eigenvalue -1 on the twist block, so root_check rejects it.
    """
    n, d = rep.n, rep.d
    where = f"(n={n}, d={d})"
    delta = rep.generator(1).pow(d) - IntMatrix.identity(rep.dim)
    failures = []
    if n == 2:
        if not delta.is_zero():
            failures.append(f"{where}: T^d != I")
    else:
        rank = snf(delta).rank
        square_zero = product_is_zero(delta, delta)
        even = all(v % 2 == 0 for _, _, v in delta.triples())
        if not (rank == 1 and square_zero and even):
            failures.append(
                f"{where}: T^d has rank(T^d - I) = {rank}, square zero = "
                f"{square_zero}, even entries = {even}")
    check = root_check(rep)
    if d == 2 and n >= 3 and not check["ok"]:
        failures.append(
            f"{where}: T is no transvection, rank(T - I) = "
            f"{check['rank']}, square zero = {check['square_zero']}")
    if d >= 4 and check["ok"]:
        failures.append(f"{where}: T^(d/2) is a transvection")
    return failures


def test_criterion_01_representation_suite():
    start = time.perf_counter()
    failures = []
    for d in range(2, 7):
        for n in range(2, 9):
            rep = build_rep(n, d)
            if d % 2 == 0:
                failures.extend(_one_over_d_twist_failures(rep))
            if d >= 3:
                build_rep(n, d, construction="A")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"representation suite took {elapsed:.1f}s"
    assert not failures, "1/d-twist: " + "; ".join(failures)


def test_criterion_02_complex_soundness():
    start = time.perf_counter()
    built = 0
    for rank in range(1, 10):
        spec = CoxeterSpec("A", rank)
        build_complex(spec, trivial_system(spec))
        built += 1
        for d in range(2, 7):
            build_complex(spec, braid_system(rank + 1, d))
            built += 1
    for rank in range(1, 8):
        spec = CoxeterSpec("B", rank)
        build_complex(spec, trivial_system(spec))
        built += 1
        for d in range(2, 7):
            build_complex(spec, t_local_system(rank, d))
            built += 1
    assert built == 96
    for n in range(2, 11):
        row = braid_trivial_homology(n)
        assert len(row) == n
        assert row[0].rank == 1 and not row[0].primary()
        assert row[1].rank == 1 and not row[1].primary()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"complex soundness took {elapsed:.1f}s"


def test_criterion_03_calibration():
    for d in range(2, 7):
        fp = calibrate(d).fingerprint()
        assert fp["construction"] == "B"
        assert fp["order"] == "left_to_right"
        if d == 2:
            for n in (3, 4, 5):
                ltr = build_rep(n, 2, order="left_to_right")
                rtl = build_rep(n, 2, order="right_to_left")
                assert ltr.matrices == rtl.matrices
        else:
            with pytest.raises(RelationError, match="T1 T2 T1 = T2 T1 T2"):
                build_rep(3, d, order="right_to_left")
        # construction A's first generator is not reduced Burau at n = 3
        x = intertwiner(3, d)
        assert (x * build_rep(3, d, construction="A").generator(1)
                != burau(3, d, 1) * x)
    audit = convention_audit(3, 2)
    assert not audit["agree"]
    assert audit["blocks"]["1,1"] == "negated"
    assert audit["A_reverses_form"]
    assert not audit["A_preserves_form"]
    assert audit["status"]["A"]["builds"]
    assert audit["status"]["B,left_to_right"]["preserves_form"]


def test_criterion_04_golden_tables(tables):
    diffs = []
    checked = 0
    for d, table in tables.items():
        fix = fixture(d)
        for n in fix.n_values():
            if n > WINDOWS[d]:
                continue
            for i in range(1, n):
                printed = fix.cell(n, i)
                if printed is None or printed is UNKNOWN:
                    continue
                checked += 1
                computed = table.cell(n, i)
                if computed != printed:
                    diffs.append(
                        f"(d={d}, n={n}, i={i}): computed "
                        f"{computed.describe()}, printed "
                        f"{printed.describe()}")
    assert checked == 159
    assert not diffs, "; ".join(diffs)


def test_criterion_05_torsion_laws(tables):
    for table in tables.values():
        report = verify_torsion_law(table)
        assert report.ok, report.summary()
        assert report.checked > 0


def test_criterion_06_stability(tables):
    for d, table in tables.items():
        report = verify_stability(table, fixture(d).highlights)
        assert report.ok, report.summary()


def test_criterion_07_series(tables):
    failures = []
    for p, printed in PRINTED_STABLE.items():
        computed = stable_series(p, len(printed) - 1).q_coefficients()
        if computed != printed:
            failures.append(f"stable series p={p}: computed {computed}, "
                            f"printed {printed}")
    reports = [compare_local(p, d, tables[d]) for p, d in LOCAL_PAIRS]
    failures += [r.summary() for r in reports if not (r.ok and r.checked)]
    assert not failures, "\n".join(
        failures + ["local reports:"] + [r.summary() for r in reports])


def test_criterion_08_coverings(mod_tables):
    report = verify_covering_iso(2, 6, 2, {2: mod_tables[(2, 2)],
                                           6: mod_tables[(6, 2)]})
    assert report.ok, report.summary()
    report = verify_covering_iso(3, 6, 3, {3: mod_tables[(3, 3)],
                                           6: mod_tables[(6, 3)]})
    assert report.ok, report.summary()
    baseline = compute_table(1, 8, "f:2")
    assert all(g.rank == 0 for g in baseline.cells.values())
    for d_odd in (3, 5):
        table = mod_tables[(d_odd, 2)]
        assert all(g.rank == 0 for g in table.cells.values())
        report = verify_covering_iso(1, d_odd, 2,
                                     {1: baseline, d_odd: table})
        assert report.ok, report.summary()


def test_criterion_09_unstable_free_part(tables):
    for table in tables.values():
        report = verify_unstable_free(table)
        assert report.ok, report.summary()
        assert report.checked > 0


def test_criterion_10_type_b_oracles():
    for d in range(2, 7):
        for n in (3, 5, 7):
            assert artinB_betti(n, d) == [1] + [2] * (n - 1) + [1]
        for n in (2, 4, 6):
            reduced = artinB_reduced_betti(n, d)
            if d % 2 == 1:
                assert reduced == [0] * (n + 1)
            else:
                assert reduced == [0] * (n - 1) + [1, 1]


def test_criterion_11_cross_coefficient_consistency(tables, mod_tables):
    for d, p in product(WINDOWS, (2, 3, 5)):
        report = verify_uct(tables[d], mod_tables[(d, p)])
        assert report.ok, report.summary()
        assert report.checked > 0


def test_stretch_rows_reported_not_gating():
    fix = fixture(2)
    for n in (11, 12, 13):
        row = braid_twisted_homology(n, 2)
        for i in range(1, n):
            printed = fix.cell(n, i)
            if printed is None:
                continue
            if row[i] != printed:
                warnings.warn(
                    f"stretch row (n={n}, i={i}): computed "
                    f"{row[i].describe()}, printed {printed.describe()}")
