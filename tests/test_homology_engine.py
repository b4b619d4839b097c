"""Tests for calibration, the homology engine, caching, and the table laws."""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbraid.cli.fixtures import fixture
from superbraid.coxeter_complex import (
    CoxeterSpec,
    build_complex,
    t_local_system,
    trivial_system,
)
from superbraid.exact_linalg import AbelianGroup, IntMatrix, snf
from superbraid.homology_engine import (
    CACHE_VERSION,
    CALIBRATION_GRID,
    CacheConflictError,
    CacheFormatError,
    CalibrationError,
    HomologyTable,
    ResourceLimitError,
    artinB_betti,
    artinB_homology,
    artinB_reduced_betti,
    artinB_trivial_betti,
    bddn_homology,
    bit_budget,
    braid_trivial_homology,
    braid_twisted_homology,
    cache_path,
    cache_root,
    calibrate,
    calibrate_t_variant,
    coeff_tag,
    compute_table,
    first_stable_rows,
    parse_coeff,
    stable_bound,
    thread_count,
    verify_covering_iso,
    verify_stability,
    verify_torsion_law,
    verify_uct,
    verify_unstable_free,
)
from superbraid.homology_engine import engine
from superbraid.homology_engine.cache import decode_groups, load, store
from superbraid.homology_engine.limits import charge


def group(rank, *torsion):
    return AbelianGroup.from_divisors(rank, torsion)


def describe_row(row):
    return [g.describe() for g in row]


def table_from_rows(d, rows, coeff="z"):
    """Assemble a HomologyTable from {n: [groups by degree]}."""
    cells = {(n, i): g for n, row in rows.items() for i, g in enumerate(row)}
    return HomologyTable(d, coeff, {"test": True}, cells)


class TestParseCoeff:
    def test_integers(self):
        assert parse_coeff("z") == ("z", None)

    def test_prime_fields(self):
        assert parse_coeff("f:2") == ("f", 2)
        assert parse_coeff("f:97") == ("f", 97)

    @pytest.mark.parametrize("bad", ["f:1", "f:4", "f:91", "q", "Z", "f:x"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_coeff(bad)


class TestCalibration:
    def test_geometric_order_wins_for_every_d(self):
        for d in range(2, 7):
            cal = calibrate(d)
            assert (cal.construction, cal.order) == ("B", "left_to_right")

    def test_grid_record_d2(self):
        # both composition orders coincide at d=2 (a single twist factor),
        # so they count as one configuration; the other construction is
        # rejected by the gate cell itself
        outcomes = {(c, o): msg for c, o, msg in calibrate(2).outcomes}
        assert outcomes[("B", "left_to_right")] == "match"
        assert outcomes[("B", "right_to_left")] == "match"
        a_msg = outcomes[("A", "left_to_right")]
        assert a_msg.startswith("mismatch at (n=3, i=1)")
        assert "Z_2" in a_msg

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_grid_record_deeper_twists(self, d):
        outcomes = {(c, o): msg for c, o, msg in calibrate(d).outcomes}
        assert outcomes[("B", "left_to_right")] == "match"
        assert outcomes[("B", "right_to_left")].startswith("rejected:")
        assert outcomes[("A", "left_to_right")].startswith(
            "mismatch at (n=3, i=1)")

    def test_reversed_order_rejection_names_the_relation(self):
        outcomes = {(c, o): msg for c, o, msg in calibrate(3).outcomes}
        assert "T1 T2 T1" in outcomes[("B", "right_to_left")]

    def test_rank_zero_module_shortcut(self):
        cal = calibrate(1)
        assert (cal.construction, cal.order) == CALIBRATION_GRID[0]
        assert "rank-0" in cal.outcomes[0][2]

    def test_uncalibratable_d(self):
        with pytest.raises(CalibrationError, match="no reference rows"):
            calibrate(7)
        with pytest.raises(ValueError):
            calibrate(0)

    def test_fingerprint_records_every_convention(self):
        assert calibrate(3).fingerprint() == {
            "construction": "B",
            "order": "left_to_right",
            "side": "left",
            "mu_base": 0,
        }

    def test_calibration_is_memoized(self):
        assert calibrate(4) is calibrate(4)


class TestTwistedHomology:
    def test_row_matches_reference_table(self):
        row = braid_twisted_homology(6, 2)
        assert describe_row(row) == [
            "0", "Z_2", "Z_2 + Z_2", "Z_2 + Z_6", "Z", "Z"]
        fix = fixture(2)
        assert row[1:] == [fix.cell(6, i) for i in range(1, 6)]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_three_strand_rows(self, d):
        assert braid_twisted_homology(3, d) == [group(0), group(0, d),
                                                group(0)]

    def test_two_strand_rows(self):
        # the twist fixes a vector exactly when d is even
        for d in (2, 4, 6):
            assert describe_row(braid_twisted_homology(2, d)) == ["Z", "Z"]
        for d in (3, 5):
            assert describe_row(braid_twisted_homology(2, d)) == ["0", "0"]

    def test_rank_zero_modules(self):
        assert braid_twisted_homology(1, 5) == [group(0)]
        assert braid_twisted_homology(4, 1) == [group(0)] * 4

    def test_mod_two_row(self):
        row = braid_twisted_homology(8, 4, "f:2")
        assert [g.rank for g in row] == [0, 1, 2, 4, 6, 9, 9, 3]
        assert all(g.primary() == () for g in row)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            braid_twisted_homology(0, 2)
        with pytest.raises(ValueError):
            braid_twisted_homology(3, 2, coeff="f:6")


class TestTrivialAndProductGroups:
    def test_trivial_rows(self):
        assert describe_row(braid_trivial_homology(2)) == ["Z", "Z"]
        assert describe_row(braid_trivial_homology(4)) == [
            "Z", "Z", "Z_2", "0"]

    def test_trivial_mod_two_row(self):
        assert [g.rank for g in braid_trivial_homology(4, "f:2")] == [1, 1, 1, 1]

    def test_split_off_trivial_summand(self):
        # degrees 0..n, with the twisted groups shifted up one degree
        assert describe_row(bddn_homology(3, 2)) == ["Z", "Z", "Z_2", "0"]
        assert describe_row(bddn_homology(2, 3)) == ["Z", "Z", "0"]

    def test_rank_zero_twist_part(self):
        padded = braid_trivial_homology(4) + [group(0)]
        assert bddn_homology(4, 1) == padded


class TestHomologyTable:
    def test_window_and_rows(self):
        table = compute_table(2, 5)
        assert table.n_values() == [1, 2, 3, 4, 5]
        assert len(table.row(4)) == 4
        assert table.cell(4, 1) == group(0, 2, 2)
        assert table.cell(9, 9) is None

    def test_json_round_trip(self):
        table = compute_table(3, 4)
        blob = table.to_json()
        again = HomologyTable.from_json(json.loads(json.dumps(blob)))
        assert again.d == table.d
        assert again.coeff == table.coeff
        assert again.fingerprint == table.fingerprint
        assert again.cells == table.cells

    def test_json_cells_are_sorted(self):
        blob = compute_table(2, 4).to_json()
        keys = [(item["n"], item["i"]) for item in blob["cells"]]
        assert keys == sorted(keys)

    def test_thread_count_sources(self, monkeypatch):
        monkeypatch.delenv("SUPERBRAID_THREADS", raising=False)
        assert thread_count() == 1
        monkeypatch.setenv("SUPERBRAID_THREADS", "4")
        assert thread_count() == 4
        assert thread_count(2) == 2

    def test_threaded_assembly_is_deterministic(self):
        serial = compute_table(3, 5)
        threaded = compute_table(3, 5, threads=4)
        assert serial.cells == threaded.cells
        assert serial.fingerprint == threaded.fingerprint


class TestCache:
    def test_paths_and_tags(self, tmp_path):
        assert coeff_tag("z") == "z"
        assert coeff_tag("f:3") == "f3"
        with pytest.raises(ValueError):
            coeff_tag("gf(2)")
        path = cache_path(tmp_path, "A", 6, 2, "f:3")
        assert path.name == "h_A_6_2_f3.json"

    def test_root_sources(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SUPERBRAID_CACHE", raising=False)
        assert cache_root() is None
        monkeypatch.setenv("SUPERBRAID_CACHE", str(tmp_path))
        assert cache_root() == tmp_path
        assert cache_root(tmp_path / "other") == tmp_path / "other"

    def test_round_trip_through_engine(self, tmp_path):
        row = braid_twisted_homology(4, 3, cache_dir=tmp_path)
        path = cache_path(tmp_path, "A", 4, 3, "z")
        assert path.exists()
        blob = json.loads(path.read_text())
        assert blob["version"] == CACHE_VERSION
        assert blob["n"] == 4 and blob["d"] == 3 and blob["coeff"] == "z"
        assert decode_groups(blob["groups"]) == row
        assert braid_twisted_homology(4, 3, cache_dir=tmp_path) == row

    def test_warm_read_skips_recomputation(self, tmp_path, monkeypatch):
        row = braid_twisted_homology(5, 2, cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("cache miss")

        import superbraid.homology_engine.engine as engine
        monkeypatch.setattr(engine, "_twisted_row", boom)
        assert braid_twisted_homology(5, 2, cache_dir=tmp_path) == row

    def test_fingerprint_conflicts(self, tmp_path):
        fp = {"construction": "B"}
        store(tmp_path, "A", 3, 2, "z", fp, [group(1)])
        store(tmp_path, "A", 3, 2, "z", fp, [group(1)])
        with pytest.raises(CacheConflictError):
            store(tmp_path, "A", 3, 2, "z", {"construction": "A"}, [group(1)])
        with pytest.raises(CacheConflictError):
            load(tmp_path, "A", 3, 2, "z", {"construction": "A"})
        assert load(tmp_path, "A", 3, 2, "z", fp) == [group(1)]
        assert load(tmp_path, "A", 9, 9, "z", fp) is None

    def test_no_stray_temp_files(self, tmp_path):
        store(tmp_path, "A", 3, 2, "z", {}, [group(0, 2)])
        assert [p.name for p in tmp_path.iterdir()] == ["h_A_3_2_z.json"]

    def test_loaded_row_renders_like_the_computed_row(self, tmp_path):
        computed = braid_twisted_homology(6, 2, cache_dir=tmp_path)
        loaded = braid_twisted_homology(6, 2, cache_dir=tmp_path)
        assert "Z_2 + Z_6" in describe_row(computed)
        assert describe_row(loaded) == describe_row(computed)
        store(tmp_path, "A", 3, 5, "z", {}, [group(0, 12), group(1, 2, 6)])
        assert describe_row(load(tmp_path, "A", 3, 5, "z", {})) == [
            "Z_12", "Z + Z_2 + Z_6"]

    @pytest.mark.parametrize("text", [
        '{"fingerprint": {}, "groups": [',  # truncated
        "not json at all",
        "[]",
        '{"fingerprint": {}, "groups": []}',  # no version
        '{"fingerprint": {}, "version": 1}',  # no groups
        '{"groups": [], "version": 1}',  # no fingerprint
        '{"fingerprint": {}, "groups": [], "version": 2}',
    ])
    def test_unreadable_file_is_a_typed_error(self, tmp_path, text):
        path = cache_path(tmp_path, "A", 3, 2, "z")
        path.write_text(text)
        with pytest.raises(CacheFormatError):
            load(tmp_path, "A", 3, 2, "z", {})
        with pytest.raises(CacheFormatError):
            store(tmp_path, "A", 3, 2, "z", {}, [group(1)])
        assert path.read_text() == text
        assert issubclass(CacheFormatError, CacheConflictError)

    def test_unreadable_groups_are_a_typed_error(self, tmp_path):
        path = cache_path(tmp_path, "A", 3, 2, "z")
        path.write_text(
            '{"fingerprint": {}, "groups": [{"i": 0}], "version": 1}')
        with pytest.raises(CacheFormatError, match="groups"):
            load(tmp_path, "A", 3, 2, "z", {})

    def test_stored_file_truncated_midway(self, tmp_path):
        path = store(tmp_path, "A", 3, 2, "z", {}, [group(1), group(0, 2)])
        path.write_text(path.read_text()[:-7])
        with pytest.raises(CacheFormatError, match="not JSON"):
            load(tmp_path, "A", 3, 2, "z", {})
        with pytest.raises(CacheFormatError):
            store(tmp_path, "A", 3, 2, "z", {}, [group(1), group(0, 2)])

    def test_decode_rejects_missing_degrees(self):
        with pytest.raises(ValueError, match="missing or duplicate degrees"):
            decode_groups([{"i": 1, "rank": 0, "torsion": []}])

    def test_concurrent_writers_agree(self, tmp_path):
        errors = []

        def worker():
            try:
                braid_twisted_homology(4, 2, cache_dir=tmp_path)
            except Exception as err:
                errors.append(err)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        blob = json.loads(cache_path(tmp_path, "A", 4, 2, "z").read_text())
        assert decode_groups(blob["groups"]) == braid_twisted_homology(4, 2)


class TestResourceLimits:
    def test_budget_from_environment(self, monkeypatch):
        monkeypatch.setenv("SUPERBRAID_BIT_BUDGET", "12345")
        assert bit_budget() == 12345
        monkeypatch.setenv("SUPERBRAID_BIT_BUDGET", "zero")
        with pytest.raises(ResourceLimitError):
            bit_budget()
        monkeypatch.setenv("SUPERBRAID_BIT_BUDGET", "-1")
        with pytest.raises(ResourceLimitError):
            bit_budget()

    def test_charge(self):
        charge(10, 10, 1, budget=1000)
        with pytest.raises(ResourceLimitError, match="exceeds the budget"):
            charge(100, 100, 1 << 20, budget=1000)

    def test_engine_respects_budget(self, monkeypatch):
        calibrate(2)
        monkeypatch.setenv("SUPERBRAID_BIT_BUDGET", "64")
        with pytest.raises(ResourceLimitError):
            braid_twisted_homology(6, 2)


class TestTorsionLaw:
    def test_accepts_lawful_table(self):
        table = table_from_rows(3, {
            3: [group(0), group(0, 3), group(0)],
            4: [group(0), group(0, 3), group(0, 3), group(0)],
        })
        report = verify_torsion_law(table)
        assert report.ok and report.checked == 7

    def test_flags_foreign_and_repeated_factors(self):
        table = table_from_rows(3, {
            3: [group(0), group(0, 2), group(0, 9)],
        })
        report = verify_torsion_law(table)
        assert not report.ok
        assert any("not dividing d=3" in v for v in report.violations)
        assert any("repeated prime factor" in v for v in report.violations)

    def test_flags_positive_rank(self):
        table = table_from_rows(3, {3: [group(0), group(1, 3), group(0)]})
        report = verify_torsion_law(table)
        assert not report.ok
        assert "free rank 1" in report.violations[0]

    def test_even_rows_of_even_d_are_out_of_scope(self):
        # Z_8 does not divide d=4 and the rank is positive, but the cell
        # sits in an even row of an even-d table
        table = table_from_rows(4, {4: [group(0), group(0), group(1, 8),
                                        group(1)]})
        report = verify_torsion_law(table)
        assert report.ok and report.checked == 0

    def test_requires_integer_coefficients(self):
        with pytest.raises(ValueError):
            verify_torsion_law(table_from_rows(2, {}, coeff="f:2"))


class TestStability:
    def test_bound_reproduces_every_highlight(self):
        for d, fix in ((2, fixture(2)), (3, fixture(3)), (4, fixture(4)),
                       (5, fixture(5)), (6, fixture(6))):
            for (n, i) in fix.highlights:
                assert stable_bound(i, d) == n

    def test_bound_values(self):
        assert [stable_bound(i, 2) for i in (1, 2, 3, 4, 5)] == [5, 7, 9, 11, 13]
        assert [stable_bound(i, 3) for i in (1, 2, 3, 4)] == [4, 6, 7, 9]
        assert [stable_bound(i, 5) for i in (1, 2, 3, 4, 5)] == [4, 5, 6, 8, 9]
        assert stable_bound(2, 6) == 7
        with pytest.raises(ValueError):
            stable_bound(0, 2)
        with pytest.raises(ValueError):
            stable_bound(1, 1)

    def test_iso_range_violation_is_reported(self):
        table = table_from_rows(2, {
            6: [group(0)] + [group(0, 2)] * 5,
            7: [group(0), group(0, 3)] + [group(0, 2)] * 5,
        })
        report = verify_stability(table)
        assert not report.ok
        assert "differs from cell (7, 1)" in report.violations[0]

    def test_highlight_checks(self):
        rows = {n: [group(0), group(0, 2)] + [group(0)] * (n - 2)
                for n in range(5, 9)}
        table = table_from_rows(2, rows)
        assert verify_stability(table, highlights={(5, 1)}).ok
        report = verify_stability(table, highlights={(7, 1)})
        assert not report.ok
        assert "not at the stable bound n = 5" in report.violations[0]

    def test_highlight_outside_window_is_a_note(self):
        table = table_from_rows(2, {3: [group(0), group(0, 2), group(0)]})
        report = verify_stability(table, highlights={(11, 4)})
        assert report.ok
        assert "outside computed window" in report.notes[0]

    def test_unstable_highlight_value_is_flagged(self):
        rows = {
            5: [group(0), group(0, 2), group(0), group(0), group(0)],
            6: [group(0), group(0, 4), group(0), group(0), group(0),
                group(0)],
            7: [group(0), group(0, 4)] + [group(0)] * 5,
        }
        report = verify_stability(table_from_rows(2, rows),
                                  highlights={(5, 1)})
        assert not report.ok
        assert any("highlighted cell (5, 1)" in v for v in report.violations)

    def test_first_stable_rows(self):
        rows = {
            3: [group(0), group(0, 2), group(0)],
            4: [group(0), group(0, 4), group(0), group(0)],
            5: [group(0), group(0, 2)] + [group(0)] * 3,
            6: [group(0), group(0, 2)] + [group(0)] * 4,
        }
        assert first_stable_rows(table_from_rows(2, rows))[1] == 5

    def test_computed_table_is_stable(self):
        table = compute_table(2, 7)
        highlights = {(n, i) for (n, i) in fixture(2).highlights if n <= 7}
        assert verify_stability(table, highlights).ok


class TestUnstableFreePart:
    def test_even_d_top_two_degrees(self):
        table = compute_table(2, 6)
        report = verify_unstable_free(table)
        assert report.ok
        assert table.cell(4, 2).rank == 1 and table.cell(4, 3).rank == 1

    def test_violations_are_located(self):
        table = table_from_rows(2, {4: [group(0), group(1), group(1),
                                        group(1)]})
        report = verify_unstable_free(table)
        assert not report.ok
        assert "(n=4, i=1)" in report.violations[0]

    def test_odd_d_rows_are_torsion(self):
        table = table_from_rows(3, {4: [group(0), group(0, 3), group(0, 3),
                                        group(0)]})
        assert verify_unstable_free(table).ok


class TestCoveringIso:
    def test_even_base_compares_every_row(self):
        tables = {2: compute_table(2, 6, "f:2"), 6: compute_table(6, 6, "f:2")}
        report = verify_covering_iso(2, 6, 2, tables)
        assert report.ok
        assert report.notes == ()
        assert report.checked > 0

    def test_odd_base_only_compares_odd_rows(self):
        tables = {3: compute_table(3, 6, "f:3"), 6: compute_table(6, 6, "f:3")}
        report = verify_covering_iso(3, 6, 3, tables)
        assert report.ok
        assert "only odd rows" in report.notes[0]

    def test_odd_twist_vanishes_mod_two(self):
        tables = {1: compute_table(1, 6, "f:2"), 3: compute_table(3, 6, "f:2")}
        report = verify_covering_iso(1, 3, 2, tables)
        assert report.ok and report.notes == ()

    def test_hypothesis_checks(self):
        t2 = compute_table(2, 4, "f:2")
        with pytest.raises(ValueError, match="d dividing"):
            verify_covering_iso(2, 5, 2, {})
        with pytest.raises(ValueError, match="not dividing m"):
            verify_covering_iso(2, 6, 3, {})
        with pytest.raises(ValueError, match="mod-2 table"):
            verify_covering_iso(2, 6, 2, {2: t2, 6: compute_table(6, 4)})

    def test_disagreement_is_reported(self):
        tables = {
            2: table_from_rows(2, {3: [group(0), group(1), group(0)]},
                               coeff="f:2"),
            6: table_from_rows(6, {3: [group(0), group(2), group(0)]},
                               coeff="f:2"),
        }
        report = verify_covering_iso(2, 6, 2, tables)
        assert not report.ok
        assert "dim over F_2 is 1 for d=2 but 2 for d'=6" in \
            report.violations[0]


class TestUniversalCoefficients:
    @pytest.mark.parametrize("p", [2, 3])
    def test_computed_tables_agree(self, p):
        table_z = compute_table(4, 6)
        table_p = compute_table(4, 6, f"f:{p}")
        report = verify_uct(table_z, table_p)
        assert report.ok and report.checked == 21

    def test_tampered_dimension_is_caught(self):
        table_z = table_from_rows(2, {3: [group(0), group(0, 2), group(0)]})
        table_p = table_from_rows(2, {3: [group(0), group(1), group(0)]},
                                  coeff="f:2")
        report = verify_uct(table_z, table_p)
        assert not report.ok
        assert "(n=3, i=2)" in report.violations[0]

    def test_requires_matching_tables(self):
        table_z = compute_table(2, 3)
        with pytest.raises(ValueError):
            verify_uct(table_z, compute_table(3, 3, "f:2"))
        with pytest.raises(ValueError):
            verify_uct(table_z, compute_table(2, 3))


class TestSignedPermutationSide:
    def test_variant_selection(self):
        assert calibrate_t_variant() == 2

    def test_full_betti_gates_odd_n(self):
        for d in (2, 3, 4, 5, 6):
            for n in (3, 5):
                expected = [1] + [2] * (n - 1) + [1]
                assert artinB_betti(n, d) == expected

    def test_reduced_betti_gates_even_n(self):
        for d in (2, 4, 6):
            assert artinB_reduced_betti(4, d) == [0, 0, 0, 1, 1]
        for d in (3, 5):
            assert artinB_reduced_betti(4, d) == [0, 0, 0, 0, 0]

    def test_trivial_betti_matches_full_at_odd_n(self):
        # odd rows carry no reduced part, so the full module collapses
        # onto the trivial summand
        assert artinB_trivial_betti(3) == artinB_betti(3, 5)

    def test_integral_rows(self):
        assert describe_row(artinB_homology(2, 2)) == ["Z", "Z^3", "Z^2"]
        assert describe_row(artinB_homology(2, 3)) == ["Z", "Z^2", "Z"]
        assert describe_row(artinB_homology(3, 2)) == ["Z", "Z^2", "Z^2", "Z"]

    def test_mod_p_rows_are_dimensions(self):
        row = artinB_homology(2, 2, coeff="f:2")
        assert all(g.primary() == () for g in row)
        assert [g.rank for g in row] == [1, 3, 2]


def _sweep_complexes():
    for d in range(2, 7):
        cal = calibrate(d)
        for n in range(2, 9):
            yield (f"braid n={n} d={d}", build_complex(
                CoxeterSpec("A", n - 1),
                engine._braid_system(n, d, cal.construction, cal.order)))
    for family in ("A", "B"):
        for rank in range(1, 9):
            spec = CoxeterSpec(family, rank)
            yield f"trivial {family}{rank}", build_complex(
                spec, trivial_system(spec))
    variant = calibrate_t_variant()
    for n in range(2, 7):
        for d in range(2, 5):
            yield (f"t-system n={n} d={d}", build_complex(
                CoxeterSpec("B", n), t_local_system(n, d, variant=variant)))


class _Complex:
    """The slice of ChainComplex that _integral_groups reads."""

    def __init__(self, ranks, boundaries):
        self.spec = CoxeterSpec("A", len(ranks) - 1)
        self.ranks = ranks
        self.boundaries = boundaries

    def rank(self, k):
        return self.ranks[k] if 0 <= k < len(self.ranks) else 0

    def boundary(self, k):
        return self.boundaries[k]


def _unimodular(draw, n):
    """A random unimodular n x n matrix and its inverse, as products of
    elementary row additions."""
    u = v = IntMatrix.identity(n)
    if n < 2:
        return u, v
    for _ in range(draw(st.integers(0, 3 * n))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 2))
        j += j >= i
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        u = IntMatrix(n, n, {(i, j): c}) * u + u
        v = v - v * IntMatrix(n, n, {(i, j): c})
    return u, v


@st.composite
def chain_complexes(draw):
    """A direct sum of pieces Z --m--> Z and free Z's, in a random basis.

    Returns the complex and its homology, read off the pieces: a piece with
    m = 0 adds Z at both ends, one with |m| > 1 adds Z_|m| at its target.
    """
    top = draw(st.integers(1, 4))
    pieces = {k: draw(st.lists(st.sampled_from([0, 1, -1, 1, -1, 2, 3, -6]),
                               max_size=4))
              for k in range(1, top + 1)}
    free = [draw(st.integers(0, 2)) for _ in range(top + 1)]
    # basis of C_k: free Z's, then targets of pieces from k + 1, then sources
    ranks = [free[k] + len(pieces.get(k + 1, ())) + len(pieces.get(k, ()))
             for k in range(top + 1)]
    expected = []
    for k in range(top + 1):
        zeros = (pieces.get(k + 1, []).count(0) + pieces.get(k, []).count(0))
        torsion = [abs(m) for m in pieces.get(k + 1, ()) if abs(m) > 1]
        expected.append(AbelianGroup.from_divisors(free[k] + zeros, torsion))
    bases = [_unimodular(draw, r) for r in ranks]
    boundaries = {}
    for k in range(1, top + 1):
        entries = {}
        target0 = free[k - 1]
        source0 = free[k] + len(pieces.get(k + 1, ()))
        for t, m in enumerate(pieces[k]):
            if m:
                entries[(target0 + t, source0 + t)] = m
        diag = IntMatrix(ranks[k - 1], ranks[k], entries)
        boundaries[k] = bases[k - 1][0] * diag * bases[k][1]
    return _Complex(ranks, boundaries), expected


class TestBottomUpSweep:
    def test_divisors_match_plain_snf(self, monkeypatch):
        calls = []

        def recording_snf(m, *args, **kwargs):
            form = snf(m, *args, **kwargs)
            calls.append((m, kwargs.get("skip_rows", ()), form))
            return form

        monkeypatch.setattr(engine, "snf", recording_snf)
        skipped = 0
        count = 0
        for name, cx in _sweep_complexes():
            calls.clear()
            engine._integral_groups(cx)
            assert len(calls) == cx.spec.rank, name
            for k, (m, skip, form) in enumerate(calls, start=1):
                assert m is cx.boundary(k), name
                assert form.divisors == snf(m).divisors, (name, k)
                skipped += len(skip)
            count += 1
        assert count == 66
        assert skipped > 0

    def test_first_boundary_skips_nothing_then_each_takes_its_lower_pivots(
            self, monkeypatch):
        calls = []

        def recording_snf(m, *args, **kwargs):
            form = snf(m, *args, **kwargs)
            calls.append((set(kwargs.get("skip_rows", ())), form))
            return form

        monkeypatch.setattr(engine, "snf", recording_snf)
        cal = calibrate(2)
        engine._integral_groups(build_complex(
            CoxeterSpec("A", 4),
            engine._braid_system(5, 2, cal.construction, cal.order)))
        assert calls[0][0] == set()
        for (_, lower), (skip, _) in zip(calls, calls[1:]):
            assert skip == set(lower.pivot_cols)
            assert skip

    @settings(max_examples=150, deadline=None)
    @given(chain_complexes())
    def test_random_chain_complexes(self, complex_and_groups):
        cx, expected = complex_and_groups
        for k in range(2, cx.spec.rank + 1):
            assert (cx.boundary(k - 1) * cx.boundary(k)).is_zero()
        assert engine._integral_groups(cx) == expected
