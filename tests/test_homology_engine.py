"""Tests for calibration, the homology engine, caching, and the table laws."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superbraid
from superbraid.cli.fixtures import fixture
from superbraid.coxeter_complex import (
    CoxeterSpec,
    LocalSystem,
    RelationError,
    build_complex,
    companion_t_matrix,
    t_local_system,
    trivial_system,
)
from superbraid.coxeter_complex import systems
from superbraid.exact_linalg import (
    AbelianGroup,
    CooMatrix,
    IntMatrix,
    exact,
    product_is_zero,
    rank_mod_p,
    snf,
)
from superbraid.exact_linalg.snf import _unit_pivot_phase
from superbraid.homology_engine import (
    CACHE_VERSION,
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
    braid_twisted_rows,
    cache_path,
    cache_root,
    calibrate,
    check_type_b_gates,
    coeff_tag,
    compute_table,
    compute_tables,
    parse_coeff,
    stable_bound,
    verify_covering_iso,
    verify_stability,
    verify_torsion_law,
    verify_uct,
    verify_unstable_free,
)
from superbraid.homology_engine import engine
from superbraid.homology_engine.cache import decode_groups, load, store
from superbraid.homology_engine.limits import charge
from superbraid.surface_rep import basis, build_rep, twists
from superbraid.surface_rep.burau import burau, intertwiner


def group(rank, *torsion):
    return AbelianGroup.from_divisors(rank, torsion)


def describe_row(row):
    return [g.describe() for g in row]


def table_from_rows(d, rows, coeff="z"):
    """Assemble a HomologyTable from {n: [groups by degree]}."""
    cells = {(n, i): g for n, row in rows.items() for i, g in enumerate(row)}
    return HomologyTable(d, coeff, {"test": True}, cells)


def child_stdout(code: str) -> list[str]:
    """The output lines of code run in a child process with a 20 s timeout,
    so a law that stalls fails its test instead of hanging the suite."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(superbraid.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=20,
                          check=True).stdout.splitlines()


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


def a_misses_burau(n, d):
    """Whether X * T_1 = B_1 * X fails for construction A's T_1."""
    a = build_rep(n, d, construction="A")
    x = intertwiner(n, d)
    return x * a.generator(1) != burau(n, d, 1) * x


class TestCalibration:
    def test_geometric_order_wins_for_every_d(self):
        for d in range(2, 7):
            fp = calibrate(d).fingerprint()
            assert (fp["construction"], fp["order"]) == ("B", "left_to_right")

    def test_grid_record_d2(self):
        # both composition orders coincide at d=2 (a single twist factor);
        # the other construction's first generator is not reduced Burau
        calibrate(2)
        for n in engine.GATE_ROWS:
            assert (build_rep(n, 2, order="right_to_left").matrices
                    == build_rep(n, 2, order="left_to_right").matrices)
        assert a_misses_burau(3, 2)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_grid_record_deeper_twists(self, d):
        calibrate(d)
        with pytest.raises(RelationError, match="T1 T2 T1 = T2 T1 T2"):
            build_rep(3, d, order="right_to_left")
        assert a_misses_burau(3, d)

    def test_reversed_order_rejection_names_the_relation(self, monkeypatch):
        """A representation that breaks a braid relation is rejected, with
        the relation named, and the rejection is not kept."""
        real = engine.build_rep

        def reversed_order(n, d, **kwargs):
            return real(n, d, construction="B", order="right_to_left")

        for cached in (engine.calibrate, engine.braid_system):
            cached.cache_clear()
        monkeypatch.setattr(engine, "build_rep", reversed_order)
        with pytest.raises(CalibrationError) as err:
            calibrate(3)
        assert ("B/left_to_right: rejected: T1 T2 T1 = T2 T1 T2"
                in str(err.value))
        assert isinstance(err.value.__cause__, RelationError)
        assert calibrate.cache_info().currsize == 0
        monkeypatch.undo()
        assert calibrate(3).d == 3

    def test_rank_zero_module_takes_the_same_check(self, monkeypatch):
        """At d = 1 the gate systems are built and compared like any
        other d; every matrix is 0 x 0."""
        engine.calibrate.cache_clear()
        engine.braid_system.cache_clear()
        compared = []
        real = engine._burau_mismatch

        def mismatch(n, d, rho):
            compared.append((n, d, rho.dimension))
            return real(n, d, rho)

        monkeypatch.setattr(engine, "_burau_mismatch", mismatch)
        assert calibrate(1).rows == engine.GATE_ROWS
        assert compared == [(n, 1, 0) for n in engine.GATE_ROWS]

    def test_uncalibratable_d(self):
        """Only d < 1 is refused: calibration reads no reference rows, so
        d = 7, past the reference tables, calibrates like the rest."""
        fp = calibrate(7).fingerprint()
        assert (fp["construction"], fp["order"]) == ("B", "left_to_right")
        with pytest.raises(ValueError):
            calibrate(0)

    def test_no_burau_candidate_is_an_error(self, monkeypatch):
        """With one sign of the intertwiner flipped the representation
        fails its first generator, and the error names it."""
        real = engine.intertwiner

        def flipped(n, d):
            x = real(n, d)
            x.entries[(0, 0)] = -x.entries[(0, 0)]
            return x

        engine.calibrate.cache_clear()
        monkeypatch.setattr(engine, "intertwiner", flipped)
        kept = calibrate.cache_info().currsize
        with pytest.raises(CalibrationError) as err:
            calibrate(3)
        assert "B/left_to_right: mismatch at (n=3, k=1)" in str(err.value)
        assert "zeta_3" in str(err.value)
        assert calibrate.cache_info().currsize == kept

    def test_certificate_covers_every_gate_row(self, monkeypatch, capsys):
        """An intertwiner wrong only at n = 5 fails calibration there, not
        at n = 3, and a verify of that d then fails its calibration
        report."""
        from superbraid.cli.main import main

        real = engine.intertwiner

        def wrong_at_five(n, d):
            x = real(n, d)
            if n == 5:
                x.entries[(0, 0)] = -x.entries[(0, 0)]
            return x

        engine.calibrate.cache_clear()
        monkeypatch.setattr(engine, "intertwiner", wrong_at_five)
        with pytest.raises(CalibrationError,
                           match=re.escape("mismatch at (n=5, k=1)")):
            calibrate(3)
        assert calibrate.cache_info().currsize == 0
        assert main(["verify", "--window", "3:5", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == ["calibration d=3"]
        (report,) = payload["checks"]
        assert "(n=5, k=1)" in report["violations"][0]
        monkeypatch.undo()
        assert calibrate(3).d == 3  # a failure is not kept

    def test_fingerprint_records_every_convention(self):
        assert calibrate(3).fingerprint() == {
            "construction": "B",
            "order": "left_to_right",
            "side": "left",
            "mu_base": 0,
        }

    def test_calibration_is_memoized(self):
        assert calibrate(4) is calibrate(4)

    @pytest.mark.parametrize("d", [2, 4])
    def test_calibration_builds_no_complex(self, monkeypatch, d):
        """Calibration builds the gate systems n = 3, 4, 5, compares their
        generators with reduced Burau, and builds no complex."""
        systems = engine.braid_system
        for cached in (engine.calibrate, systems):
            cached.cache_clear()
        builds = count_builds(monkeypatch)
        assert calibrate(d).rows == engine.GATE_ROWS
        assert not builds
        assert systems.cache_info().currsize == len(engine.GATE_ROWS)


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


class TestBraidSystem:
    @pytest.mark.parametrize("n,d,construction",
                             [(2, 3, "B"), (4, 2, "B"), (5, 4, "B"),
                              (4, 3, "A")])
    def test_is_the_local_system_of_the_rep(self, monkeypatch, n, d,
                                            construction):
        """braid_system builds one representation, construction B composed
        left to right, and is its local system; it agrees with
        build_rep(n, d, construction) exactly when that names B (at
        (4, 3) construction A has other matrices)."""
        real_build_rep, reps = engine.build_rep, []

        def build_rep(*args, **kwargs):
            reps.append(real_build_rep(*args, **kwargs))
            return reps[-1]

        engine.braid_system.cache_clear()
        monkeypatch.setattr(engine, "build_rep", build_rep)
        rho = engine.braid_system(n, d)
        (rep,) = reps
        assert (rep.construction, rep.order) == ("B", "left_to_right")
        assert rho is rep.system
        assert rho.actions == tuple(rep.matrices)
        assert rho.spec == CoxeterSpec("A", n - 1)
        assert rho.dimension == rep.dim
        other = real_build_rep(n, d, construction=construction)
        assert (rho.actions == tuple(other.matrices)) == (construction == "B")

    def test_unimodularity_is_checked_once_per_generator(self, monkeypatch):
        n = 5
        calls = []
        for module in (systems, basis, twists):
            def counted(m, *args, _real=module.snf, **kwargs):
                calls.append(m)
                return _real(m, *args, **kwargs)

            monkeypatch.setattr(module, "snf", counted)
        engine.braid_system.cache_clear()
        engine.braid_system(n, 3)
        assert len(calls) == n - 1


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


RINGS = ("z", "f:2", "f:3", "f:5")


def count_builds(monkeypatch) -> Counter:
    """Count the engine's complex builds by (n, d) of their braid system; a
    complex of any other system counts under None."""
    systems = {}
    builds = Counter()
    real_system, real_build = engine.braid_system, engine.build_complex

    def braid_system(n, d):
        rho = real_system(n, d)
        systems[id(rho)] = (rho, (n, d))
        return rho

    def build_complex(spec, rho, *args, **kwargs):
        builds[systems.get(id(rho), (rho, None))[1]] += 1
        return real_build(spec, rho, *args, **kwargs)

    monkeypatch.setattr(engine, "braid_system", braid_system)
    monkeypatch.setattr(engine, "build_complex", build_complex)
    return builds


class TestSeveralRings:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_tables_equal_one_ring_tables(self, d):
        together = compute_tables(d, 6, RINGS)
        assert list(together) == list(RINGS)
        for coeff in RINGS:
            assert together[coeff] == compute_table(d, 6, coeff)

    def test_verify_builds_each_complex_once(self, monkeypatch, capsys):
        """Counting the calibrations too: they build no complex, so each
        row of the window, the gate rows n = 3, 4, 5 included, is built
        once."""
        from superbraid.cli.main import main

        calibrate(1)
        check_type_b_gates()
        engine.calibrate.cache_clear()
        builds = count_builds(monkeypatch)
        assert main(["verify", "--window", "2:5,3:5,6:5",
                     "--format", "json"]) == 0
        capsys.readouterr()
        assert builds == Counter({(n, d): 1
                                  for d in (1, 2, 3, 6) for n in range(1, 6)})

    @pytest.mark.parametrize("window, twice", [
        ("1:6,3:6", ()), ("1:7,3:6,5:4", ()), ("1:3,3:6", ())])
    def test_verify_reuses_the_window_d1_table(self, monkeypatch, capsys,
                                               window, twice):
        """The covering law d = 1 -> d odd reads the window's own d = 1
        table; a d = 1 window that falls short of the odd rows gains only
        the rows it lacks, so no row is built twice."""
        from superbraid.cli.main import _window, main

        check_type_b_gates()  # its type-B complexes are not counted here
        builds = count_builds(monkeypatch)
        assert main(["verify", "--window", window, "--format", "json"]) == 0
        capsys.readouterr()
        rows = _window(window)
        reach = max(rows[d] for d in (3, 5) if d in rows)
        expected = Counter({(n, d): 1
                            for d, n_max in rows.items()
                            for n in range(1, n_max + 1)})
        for n in range(1, reach + 1):
            expected[(n, 1)] = 1 + (n in twice)
        assert builds == expected

    def test_verify_builds_each_braid_system_once(self, monkeypatch, capsys):
        """From empty caches, a verify run builds each braid system once:
        the gate systems n = 3, 4, 5 that calibration certifies are the
        ones the rows use."""
        from superbraid.cli.main import main

        for cached in (engine.braid_system, engine.calibrate,
                       engine.check_type_b_gates):
            cached.cache_clear()
        reps = Counter()
        real_build_rep = engine.build_rep

        def build_rep(n, d, construction, order):
            reps[(n, d, construction, order)] += 1
            return real_build_rep(n, d, construction=construction,
                                  order=order)

        monkeypatch.setattr(engine, "build_rep", build_rep)
        assert main(["verify", "--window", "2:5,3:5,6:5",
                     "--format", "json"]) == 0
        capsys.readouterr()
        assert set(reps.values()) == {1}
        for d in (2, 3, 6):
            for n in engine.GATE_ROWS:
                assert reps[(n, d, "B", "left_to_right")] == 1

    @staticmethod
    def fill_from_cache(tmp_path, monkeypatch, n):
        """Cache row (n, 3) over Z, then ask for every ring: the cache
        serves Z, the three F_p rows are computed and stored, and a second
        call computes nothing.  Returns the builds of the first call."""
        expected = {coeff: braid_twisted_homology(n, 3, coeff)
                    for coeff in RINGS}
        braid_twisted_homology(n, 3, "z", cache_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [f"h_A_{n}_3_z.json"]
        builds = count_builds(monkeypatch)
        computed = []
        real_homology = engine.homology

        def homology(cx, coeff):
            computed.append(coeff)
            return real_homology(cx, coeff)

        monkeypatch.setattr(engine, "homology", homology)
        assert braid_twisted_rows(n, 3, RINGS, tmp_path) == expected
        first = Counter(builds)
        assert computed == ["f:2", "f:3", "f:5"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"h_A_{n}_3_{tag}.json" for tag in ("f2", "f3", "f5", "z")]
        builds.clear()
        computed.clear()
        assert braid_twisted_rows(n, 3, RINGS, tmp_path) == expected
        assert not builds and not computed
        return first

    @pytest.mark.parametrize("n", [4, 6])
    def test_cache_serves_what_it_holds(self, tmp_path, monkeypatch, n):
        """A gate row (n = 4) misses the cache like any other row: its
        complex is built once."""
        assert self.fill_from_cache(tmp_path, monkeypatch, n) == Counter(
            {(n, 3): 1})


class TestCache:
    def test_paths_and_tags(self, tmp_path):
        assert coeff_tag("z") == "z"
        assert coeff_tag("f:3") == "f3"
        for bad in ("gf(2)", "f:4", "f:1"):
            with pytest.raises(ValueError):
                coeff_tag(bad)
        path = cache_path(tmp_path, "A", 6, 2, "f:3")
        assert path.name == "h_A_6_2_f3.json"

    def test_root_sources(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SUPERBRAID_CACHE", raising=False)
        assert cache_root() is None
        monkeypatch.setenv("SUPERBRAID_CACHE", str(tmp_path))
        assert cache_root() == tmp_path
        assert cache_root(tmp_path / "other") == tmp_path / "other"

    def test_empty_explicit_root_is_refused(self, monkeypatch):
        """Path('') would be the working directory; an empty
        SUPERBRAID_CACHE already means no cache."""
        monkeypatch.setenv("SUPERBRAID_CACHE", "")
        assert cache_root() is None
        with pytest.raises(CacheFormatError, match="empty path"):
            cache_root("")

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
        monkeypatch.setattr(engine, "build_complex", boom)
        assert braid_twisted_homology(5, 2, cache_dir=tmp_path) == row

    def test_fingerprint_conflicts(self, tmp_path):
        fp = {"construction": "B"}
        store(tmp_path, "A", 1, 2, "z", fp, [group(1)])
        store(tmp_path, "A", 1, 2, "z", fp, [group(1)])
        with pytest.raises(CacheConflictError):
            store(tmp_path, "A", 1, 2, "z", {"construction": "A"}, [group(1)])
        with pytest.raises(CacheConflictError):
            load(tmp_path, "A", 1, 2, "z", {"construction": "A"})
        assert load(tmp_path, "A", 1, 2, "z", fp) == [group(1)]
        assert load(tmp_path, "A", 9, 9, "z", fp) is None

    def test_no_stray_temp_files(self, tmp_path):
        store(tmp_path, "A", 3, 2, "z", {}, [group(0, 2)])
        assert [p.name for p in tmp_path.iterdir()] == ["h_A_3_2_z.json"]

    def test_loaded_row_renders_like_the_computed_row(self, tmp_path):
        computed = braid_twisted_homology(6, 2, cache_dir=tmp_path)
        loaded = braid_twisted_homology(6, 2, cache_dir=tmp_path)
        assert "Z_2 + Z_6" in describe_row(computed)
        assert describe_row(loaded) == describe_row(computed)
        store(tmp_path, "A", 2, 5, "z", {}, [group(0, 12), group(1, 2, 6)])
        assert describe_row(load(tmp_path, "A", 2, 5, "z", {})) == [
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

    @pytest.mark.parametrize("q", [
        6, 12, 1, 0, -2, 2**89 - 1, (2**61 - 1) * (2**31 - 1), 2.0, "2",
        True])
    def test_decode_rejects_torsion_beyond_certified_prime_powers(self, q):
        with pytest.raises(ValueError):
            decode_groups([{"i": 0, "rank": 0, "torsion": [q]}])

    def test_decode_accepts_powers_of_certified_primes(self):
        torsion = [2, 4, 3**5, 2**200, 2**61 - 1, (2**64 - 59)**3]
        [g] = decode_groups([{"i": 0, "rank": 1, "torsion": torsion}])
        assert (g.rank, g.torsion) == (1, tuple(torsion))

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

    def test_charge(self, monkeypatch):
        monkeypatch.setenv("SUPERBRAID_BIT_BUDGET", "1000")
        charge(10, 10, 1)
        with pytest.raises(ResourceLimitError, match="exceeds the budget"):
            charge(100, 100, 1 << 20)

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

    def test_large_prime_square_is_a_repeated_factor(self):
        """Z_(p^2) with p = 2^61 - 1 is found to repeat p by a primality
        certificate, not by dividing up to p."""
        code = ("from superbraid.exact_linalg import AbelianGroup\n"
                "from superbraid.homology_engine import HomologyTable, "
                "verify_torsion_law\n"
                "p = 2**61 - 1\n"
                "g = AbelianGroup(0, (p * p,))\n"
                "table = HomologyTable(3, 'z', {}, {(3, 1): g})\n"
                "for v in verify_torsion_law(table).violations:\n"
                "    print(v)\n")
        p = 2**61 - 1
        assert child_stdout(code) == [
            f"(n=3, i=1): factor Z_{p * p} with {p * p} not dividing d=3",
            f"(n=3, i=1): repeated prime factor Z_{p * p} with d=3 "
            "squarefree"]


def test_laws_name_their_d():
    table_z = table_from_rows(3, {3: [group(0), group(0, 3), group(0)]})
    table_p = table_from_rows(3, {3: [group(0), group(1), group(0)]},
                              coeff="f:3")
    reports = [verify_torsion_law(table_z), verify_stability(table_z),
               verify_unstable_free(table_z), verify_uct(table_z, table_p)]
    assert [r.name for r in reports] == [
        "torsion-law d=3", "stability d=3", "unstable-free-part d=3",
        "universal-coefficients p=3 d=3"]


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

    def test_bound_for_a_large_prime_d(self):
        """d = 2^61 - 1 is certified prime at once, not divided up to."""
        code = ("from superbraid.homology_engine import stable_bound\n"
                "print(stable_bound(1, 2**61 - 1))\n")
        assert child_stdout(code) == ["4"]

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
        engine.check_type_b_gates.cache_clear()
        assert check_type_b_gates() is None

    @pytest.mark.parametrize("signs, gate", [
        ((1, 1), "full Betti gate fails at (n=3, d=3)"),
        ((1, -1), "full Betti gate fails at (n=3, d=2)")])
    def test_gate_check_fails_loudly(self, monkeypatch, capsys, signs, gate):
        """A type-B module of other signs fails a named gate, and a verify
        in either format then exits 1 with the reason on stderr."""
        from superbraid.cli.main import main

        s0, si = signs

        def signed(n, d):
            c, eye = companion_t_matrix(d), IntMatrix.identity(d)
            return LocalSystem(CoxeterSpec("B", n),
                               [c if s0 == 1 else -c]
                               + [eye if si == 1 else -eye] * (n - 1))

        engine.check_type_b_gates.cache_clear()
        monkeypatch.setattr(engine, "t_local_system", signed)
        with pytest.raises(CalibrationError, match=re.escape(gate)):
            check_type_b_gates()
        for form in (["--format", "json"], []):
            assert main(["verify", "--window", "2:3", *form]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("calibration failed: ") and gate in err
        monkeypatch.undo()
        assert check_type_b_gates() is None  # a failure is not kept

    def test_gate_check_wraps_a_rejected_module(self, monkeypatch):
        def broken(n, d):
            raise RelationError("T1 T2 T1 T2 = T2 T1 T2 T1")

        engine.check_type_b_gates.cache_clear()
        monkeypatch.setattr(engine, "t_local_system", broken)
        with pytest.raises(CalibrationError,
                           match=r"rejected at d=2: T1 T2 T1 T2") as exc:
            check_type_b_gates()
        assert isinstance(exc.value.__cause__, RelationError)

    def test_variant_selection_builds_the_trivial_b2_complex_once(
            self, monkeypatch):
        """Every reduced gate subtracts the same trivial-coefficient Betti
        numbers of B_2, so one call builds that complex once."""
        engine.check_type_b_gates.cache_clear()
        trivial_b2 = []
        real_build = engine.build_complex

        def build_complex(spec, rho, *args, **kwargs):
            if spec == CoxeterSpec("B", 2) and rho.dimension == 1:
                trivial_b2.append(rho)
            return real_build(spec, rho, *args, **kwargs)

        monkeypatch.setattr(engine, "build_complex", build_complex)
        assert check_type_b_gates() is None
        assert len(trivial_b2) == 1
        assert all(a == IntMatrix.identity(1) for a in trivial_b2[0].actions)

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
        for n in range(2, 9):
            yield (f"braid n={n} d={d}", build_complex(
                CoxeterSpec("A", n - 1), engine.braid_system(n, d)))
    for family in ("A", "B"):
        for rank in range(1, 9):
            spec = CoxeterSpec(family, rank)
            yield f"trivial {family}{rank}", build_complex(
                spec, trivial_system(spec))
    for n in range(2, 7):
        for d in range(2, 5):
            yield (f"t-system n={n} d={d}", build_complex(
                CoxeterSpec("B", n), t_local_system(n, d)))


@pytest.fixture(scope="module")
def sweep_complexes():
    return list(_sweep_complexes())


@pytest.fixture(scope="module")
def braid_complex_6_3():
    return build_complex(CoxeterSpec("A", 5), engine.braid_system(6, 3))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0, 3]), st.randoms(use_true_random=False))
def test_kernel_stops_only_when_no_unit_is_left(braid_complex_6_3, p, rnd):
    """Every boundary of the n = 6, d = 3 complex, as the sweep hands it
    to the kernel and in a drawn storage order: over Z the remainder holds
    no +-1, over F_3 nothing is left, and the pivot columns are distinct.
    A +-1 left in the remainder is a pivot the kernel missed, which the
    dense Smith form would hide."""
    cx = braid_complex_6_3
    lower = ()
    for k in range(1, cx.spec.rank + 1):
        b = cx.boundary(k).without_rows(lower)
        order = rnd.sample(range(b.nnz()), b.nnz())
        shuffled = CooMatrix(b.nrows, b.ncols, b.rows[order], b.cols[order],
                             b.vals[order])
        for m in (shuffled, b):
            pivot_cols, dense = _unit_pivot_phase(m, p)
            assert len(set(pivot_cols)) == len(pivot_cols), k
            if p:
                assert dense == [], k
            else:
                assert not any(v in (1, -1) for row in dense for v in row), k
        lower = pivot_cols


class _Complex:
    """The slice of ChainComplex that engine.homology reads."""

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
        b = bases[k - 1][0] * diag * bases[k][1]
        boundaries[k] = CooMatrix(b.nrows, b.ncols, *b.coo())
    return _Complex(ranks, boundaries), expected


class TestBottomUpSweep:
    def test_divisors_match_plain_snf(self, monkeypatch, sweep_complexes):
        """Each snf takes its boundary minus the rows at the pivots one
        degree below, and finds the divisors of the whole boundary."""
        calls = []

        def recording_snf(m):
            form = snf(m)
            calls.append((m, form))
            return form

        monkeypatch.setattr(engine, "snf", recording_snf)
        skipped = 0
        count = 0
        for name, cx in sweep_complexes:
            calls.clear()
            engine.homology(cx, "z")
            assert len(calls) == cx.spec.rank, name
            lower = ()
            for k, (m, form) in enumerate(calls, start=1):
                b = cx.boundary(k)
                assert (list(m.stored())
                        == list(b.without_rows(lower).stored())), (name, k)
                assert form.divisors == snf(b).divisors, (name, k)
                skipped += len(lower)
                lower = form.pivot_cols
            count += 1
        assert count == 66
        assert skipped > 0

    def test_first_boundary_skips_nothing_then_each_takes_its_lower_pivots(
            self, monkeypatch):
        calls = []

        def recording_snf(m):
            form = snf(m)
            calls.append((m, form))
            return form

        monkeypatch.setattr(engine, "snf", recording_snf)
        cx = build_complex(CoxeterSpec("A", 4), engine.braid_system(5, 2))
        engine.homology(cx, "z")
        assert list(calls[0][0].stored()) == list(cx.boundary(1).stored())
        for k, ((_, lower), (m, _)) in enumerate(zip(calls, calls[1:]),
                                                 start=2):
            assert lower.pivot_cols
            assert list(m.stored()) == list(
                cx.boundary(k).without_rows(lower.pivot_cols).stored())

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_mod_p_sweep_matches_plain_ranks(self, monkeypatch,
                                             sweep_complexes, p):
        """Each F_p rank skips the rows at the F_p pivots one degree below,
        and the groups equal those of ranking every whole boundary."""
        calls = []

        def recording_rank_mod_p(m, q):
            form = rank_mod_p(m, q)
            calls.append((m, form))
            return form

        monkeypatch.setattr(engine, "rank_mod_p", recording_rank_mod_p)
        dropped = 0
        for name, cx in sweep_complexes:
            calls.clear()
            groups = engine.homology(cx, f"f:{p}")
            top = cx.spec.rank
            plain = {k: rank_mod_p(cx.boundary(k), p).rank
                     for k in range(1, top + 1)}
            assert groups == [
                AbelianGroup(cx.rank(k) - plain.get(k, 0) - plain.get(k + 1, 0))
                for k in range(top + 1)], name
            assert len(calls) == top, name
            lower = ()
            for k, (m, form) in enumerate(calls, start=1):
                b = cx.boundary(k)
                assert (list(m.stored())
                        == list(b.without_rows(lower).stored())), (name, k)
                dropped += b.nnz() - m.nnz()
                lower = form.pivot_cols
        assert dropped > 0

    def test_boundaries_compose_to_zero_until_a_sign_flips(
            self, sweep_complexes):
        flips = 0
        for name, cx in sweep_complexes:
            for k in range(1, cx.spec.rank):
                low, high = cx.boundary(k), cx.boundary(k + 1)
                assert product_is_zero(low, high), (name, k)
                high = exact(high)
                live = {j for _, j, _ in low.stored()}
                hit = next(((r, c) for r, c in sorted(high.entries)
                            if r in live), None)
                if hit is None:
                    continue
                entries = dict(high.entries)
                entries[hit] = -entries[hit]
                flipped = IntMatrix(high.nrows, high.ncols, entries)
                assert not product_is_zero(low, flipped), (name, k, hit)
                flips += 1
        assert flips > 0

    @settings(max_examples=150, deadline=None)
    @given(chain_complexes())
    def test_random_chain_complexes(self, complex_and_groups):
        cx, expected = complex_and_groups
        for k in range(2, cx.spec.rank + 1):
            low, high = exact(cx.boundary(k - 1)), exact(cx.boundary(k))
            assert (low * high).is_zero()
        assert engine.homology(cx, "z") == expected


SWEEP_PIVOTS = Path(__file__).resolve().parent / "golden" / "sweep_pivots.json"
PIVOT_ROWS = ((8, 2), (7, 3), (8, 4))


def _swept_pivots(n: int, d: int, coeff: str) -> list[list[int]]:
    """pivot_cols of each boundary of row (n, d), in degree order, as the
    bottom-up sweep of engine.homology takes them over coeff."""
    cx = build_complex(CoxeterSpec("A", n - 1), engine.braid_system(n, d))
    forms = []
    name = "rank_mod_p" if coeff != "z" else "snf"
    real = getattr(engine, name)

    def recording(*args):
        forms.append(real(*args))
        return forms[-1]

    with mock.patch.object(engine, name, recording):
        engine.homology(cx, coeff)
    return [list(form.pivot_cols) for form in forms]


@pytest.mark.parametrize("coeff", ["z", "f:3"])
@pytest.mark.parametrize("n, d", PIVOT_ROWS)
def test_sweep_takes_the_recorded_pivots(n, d, coeff):
    """The elimination kernel's pivot sequence on every swept boundary is
    pinned, not only the groups it yields: the pre-pass's storage order
    and the core's column-count heap, lower index first, fix each pivot.
    To rewrite tests/golden/sweep_pivots.json after an intended change of
    pivots, run ``python tests/test_homology_engine.py`` and review it."""
    recorded = json.loads(SWEEP_PIVOTS.read_text())
    assert _swept_pivots(n, d, coeff) == recorded[f"{n},{d}"][coeff]


if __name__ == "__main__":
    SWEEP_PIVOTS.write_text(json.dumps(
        {f"{n},{d}": {coeff: _swept_pivots(n, d, coeff)
                      for coeff in ("z", "f:3")}
         for n, d in PIVOT_ROWS}, sort_keys=True) + "\n")
