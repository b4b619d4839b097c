"""End-to-end tests for the command-line front end."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import superbraid
from superbraid.cli.fixtures import UNKNOWN, fixture
from superbraid.cli.main import (
    _cell_status,
    _golden_report,
    _injected_fault_report,
    _poly_text,
    _window,
    build_parser,
    main,
)
from superbraid.exact_linalg import AbelianGroup
from superbraid.homology_engine import HomologyTable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTwist:
    def test_first_twist_matrix(self, capsys):
        code, out, _ = run(capsys, "twist", "--n", "3", "--d", "2", "--k", "1")
        assert code == 0
        assert out.strip() == "[[1, -1], [0, 1]]"

    def test_json_includes_convention(self, capsys):
        code, out, _ = run(capsys, "twist", "--n", "3", "--d", "2",
                           "--k", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"n", "d", "k", "construction", "order",
                                "matrix"}
        assert payload["matrix"] == [[1, -1], [0, 1]]
        assert payload["construction"] == "B"
        assert payload["order"] == "left_to_right"

    def test_construction_a_is_available(self, capsys):
        code, out, _ = run(capsys, "twist", "--n", "3", "--d", "2",
                           "--k", "2", "--construction", "A",
                           "--format", "json")
        assert code == 0
        matrix = json.loads(out)["matrix"]
        assert len(matrix) == 2 and len(matrix[0]) == 2

    def test_rank_zero_module_prints_notice(self, capsys):
        code, out, _ = run(capsys, "twist", "--n", "4", "--d", "1",
                           "--k", "2")
        assert code == 0
        assert "empty matrix" in out

    def test_out_of_range_k_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "twist", "--n", "3", "--d", "2",
                           "--k", "5")
        assert code == 2
        assert "k must be in 1..2" in err

    def test_missing_argument_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["twist", "--n", "3", "--d", "2"])
        assert exc.value.code == 2


class TestHomology:
    def test_six_strand_row(self, capsys):
        code, out, _ = run(capsys, "homology", "--n", "6", "--d", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["H_0 = 0", "H_1 = Z_2", "H_2 = Z_2 + Z_2",
                         "H_3 = Z_2 + Z_6", "H_4 = Z", "H_5 = Z"]

    def test_json_carries_fingerprint(self, capsys):
        code, out, _ = run(capsys, "homology", "--n", "3", "--d", "3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["fingerprint"]["construction"] == "B"
        assert payload["groups"][1] == {"i": 1, "rank": 0, "torsion": [3]}

    def test_trivial_coefficients(self, capsys):
        code, out, _ = run(capsys, "homology", "--n", "4", "--trivial")
        assert code == 0
        assert out.strip().splitlines() == ["H_0 = Z", "H_1 = Z",
                                            "H_2 = Z_2", "H_3 = 0"]

    def test_modular_rows_use_field_notation(self, capsys):
        code, out, _ = run(capsys, "homology", "--n", "4", "--d", "2",
                           "--coeff", "f:2")
        assert code == 0
        assert "F_2^" in out
        assert "Z" not in out

    def test_d_without_reference_rows(self, capsys):
        code, out, _ = run(capsys, "homology", "--n", "5", "--d", "7")
        assert code == 0
        assert out.strip().splitlines() == ["H_0 = 0", "H_1 = Z_7",
                                            "H_2 = Z_7", "H_3 = Z_7",
                                            "H_4 = 0"]

    def test_rank_zero_module_row(self, capsys):
        code, out, _ = run(capsys, "homology", "--n", "3", "--d", "1")
        assert code == 0
        assert all(line.endswith("= 0") for line in out.strip().splitlines())

    def test_bad_coefficient_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["homology", "--n", "4", "--coeff", "f:4"])
        assert exc.value.code == 2
        assert ("argument --coeff: invalid value 'f:4': 4 is not prime"
                in capsys.readouterr().err)


@pytest.mark.parametrize("argv, option", [
    (["homology", "--n", "0"], "--n"),
    (["homology", "--n", "3", "--d", "0"], "--d"),
    (["twist", "--n", "3", "--d", "0", "--k", "1"], "--d"),
    (["table", "--d", "0", "--n-max", "3"], "--d"),
    (["series", "--p", "2", "--max-q", "0"], "--max-q"),
    (["series", "--p", "2", "--mode", "local", "--max-t", "0"], "--max-t"),
    (["table", "--d", "2", "--n-max", "0"], "--n-max"),
    (["table", "--d", "2", "--n-max", "-3"], "--n-max"),
    (["homology", "--n", "x"], "--n"),
    (["table", "--d", "2", "--n-max", "2.5"], "--n-max"),
])
def test_non_positive_size_is_a_usage_error(argv, option, capsys):
    value = argv[argv.index(option) + 1]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument {option}: invalid value {value!r}: "
            f"{value} is not a positive integer") in err
    assert "Traceback" not in err


class TestPrimeArguments:
    """Prime moduli are certified quickly or refused with a usage error."""

    HUGE = 10**400 + 1  # past 2^64, so no primality certificate applies
    BIG_PRIME = 10**18 + 3

    @pytest.mark.parametrize("argv", [
        ["homology", "--n", "3", "--coeff", f"f:{HUGE}"],
        ["series", "--p", str(HUGE)],
        ["homology", "--n", "3", "--coeff", f"f:{BIG_PRIME - 2}"],
        ["series", "--p", str(BIG_PRIME + 2)],
    ])
    def test_uncertified_modulus_is_a_usage_error(self, argv, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["homology", "--n", "3", "--coeff", f"f:{BIG_PRIME}"],
        ["series", "--p", str(BIG_PRIME)],
    ])
    def test_large_prime_is_accepted_at_once(self, argv):
        start = time.perf_counter()
        build_parser().parse_args(argv)
        assert time.perf_counter() - start < 1.0

    def test_large_prime_field_row(self, capsys):
        code, out, _ = run(capsys, "homology", "--n", "3", "--coeff",
                           f"f:{self.BIG_PRIME}")
        assert code == 0
        assert out.strip().splitlines() == ["H_0 = 0", "H_1 = 0", "H_2 = 0"]


class TestTable:
    def test_agreeing_window_exits_zero(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "2", "--n-max", "7")
        assert code == 0
        assert "MISMATCH" not in out
        assert "[MATCH]" in out
        assert "NOT-IN-REFERENCE" in out

    def test_documented_disagreement_exits_one(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "4", "--n-max", "8")
        assert code == 1
        assert out.count("MISMATCH") == 2
        assert "2 cell(s) differ from the reference" in out

    def test_disagreement_cells_in_json(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "4", "--n-max", "8",
                           "--format", "json")
        assert code == 1
        payload = json.loads(out)
        cells = {(m["n"], m["i"]) for m in payload["mismatches"]}
        assert cells == {(8, 4), (8, 5)}

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "2", "--n-max", "4",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,i,rank,torsion"
        assert "4,1,0,2;2" in lines

    def test_json_cells_in_row_and_degree_order(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "2", "--n-max", "4",
                           "--format", "json")
        assert code == 0
        keys = [(cell["n"], cell["i"]) for cell in json.loads(out)["cells"]]
        assert keys == [(n, i) for n in range(1, 5) for i in range(n)]

    def test_rank_zero_module_table(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "1", "--n-max", "5")
        assert code == 0
        assert "empty table" in out

    def test_json_is_identical_on_warm_cache(self, capsys, tmp_path):
        argv = ("table", "--d", "3", "--n-max", "6", "--format", "json",
                "--cache-dir", str(tmp_path))
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert code == 0
        assert first == second
        assert list(tmp_path.iterdir())

    def test_d_without_reference_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "7", "--n-max", "4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mismatches"] == []
        assert len(payload["cells"]) == 10
        assert {c["status"] for c in payload["cells"]} == {"NOT-IN-REFERENCE"}

    def test_unmeasured_reference_cell_is_unknown(self):
        status, printed = _cell_status(fixture(6), 10, 4,
                                       AbelianGroup.from_divisors(0, (6,)))
        assert status == "UNKNOWN"
        assert printed is None

    def test_unmeasured_cell_does_not_gate_the_diff(self):
        fix = fixture(6)
        cells = {(10, 0): AbelianGroup.from_divisors(0, ())}
        for i in range(1, 10):
            printed = fix.cell(10, i)
            if printed is UNKNOWN or printed is None:
                cells[(10, i)] = AbelianGroup.from_divisors(99, ())
            else:
                cells[(10, i)] = printed
        table = HomologyTable(6, "z", {"test": True}, cells)
        report = _golden_report(6, table)
        assert report.ok
        assert report.checked == 8


class TestSeries:
    def test_stable_two_local_text(self, capsys):
        code, out, _ = run(capsys, "series", "--p", "2", "--mode", "stable",
                           "--max-q", "11")
        assert code == 0
        assert out.strip() == ("q + q^2 + 2q^3 + 3q^4 + 4q^5 + 5q^6 + 7q^7"
                               " + 9q^8 + 11q^9 + 14q^10 + 17q^11")

    def test_local_rows_are_odd_only(self, capsys):
        code, out, _ = run(capsys, "series", "--p", "2", "--mode", "local",
                           "--max-q", "7", "--max-t", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t^3: q"
        assert lines[1] == "t^5: q + q^2 + q^3"
        assert all(int(line.split(":")[0][2:]) % 2 == 1 for line in lines)

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "series", "--p", "3", "--mode", "local",
                           "--max-q", "5", "--max-t", "5", "--format",
                           "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 3 and payload["mode"] == "local"
        assert [1, 3, 1] in payload["coeffs"]

    def test_composite_p_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--p", "4"])
        assert exc.value.code == 2
        assert ("argument --p: invalid value '4': 4 is not prime"
                in capsys.readouterr().err)

    def test_poly_text_renders_constants_and_units(self):
        assert _poly_text([0, 1, 2], "q") == "q + 2q^2"
        assert _poly_text([3], "q") == "3"
        assert _poly_text([0, 0], "q") == "0"


class TestVerify:
    def test_small_window_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--window", "2:5,3:5")
        assert code == 0
        assert "golden-table d=2: pass" in out
        assert "covering-iso d=1 d'=3 p=2: pass" in out
        assert "failures" not in out

    def test_window_with_documented_disagreement_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--window", "4:8",
                           "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["failures"] == ["golden-table d=4"]
        by_name = {c["name"]: c for c in payload["checks"]}
        assert not by_name["golden-table d=4"]["ok"]
        assert len(by_name["golden-table d=4"]["violations"]) == 2
        assert by_name["torsion-law d=4"]["ok"]
        assert by_name["universal-coefficients p=2 d=4"]["ok"]

    def test_empty_window_is_vacuous(self, capsys):
        code, out, err = run(capsys, "verify", "--window", "")
        assert code == 0
        assert out == ""
        assert "vacuously" in err

    def test_empty_window_json_is_an_empty_report(self, capsys):
        code, out, err = run(capsys, "verify", "--window", "",
                             "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["window"] == {}
        assert payload["checks"] == [] and payload["failures"] == []
        assert "vacuously" in err

    def test_window_without_references_runs_every_law(self, capsys):
        """d = 7 has no reference table: the golden-table and highlight
        checks are left out, and every law still runs on the computed
        rows."""
        code, out, _ = run(capsys, "verify", "--window", "7:6",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["window"] == {"7": 6}
        checked = {c["name"]: c["checked"] for c in payload["checks"]}
        assert checked == {
            "calibration d=7": 3,
            "torsion-law d=7": 21,
            "stability d=7": 4,
            "unstable-free-part d=7": 9,
            "universal-coefficients p=2 d=7": 21,
            "universal-coefficients p=3 d=7": 21,
            "universal-coefficients p=5 d=7": 21,
        }
        assert payload["failures"] == []

    def test_rank_zero_module_is_certified_like_the_rest(self, capsys):
        code, out, _ = run(capsys, "verify", "--window", "1:4",
                           "--format", "json")
        assert code == 0
        (report,) = [c for c in json.loads(out)["checks"]
                     if c["name"] == "calibration d=1"]
        assert report["ok"] and report["checked"] == 3
        assert report["notes"] == ["B/left_to_right: match"]

    def test_injected_fault_is_caught(self, capsys):
        code, out, _ = run(capsys, "verify", "--window", "",
                           "--inject-fault")
        assert code == 1
        assert "injected sign flip" in out
        assert "failures:" in out

    def test_verify_imports_no_scipy(self):
        """A verify run in a fresh interpreter leaves scipy unimported."""
        call = ("import sys; from superbraid.cli.main import main; "
                "code = main(['verify', '--window', '2:4,3:4']); "
                "print('scipy imported:', 'scipy' in sys.modules, "
                "file=sys.stderr); sys.exit(code)")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(superbraid.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", call],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "scipy imported: False" in proc.stderr

    def test_package_import_leaves_numpy_unloaded(self):
        """import superbraid.cli loads no numerics: the entry point and
        the reference tables live in modules of their own."""
        call = ("import sys, superbraid.cli; "
                "print('numpy imported:', 'numpy' in sys.modules)")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(superbraid.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", call],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "numpy imported: False\n"

    def test_injected_fault_report_shape(self):
        report = _injected_fault_report()
        assert not report.ok
        assert report.checked == 1
        assert report.violations == (
            "injected sign flip at boundary(3)[0,1]: "
            "boundary composition is nonzero",)

    def test_json_reports_variant_and_fingerprints(self, capsys):
        code, out, _ = run(capsys, "verify", "--window", "2:4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "suite" not in payload
        assert "t_variant" not in payload
        assert payload["fingerprints"]["2"]["order"] == "left_to_right"
        assert payload["window"] == {"2": 4}

    def test_window_parser(self):
        assert _window("2:10,6:8") == {2: 10, 6: 8}
        assert _window("  ") == {}
        with pytest.raises(ValueError, match="'2' is not d:n_max"):
            _window("2")
        with pytest.raises(ValueError, match="'2:x' is not d:n_max"):
            _window("2:x")
        with pytest.raises(ValueError, match="needs d >= 1"):
            _window("0:5")
        with pytest.raises(ValueError, match="repeats d = 2"):
            _window("2:2,2:3")


class TestExitCodes:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    BAD_WINDOWS = {
        "0:5": "window entry '0:5' needs d >= 1 and n_max >= 1",
        "2:0": "window entry '2:0' needs d >= 1 and n_max >= 1",
        "2:2,2:3": "window repeats d = 2",
        "2:x": "window entry '2:x' is not d:n_max",
    }

    @pytest.mark.parametrize("window", list(BAD_WINDOWS))
    def test_bad_window_exits_two(self, capsys, window):
        """The usage error names the reason, not only the option."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--window", window])
        assert exc.value.code == 2
        assert (f"argument --window: invalid value {window!r}: "
                f"{self.BAD_WINDOWS[window]}" in capsys.readouterr().err)

    def test_suite_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "reference"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --suite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option, mode", [
        (["series", "--p", "2", "--mode", "stable", "--max-t", "3"],
         "--max-t", "--mode stable"),
        (["homology", "--n", "4", "--d", "5", "--trivial"],
         "--d", "--trivial"),
        (["homology", "--n", "4", "--trivial", "--cache-dir", "X"],
         "--cache-dir", "--trivial"),
    ], ids=["series-stable-max-t", "homology-trivial-d",
            "homology-trivial-cache-dir"])
    def test_option_its_mode_ignores_is_refused(
            self, capsys, tmp_path, monkeypatch, argv, option, mode):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"argument {option}: not allowed with {mode}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, default", [
        (["series", "--p", "2", "--mode", "local"], ["--max-t", "9"]),
        (["homology", "--n", "4"], ["--d", "2"])], ids=["series", "homology"])
    def test_defaults_apply_where_the_option_is_read(self, capsys, argv,
                                                     default):
        json_argv = argv + ["--format", "json"]
        assert (run(capsys, *json_argv)
                == run(capsys, *json_argv, *default))

    @pytest.mark.parametrize("argv", [
        ["table", "--d", "2", "--n-max", "3"],
        ["homology", "--n", "3"],
        ["verify", "--window", "2:3", "--format", "json"],
        ["table", "--d", "1", "--n-max", "3"],
        ["verify", "--window", ""]],
        ids=["table", "homology", "verify", "table-d1", "verify-empty"])
    def test_empty_cache_dir_maps_to_two(self, capsys, tmp_path, monkeypatch,
                                         argv):
        """An empty --cache-dir names no directory; Path('') would be the
        working directory, which must stay clean."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--cache-dir", "")
        assert (code, out) == (2, "")
        assert err.startswith("cache error: ")
        assert list(tmp_path.iterdir()) == []

    def test_resource_limit_maps_to_three(self, capsys, monkeypatch):
        from superbraid.homology_engine import calibrate

        calibrate(2)
        monkeypatch.delenv("SUPERBRAID_CACHE", raising=False)
        monkeypatch.setenv("SUPERBRAID_BIT_BUDGET", "64")
        code, _, err = run(capsys, "homology", "--n", "6", "--d", "2")
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize("text", [
        '{"fingerprint": {}, "groups": [', '{"fingerprint": {"construction": '
        '"A"}, "groups": [], "version": 1}'])
    def test_cache_error_maps_to_two(self, capsys, tmp_path, text):
        (tmp_path / "h_A_3_2_z.json").write_text(text)
        code, out, err = run(capsys, "homology", "--n", "3", "--d", "2",
                             "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("cache error: ")
        assert err.count("\n") == 1

    @staticmethod
    def _cached_row(tmp_path, torsion, d=2, **h1):
        """A cache file for row (3, d) over Z whose H_1 has this torsion
        (and the fields in h1), written by hand, as a corrupt or foreign
        cache would hold it."""
        from superbraid.homology_engine import calibrate

        blob = {"n": 3, "d": d, "coeff": "z", "version": 1,
                "fingerprint": calibrate(d).fingerprint(),
                "groups": [{"i": 0, "rank": 0, "torsion": []},
                           {"i": 1, "rank": 0, "torsion": torsion, **h1},
                           {"i": 2, "rank": 0, "torsion": []}]}
        (tmp_path / f"h_A_3_{d}_z.json").write_text(json.dumps(blob))

    def test_warm_run_reads_large_prime_torsion_promptly(self, tmp_path):
        """A cached Z_(2^61 - 1), or its square, is settled by a primality
        certificate, not by trial division up to its square root (about
        200 s).  The run is a child process with a timeout, so a stall
        fails instead of hanging the suite."""
        p = 2**61 - 1
        self._cached_row(tmp_path, [p, p**2])
        env = dict(os.environ,
                   PYTHONPATH=str(Path(superbraid.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "superbraid.cli.main", "homology",
             "--n", "3", "--d", "2", "--cache-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1] == f"H_1 = Z_{p} + Z_{p**2}"

    def test_verify_reads_large_prime_torsion_promptly(self, tmp_path):
        """verify over a cached Z_(2^61 - 1) in row (3, 3) reports the
        torsion law's violation at once: the laws factor through
        prime_factors, not a division loop up to the prime.  The run is a
        child process with a timeout, as above."""
        self._cached_row(tmp_path, [2**61 - 1], d=3)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(superbraid.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "superbraid.cli.main", "verify",
             "--window", "3:3", "--cache-dir", str(tmp_path),
             "--format", "json"],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 1, proc.stderr
        assert "torsion-law d=3" in json.loads(proc.stdout)["failures"]

    @pytest.mark.parametrize("torsion", [[6], [1], [2.0]])
    def test_cached_torsion_beyond_certified_prime_powers_maps_to_two(
            self, capsys, tmp_path, torsion):
        self._cached_row(tmp_path, torsion)
        code, out, err = run(capsys, "homology", "--n", "3", "--d", "2",
                             "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("cache error: ")
        assert "unreadable groups" in err

    @pytest.mark.parametrize("value", [1.5, 2.0, True, -1, "1"])
    @pytest.mark.parametrize("field", ["rank", "i"])
    def test_cached_rank_or_degree_not_an_int_maps_to_two(
            self, capsys, tmp_path, field, value):
        """A rank of 1.5 would print as Z^1.5, and a degree of True would
        be read as degree 1."""
        self._cached_row(tmp_path, [2], **{field: value})
        code, out, err = run(capsys, "homology", "--n", "3", "--d", "2",
                             "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("cache error: ")
        assert "unreadable groups" in err

    def test_row_copied_to_another_name_maps_to_two(self, capsys, tmp_path):
        """Row (4, 3) copied to the name of row (5, 3) is not served: it
        has four groups, the computed row five, with H_3 = Z_3."""
        code, _, _ = run(capsys, "homology", "--n", "4", "--d", "3",
                         "--cache-dir", str(tmp_path))
        assert code == 0
        shutil.copy(tmp_path / "h_A_4_3_z.json", tmp_path / "h_A_5_3_z.json")
        code, out, err = run(capsys, "homology", "--n", "5", "--d", "3",
                             "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("cache error: ") and err.count("\n") == 1
        assert "holds row" in err

    @pytest.mark.parametrize("field, value", [
        ("n", 4), ("n", 3.0), ("d", 3), ("coeff", "f2"), ("coeff", None)])
    def test_cached_row_of_another_request_maps_to_two(
            self, capsys, tmp_path, field, value):
        self._cached_row(tmp_path, [2])
        path = tmp_path / "h_A_3_2_z.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    field: value}))
        code, out, err = run(capsys, "homology", "--n", "3", "--d", "2",
                             "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("cache error: ") and err.count("\n") == 1
        assert "holds row" in err

    def test_cached_row_with_a_degree_too_few_maps_to_two(self, capsys,
                                                         tmp_path):
        self._cached_row(tmp_path, [2])
        path = tmp_path / "h_A_3_2_z.json"
        blob = json.loads(path.read_text())
        blob["groups"].pop()
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, "homology", "--n", "3", "--d", "2",
                             "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("cache error: ")
        assert "holds 2 degrees, not 3" in err

    @pytest.mark.parametrize("argv, row", [
        (("homology", "--n", "4", "--d", "3"), "h_A_4_3_z.json"),
        (("verify", "--window", "2:4"), "h_A_4_2_z.json")])
    def test_unreadable_cache_path_maps_to_two(self, capsys, tmp_path, argv,
                                               row):
        """A directory where a row's file should be.  The tests run as
        root, which reads files whatever their mode, so a directory stands
        in for an unreadable file."""
        (tmp_path / row).mkdir()
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("cache error: ") and err.count("\n") == 1
        assert "cannot be read" in err

    @pytest.mark.parametrize("argv", [
        ("homology", "--n", "3", "--d", "2"), ("verify", "--window", "2:3")])
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_cache_dir_that_is_a_file_maps_to_two(self, capsys, tmp_path,
                                                  argv, under):
        """A --cache-dir that is a regular file, or lies under one, cannot
        be created; that is a cache error (exit 2), not a failed law."""
        (tmp_path / "file").write_text("")
        cache_dir = tmp_path / "file" / under
        code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
        assert (code, out) == (2, "")
        assert err.startswith("cache error: ") and err.count("\n") == 1
        assert f"{cache_dir / 'h_A_'}" in err and "cannot be written" in err

    def test_console_script_smoke(self):
        """The declared console script resolves and lists the subcommands.

        The ``[project.scripts]`` target is imported and called in a fresh
        interpreter, the way the installed wrapper calls it, so the check
        needs no install; an installed ``superbraid`` is checked as well.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["superbraid"]
        module, _, attr = target.partition(":")
        call = (f"import sys; from {module} import {attr}; "
                f"sys.argv = ['superbraid', '--help']; sys.exit({attr}())")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(superbraid.__file__).parents[1]))
        runs = [([sys.executable, "-c", call], env)]
        installed = shutil.which("superbraid")
        if installed:
            runs.append(([installed, "--help"], None))
        for command, run_env in runs:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  env=run_env)
            assert proc.returncode == 0, proc.stderr
            usage = proc.stdout.splitlines()[0]
            assert usage.startswith("usage: superbraid")
            choices = usage[usage.index("{") + 1:usage.index("}")]
            assert set(choices.split(",")) == {
                "twist", "homology", "table", "series", "verify"}
