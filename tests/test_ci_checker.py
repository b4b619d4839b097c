"""The tier-1 workflow's verdict script, run on synthetic JUnit reports."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest

CHECKER = (Path(__file__).resolve().parents[1] / ".github" / "scripts"
           / "check_tier1.py")
CRITERIA = ["test_criterion_03_calibration", "test_criterion_04_golden_tables",
            "test_criterion_05_torsion_laws", "test_criterion_07_series"]
DOCUMENTED = {"test_criterion_04_golden_tables", "test_criterion_07_series"}

# The failure messages of the documented failures, as a tier-1 run writes
# them (abridged after the names the checker reads).
CELL_04 = ("(d=4, n=8, i={i}): computed Z_2 + Z_2 + Z_12, printed Z_2 + Z_2 "
           "+ Z_2 + Z_12")
SERIES_07 = ("AssertionError: stable series p={p}: computed [0, 1, 1, 1, 1, "
             "2, 3, 3, 3, 4, 5, 5, 5], printed [0, 1, 1, 1, 1, 2, 3, 3, 3, 4, "
             "5, 5, 6]\n  local reports:\n"
             "  local-series p=2 d=2: pass (25 cells checked)\n"
             "  local-series p=3 d=3: pass (25 cells checked)")
MESSAGES = {
    "test_criterion_04_golden_tables":
        "AssertionError: " + "; ".join(CELL_04.format(i=i) for i in (4, 5)),
    "test_criterion_07_series": SERIES_07.format(p=3),
}


def junit(failing, extra="", messages=None):
    """A report of the acceptance criteria in which the named tests fail,
    with the messages in messages or else those of MESSAGES, followed by
    the testcase elements in extra."""
    messages = {**MESSAGES, **(messages or {})}
    cases = "".join(
        f'<testcase classname="tests.test_acceptance" name="{name}">'
        + (f"<failure message={quoteattr(messages.get(name, 'differs'))}/>"
           if name in failing else "")
        + "</testcase>" for name in CRITERIA)
    return f"<testsuites><testsuite>{cases}{extra}</testsuite></testsuites>"


def check(path):
    return subprocess.run([sys.executable, str(CHECKER), str(path)],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("failing, code", [
    (DOCUMENTED, 0),
    (DOCUMENTED | {"test_criterion_05_torsion_laws"}, 1),
    (DOCUMENTED - {"test_criterion_07_series"}, 1),
])
def test_verdict(tmp_path, failing, code):
    (tmp_path / "tier1.xml").write_text(junit(failing))
    assert check(tmp_path / "tier1.xml").returncode == code


@pytest.mark.parametrize("messages", [
    {"test_criterion_04_golden_tables":
        "AssertionError: " + "; ".join(CELL_04.format(i=i) for i in (4, 6))},
    {"test_criterion_07_series": SERIES_07.format(p=2)},
    {"test_criterion_07_series": MESSAGES["test_criterion_07_series"]
        + "\n  local-series p=2 d=4: FAIL (25 cells checked)"},
], ids=["04-other-cell", "07-p2", "07-local-report"])
def test_documented_criterion_failing_for_another_reason_fails(tmp_path,
                                                               messages):
    """Criteria 04 and 07 count as documented only while their messages
    name exactly the documented cells and series."""
    (tmp_path / "tier1.xml").write_text(junit(DOCUMENTED, messages=messages))
    result = check(tmp_path / "tier1.xml")
    assert result.returncode == 1
    assert "expected [" in result.stdout


def test_collection_error_fails(tmp_path):
    """A module that fails to import is reported as an errored testcase
    with an empty classname and the module as its name; beside the two
    documented failures it still fails the run."""
    error = '<testcase classname="" name="tests.test_x"><error/></testcase>'
    (tmp_path / "tier1.xml").write_text(junit(DOCUMENTED, error))
    assert check(tmp_path / "tier1.xml").returncode == 1


def skip(classname, name):
    return (f'<testcase classname="{classname}" name="{name}">'
            '<skipped message="skipped"/></testcase>')


def test_unexpected_skip_fails(tmp_path):
    """A skip marker on a failing test would otherwise hide its failure."""
    skipped = skip("tests.test_cli.TestTwist", "test_first_twist_matrix")
    (tmp_path / "tier1.xml").write_text(junit(DOCUMENTED, skipped))
    result = check(tmp_path / "tier1.xml")
    assert result.returncode == 1
    assert "unexpected skip: tests.test_cli.TestTwist::" in result.stdout


def test_tomllib_skip_passes_only_below_python_3_11(tmp_path):
    """The console-script smoke test skips by design where the standard
    library has no tomllib, and only there."""
    skipped = skip("tests.test_cli.TestExitCodes", "test_console_script_smoke")
    (tmp_path / "tier1.xml").write_text(junit(DOCUMENTED, skipped))
    code = check(tmp_path / "tier1.xml").returncode
    assert code == (0 if sys.version_info < (3, 11) else 1)


def test_missing_report_fails(tmp_path):
    assert check(tmp_path / "tier1.xml").returncode != 0
