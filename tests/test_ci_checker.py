"""The tier-1 workflow's verdict script, run on synthetic JUnit reports."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

CHECKER = (Path(__file__).resolve().parents[1] / ".github" / "scripts"
           / "check_tier1.py")
CRITERIA = ["test_criterion_03_calibration", "test_criterion_04_golden_tables",
            "test_criterion_05_torsion_laws", "test_criterion_07_series"]
DOCUMENTED = {"test_criterion_04_golden_tables", "test_criterion_07_series"}


def junit(failing, extra=""):
    """A report of the acceptance criteria in which the named tests fail,
    followed by the testcase elements in extra."""
    cases = "".join(
        f'<testcase classname="tests.test_acceptance" name="{name}">'
        + ('<failure message="differs"/>' if name in failing else "")
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


def test_collection_error_fails(tmp_path):
    """A module that fails to import is reported as an errored testcase
    with an empty classname and the module as its name; beside the two
    documented failures it still fails the run."""
    error = '<testcase classname="" name="tests.test_x"><error/></testcase>'
    (tmp_path / "tier1.xml").write_text(junit(DOCUMENTED, error))
    assert check(tmp_path / "tier1.xml").returncode == 1


def test_missing_report_fails(tmp_path):
    assert check(tmp_path / "tier1.xml").returncode != 0
