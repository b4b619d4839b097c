"""Pass only if a tier-1 run failed exactly on the two documented criteria.

    python .github/scripts/check_tier1.py JUNIT_XML

Reads the JUnit XML that ``pytest --junitxml`` writes and exits 0 when the
failed or errored tests are exactly criteria 04 and 07 of
tests/test_acceptance.py (see README "Tests and acceptance"), else 1.  A
missing or unreadable report also fails.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED = {
    "tests.test_acceptance::test_criterion_04_golden_tables",
    "tests.test_acceptance::test_criterion_07_series",
}


def failed_ids(path: str) -> set[str]:
    return {f"{case.get('classname')}::{case.get('name')}"
            for case in ET.parse(path).getroot().iter("testcase")
            if case.find("failure") is not None
            or case.find("error") is not None}


def main(argv: list[str]) -> int:
    failed = failed_ids(argv[0])
    for name in sorted(failed - EXPECTED):
        print(f"unexpected failure: {name}")
    for name in sorted(EXPECTED - failed):
        print(f"expected failure did not fail: {name}")
    print(f"{len(failed)} failed; expected exactly {len(EXPECTED)}")
    return 0 if failed == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
