"""Golden outputs: commands whose exact stdout and exit code are pinned.

Each case runs in-process through ``superbraid.cli.main.main`` and compares
its stdout byte for byte with ``tests/golden/<name>.stdout``; the exit codes
are pinned in ``tests/golden/cases.json``.  The verify window keeps the two
documented d = 4 mismatches, (8, 4) and (8, 5), so that case exits 1.

To rewrite the snapshots after an intended change of output, run
``python tests/test_golden.py`` from the repository root and review the diff.
"""

import json
from pathlib import Path

import pytest

from superbraid.cli.main import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    case = CASES[name]
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.stdout").read_text()


if __name__ == "__main__":
    import contextlib
    import io

    for name, case in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(case["argv"]))
        if code != case["exit"]:
            print(f"{name}: exit {code}, cases.json pins {case['exit']}")
        (GOLDEN / f"{name}.stdout").write_text(buf.getvalue())
