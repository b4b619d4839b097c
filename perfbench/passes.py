"""One timed pass of a workload, run in a fresh interpreter by run.py.

    python perfbench/passes.py [--trace-out FILE] cli <superbraid arguments>
    python perfbench/passes.py [--trace-out FILE] rows D N1,N2,...

``cli`` runs the superbraid command line (as ``python -m
superbraid.cli.main`` would) and exits with its code.  ``rows`` calls
``braid_twisted_homology(n, D)`` for each n in the given order and prints
the integral rows as JSON.  With ``--trace-out`` the layer entry points are
wrapped first (see layers.py) and the trace is written to FILE on exit.
"""

from __future__ import annotations

import json
import sys


def _rows(d: int, ns: list[int]) -> int:
    from superbraid.homology_engine import braid_twisted_homology

    out = {}
    for n in ns:
        out[str(n)] = [[g.rank, list(g.primary())]
                       for g in braid_twisted_homology(n, d)]
    print(json.dumps(out, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    import superbraid.cli.main as cli

    tracer = None
    if trace_out is not None:
        from layers import install

        tracer = install()
    try:
        if argv[0] == "cli":
            return cli.main(argv[1:])
        if argv[0] == "rows":
            return _rows(int(argv[1]), [int(n) for n in argv[2].split(",")])
        raise SystemExit(f"unknown pass kind {argv[0]!r}")
    finally:
        if tracer is not None:
            with open(trace_out, "w") as fh:
                json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
