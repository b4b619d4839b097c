"""Per-layer tracing from outside the program.

``install()`` replaces the public names that superbraid's callers look up
(for example ``homology_engine.engine.snf``) with wrappers that count calls
and self time, and derive counts from the public return values.  Self time
is a span's duration minus the time covered by the traced spans it caused,
so ``build_complex`` reports block assembly net of coset enumeration and
the composition check.  The cost of deriving counts is excluded from every
span.  Nothing is written to the program's stdout.
"""

from __future__ import annotations

import time
from collections import defaultdict

# The one count that is a maximum, not a sum.
MAX_BITS = "coxeter_complex.boundary.max_entry_bits"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)
        self._children = []  # time covered by child spans, one slot per open span

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                # Calls that raise (a rejected calibration candidate) still
                # count, so their time is not charged to the caller.
                elapsed = time.perf_counter() - start
                children = self._children.pop()
                observed = 0.0
                if observe is not None and out is not None:
                    t0 = time.perf_counter()
                    observe(self, out, *args, **kwargs)
                    observed = time.perf_counter() - t0
                if self._children:
                    self._children[-1] += elapsed + observed
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                self.total_s[name] += elapsed
            return out

        return traced

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.keys.items()},
        }


def _coset_key(tr, out, spec, gamma, gamma_prime, side="left"):
    tr.keys["coxeter_complex.min_coset_reps"].add(
        (spec, tuple(sorted(gamma)), tuple(sorted(gamma_prime)), side))


def _complex_stats(tr, cx, spec, rho, convention=None):
    tr.keys["coxeter_complex.build_complex"].add(
        (spec, cx.convention, tuple(rho.actions)))
    for k in range(1, spec.rank + 1):
        b = cx.boundary(k)
        tr.counts["coxeter_complex.boundary.nnz"] += b.nnz()
        bits = b.max_abs().bit_length()
        if bits > tr.counts[MAX_BITS]:
            tr.counts[MAX_BITS] = bits


def _divisors(tr, form, *args, **kwargs):
    units = sum(1 for v in form.divisors if v == 1)
    tr.counts["exact_linalg.snf.unit_divisors"] += units
    tr.counts["exact_linalg.snf.nonunit_divisors"] += len(form.divisors) - units


def _rank_cells(tr, rank, m, p):
    tr.counts["exact_linalg.rank_mod_p.cells"] += m.nrows * m.ncols


def _cache_load(tr, groups, root, family, n, d, coeff, fingerprint):
    from superbraid.homology_engine.cache import cache_path

    tr.counts["homology_engine.cache.load.hits"] += 1
    tr.counts["homology_engine.cache.load.bytes"] += cache_path(
        root, family, n, d, coeff).stat().st_size


def _cache_store(tr, path, *args, **kwargs):
    tr.counts["homology_engine.cache.store.bytes"] += path.stat().st_size


def install() -> Tracer:
    """Wrap the layer entry points of an imported superbraid; return the tracer."""
    from superbraid.cli import main as cli
    from superbraid.coxeter_complex import complexes
    from superbraid.homology_engine import engine

    tr = Tracer()
    sites = [
        (complexes, "min_coset_reps", "coxeter_complex.min_coset_reps",
         _coset_key),
        (complexes, "product_is_zero", "exact_linalg.product_is_zero", None),
        (cli, "product_is_zero", "exact_linalg.product_is_zero", None),
        (engine, "build_complex", "coxeter_complex.build_complex",
         _complex_stats),
        (cli, "build_complex", "coxeter_complex.build_complex",
         _complex_stats),
        (engine, "snf", "exact_linalg.snf", _divisors),
        (engine, "rank_mod_p", "exact_linalg.rank_mod_p", _rank_cells),
        (engine, "calibrate", "homology_engine.calibrate", None),
        (cli, "calibrate", "homology_engine.calibrate", None),
        (engine, "build_rep", "surface_rep.build_rep", None),
        (engine, "load", "homology_engine.cache.load", _cache_load),
        (engine, "store", "homology_engine.cache.store", _cache_store),
    ]
    for module, attr, name, observe in sites:
        setattr(module, attr, tr.wrap(name, getattr(module, attr), observe))
    return tr
