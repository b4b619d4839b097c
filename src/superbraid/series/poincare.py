"""Reference generating series for the mod-p twisted homology ranks."""

from __future__ import annotations

from ..exact_linalg import require_prime
from ..homology_engine.laws import Report
from .bivariate import BivariateSeries


def local_series(p: int, max_q: int, max_t: int) -> BivariateSeries:
    """Mod-p dimensions, graded by degree (q) and strand count (t).

    The infinite product is truncated at the first factor whose numerator
    t-degree 2p^j exceeds max_t; later factors are 1 within the window.
    """
    require_prime(p)
    if max_q < 1 or max_t < 1:
        raise ValueError("truncation orders must be >= 1")

    def mono(i, n):
        return BivariateSeries.monomial(max_q, max_t, i, n)

    one = BivariateSeries.one(max_q, max_t)
    out = mono(1, 3)
    out = out * (one - mono(2, 2)).geometric_inverse()
    out = out * (one - mono(0, 2)).geometric_inverse()
    j = 0
    while 2 * p**j <= max_t:
        out = out * (one + mono(2 * p**j - 1, 2 * p**j))
        out = out * (one - mono(2 * p**(j + 1) - 2,
                                2 * p**(j + 1))).geometric_inverse()
        j += 1
    return out


def local_series_collapsed(max_q: int, max_t: int) -> BivariateSeries:
    """The p = 2 local series with every product factor collapsed.

    At p = 2 each factor satisfies (1 + u)/(1 - u^2) = 1/(1 - u), and the
    leading collapsed factor is the 1/(1 - t^2) prefactor itself, leaving
    a plain geometric product.
    """
    if max_q < 1 or max_t < 1:
        raise ValueError("truncation orders must be >= 1")

    def mono(i, n):
        return BivariateSeries.monomial(max_q, max_t, i, n)

    one = BivariateSeries.one(max_q, max_t)
    out = mono(1, 3)
    out = out * (one - mono(2, 2)).geometric_inverse()
    out = out * (one - mono(0, 2)).geometric_inverse()
    i = 1
    while 2**i <= max_t:
        out = out * (one - mono(2**i - 1, 2**i)).geometric_inverse()
        i += 1
    return out


def stable_series(p: int, max_q: int) -> BivariateSeries:
    """One-variable limit of the local series for large strand counts.

    A product factor is included while its numerator degree 2p^j - 1 fits
    the window; its denominator contributes from twice that degree on and
    truncates automatically.
    """
    require_prime(p)
    if max_q < 1:
        raise ValueError("truncation order must be >= 1")

    def mono(i):
        return BivariateSeries.monomial(max_q, 0, i, 0)

    one = BivariateSeries.one(max_q, 0)
    out = mono(1) * (one - mono(2)).geometric_inverse()
    j = 0
    while 2 * p**j - 1 <= max_q:
        out = out * (one + mono(2 * p**j - 1))
        out = out * (one - mono(2 * p**(j + 1) - 2)).geometric_inverse()
        j += 1
    return out


def compare_local(p: int, d: int, table) -> Report:
    """Mod-p ranks of an integer table against the local series, odd rows.

    The mod-p rank of a cell is its free rank plus its count of p-primary
    factors (the tensor part only, which is what the series grades).
    """
    if d % p != 0:
        raise ValueError(f"p={p} must divide d={d}")
    if table.coeff != "z" or table.d != d:
        raise ValueError(f"need an integer-coefficient table for d={d}")
    ns = [n for n in table.n_values() if n % 2 == 1]
    notes = ()
    if not ns:
        return Report(f"local-series p={p} d={d}", True, 0, (),
                      ("no odd rows in the window",))
    series = local_series(p, max(max(ns) - 1, 1), max(ns))
    violations = []
    checked = 0
    for n in ns:
        for i in range(n):
            g = table.cell(n, i)
            if g is None:
                continue
            dim = g.rank + g.p_primary_count(p)
            want = series.coefficient(i, n)
            checked += 1
            if dim != want:
                violations.append(
                    f"(n={n}, i={i}): table gives F_{p}-rank {dim}, "
                    f"series coefficient is {want}")
    return Report(f"local-series p={p} d={d}", not violations, checked,
                  tuple(violations), notes)
