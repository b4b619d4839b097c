"""The reduced Burau representation at t = zeta_d, and its intertwiner with
the curve representation.

The braid group acts on H_1 of the cyclic cover y^d = prod (z - x_i) by the
reduced Burau representation at a primitive d-th root of unity (McMullen,
"Braid groups and Hodge theory", Math. Ann. 355 (2013)).  The matrices
here are written from its textbook formula, with no curve basis: an
integral, unimodular X with X * T_k = B_k * X for every generator
certifies that T_k is that action, in another basis.
"""

from __future__ import annotations

from ..exact_linalg import IntMatrix


def companion(d: int) -> dict[tuple[int, int], int]:
    """C_d, the matrix of t on Z[t]/(1 + t + .. + t^(d-1)) in the basis
    1, t, .., t^(d-2): 1 at (j+1, j) and -1 down its last column."""
    entries = {(j + 1, j): 1 for j in range(d - 2)}
    entries.update({(j, d - 2): -1 for j in range(d - 1)})
    return entries


def burau(n: int, d: int, k: int) -> IntMatrix:
    """B_k: the identity except in block row k, which holds C_d at block
    column k-1, -C_d at column k and I at column k+1, truncated at the
    ends."""
    m = d - 1
    row = (k - 1) * m
    entries = {(i, i): 1 for i in range((n - 1) * m) if i // m != k - 1}
    for col, scale in ((k - 2, 1), (k - 1, -1)):
        if col >= 0:
            entries.update({(row + i, col * m + j): scale * v
                            for (i, j), v in companion(d).items()})
    if k < n - 1:
        entries.update({(row + i, k * m + i): 1 for i in range(m)})
    return IntMatrix((n - 1) * m, (n - 1) * m, entries)


def intertwiner(n: int, d: int) -> IntMatrix:
    """X, the direct sum over k = 1..n-1 of (-1)^(n-k) Y_d, where Y_d has
    its first column all ones, -1 on the superdiagonal and 0 elsewhere."""
    m = d - 1
    entries = {}
    for k in range(1, n):
        sign, at = (-1) ** (n - k), (k - 1) * m
        for i in range(m):
            entries[(at + i, at)] = sign
            if i + 1 < m:
                entries[(at + i, at + i + 1)] = -sign
    return IntMatrix((n - 1) * m, (n - 1) * m, entries)
