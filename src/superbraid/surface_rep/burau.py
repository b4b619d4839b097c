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

import numpy as np

from ..exact_linalg import IntMatrix


def companion(d: int) -> np.ndarray:
    """C_d, the matrix of t on Z[t]/(1 + t + .. + t^(d-1)) in the basis
    1, t, .., t^(d-2): 1 at (j+1, j) and -1 down its last column."""
    c = np.eye(d - 1, k=-1, dtype=np.int64)
    c[:, -1:] = -1
    return c


def burau(n: int, d: int, k: int) -> IntMatrix:
    """B_k: the identity except in block row k, which holds C_d at block
    column k-1, -C_d at column k and I at column k+1, truncated at the
    ends."""
    m = d - 1
    out = np.eye((n - 1) * m, dtype=np.int64)
    row = out[(k - 1) * m:k * m]
    row[:] = 0
    for col, block in ((k - 2, companion(d)), (k - 1, -companion(d)),
                       (k, np.eye(m, dtype=np.int64))):
        if 0 <= col < n - 1:
            row[:, col * m:(col + 1) * m] = block
    return IntMatrix(out)


def intertwiner(n: int, d: int) -> IntMatrix:
    """X, the direct sum over k = 1..n-1 of (-1)^(n-k) Y_d, where Y_d has
    its first column all ones, -1 on the superdiagonal and 0 elsewhere."""
    y = -np.eye(d - 1, k=1, dtype=np.int64)
    y[:, :1] = 1
    return IntMatrix(np.kron(np.diag((-1) ** np.arange(n - 1, 0, -1)), y))
