"""Homology basis and intersection pairing of the d-sheeted cover of a disk.

The curve y^d = (z - x_1)...(z - x_n) has first homology of rank
(n-1)(d-1), generated by classes a[k][i] for k = 1..n-1, i = 1..d, subject
to sum_i a[k][i] = 0 for each k.  The reduced basis keeps i = 1..d-1 in
lexicographic (k, i) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exact_linalg import CooMatrix, IntMatrix, snf


def betti1(n: int, d: int) -> int:
    return (n - 1) * (d - 1)


def boundary_components(n: int, d: int) -> int:
    return math.gcd(n, d)


def genus(n: int, d: int) -> int:
    g2 = (d - 1) * n - d - math.gcd(n, d)
    assert g2 % 2 == 0
    return 1 + g2 // 2


@dataclass(frozen=True)
class SurfaceBasis:
    """Index bookkeeping for the reduced classes a[k][i], i < d."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")

    @property
    def dim(self) -> int:
        return betti1(self.n, self.d)

    def index(self, k: int, i: int) -> int:
        """Position of a[k][i] (1-based k in 1..n-1, i in 1..d-1)."""
        if not (1 <= k <= self.n - 1 and 1 <= i <= self.d - 1):
            raise IndexError(f"a[{k}][{i}] outside basis range")
        return (k - 1) * (self.d - 1) + (i - 1)

    def labels(self) -> list[tuple[int, int]]:
        return [(k, i) for k in range(1, self.n) for i in range(1, self.d)]

    def expand(self, k: int, i: int) -> dict[int, int]:
        """Coordinates of a[k][i] for any i in 1..d (a[k][d] is dependent)."""
        i = (i - 1) % self.d + 1
        if i < self.d:
            return {self.index(k, i): 1}
        return {self.index(k, j): -1 for j in range(1, self.d)}


def _pair_aa(n: int, d: int, k: int, i: int, l: int, j: int) -> int:
    """Intersection number (a[k][i], a[l][j]) on the full symbols, i, j in 1..d.

    Congruences are mod d and coincident rules accumulate (relevant at d <= 2).
    """
    if k == l:
        v = 0
        if (j - (i + 1)) % d == 0:
            v += 1
        if (j - (i - 1)) % d == 0:
            v -= 1
        return v
    if l == k + 1:
        v = 0
        if (j - i) % d == 0:
            v -= 1
        if (j - (i + 1)) % d == 0:
            v += 1
        return v
    if l == k - 1:
        return -_pair_aa(n, d, l, j, k, i)
    return 0


def _pair_a_gamma(n: int, d: int, k: int, i: int, l: int, j: int) -> int:
    """Pairing (a[k][i], gamma[l][j]) used by the pairing-formula twist."""
    if k == l:
        v = 0
        if (j - i) % d == 0:
            v += 1
        if (j - (i + 1)) % d == 0:
            v -= 1
        return v
    if l == k + 1:
        return -1 if (j - (i + 1)) % d == 0 else 0
    if l == k - 1:
        return 1 if (j - i) % d == 0 else 0
    return 0


class IntersectionForm:
    """The intersection pairing on the reduced basis, as an integer matrix."""

    def __init__(self, n: int, d: int):
        self.basis = SurfaceBasis(n, d)
        self.n = n
        self.d = d
        labels = self.basis.labels()
        self.omega = IntMatrix([[_pair_aa(n, d, k, i, l, j)
                                 for (l, j) in labels] for (k, i) in labels])

    def pair_full(self, k: int, i: int, l: int, j: int) -> int:
        return _pair_aa(self.n, self.d, k, i, l, j)

    def pair_gamma(self, k: int, i: int, l: int, j: int) -> int:
        return _pair_a_gamma(self.n, self.d, k, i, l, j)

    def radical_rank(self) -> int:
        """Corank of the pairing; equals gcd(n, d) - 1."""
        omega = CooMatrix.from_dense(self.omega.array)
        return self.basis.dim - snf(omega).rank
