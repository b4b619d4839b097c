"""Sparse integer matrices with exact arbitrary-precision entries."""

from __future__ import annotations

import numpy as np

# Largest |entry| for which int64 products with a given inner dimension are safe.
INT64_SAFE = 1 << 62


class IntMatrix:
    """Integer matrix stored as a {(row, col): value} map plus explicit shape.

    Entries are Python ints (never overflow); zeros are not stored.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: dict | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], int] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                if v:
                    self.entries[(i, j)] = int(v)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    ent[(i, j)] = int(v)
        return cls(nrows, ncols, ent)

    @classmethod
    def from_triples(cls, nrows: int, ncols: int, triples) -> "IntMatrix":
        """Build from an iterable of (row, col, value); repeats accumulate."""
        m = cls(nrows, ncols)
        for i, j, v in triples:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
            if v:
                w = m.entries.get((i, j), 0) + int(v)
                if w:
                    m.entries[(i, j)] = w
                else:
                    m.entries.pop((i, j), None)
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(nrows, ncols)

    # -- views -------------------------------------------------------------

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def to_numpy(self) -> np.ndarray:
        if self.max_abs() >= INT64_SAFE:
            raise OverflowError("entries too large for int64 view")
        a = np.zeros((self.nrows, self.ncols), dtype=np.int64)
        for (i, j), v in self.entries.items():
            a[i, j] = v
        return a

    def triples(self) -> list[tuple[int, int, int]]:
        return sorted((i, j, v) for (i, j), v in self.entries.items())

    def rows_map(self) -> dict[int, dict[int, int]]:
        rows: dict[int, dict[int, int]] = {}
        for (i, j), v in self.entries.items():
            rows.setdefault(i, {})[j] = v
        return rows

    # -- basic queries -----------------------------------------------------

    def nnz(self) -> int:
        return len(self.entries)

    def max_abs(self) -> int:
        return max((abs(v) for v in self.entries.values()), default=0)

    def is_zero(self) -> bool:
        return not self.entries

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.ncols, self.nrows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(
            self.nrows, self.ncols, {k: -v for k, v in self.entries.items()}
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        ent = dict(self.entries)
        for k, v in other.entries.items():
            w = ent.get(k, 0) + v
            if w:
                ent[k] = w
            else:
                ent.pop(k, None)
        return IntMatrix(self.nrows, self.ncols, ent)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """Exact product, sparse accumulation."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        other_rows = other.rows_map()
        acc: dict[tuple[int, int], int] = {}
        for (i, k), v in self.entries.items():
            row = other_rows.get(k)
            if not row:
                continue
            for j, w in row.items():
                key = (i, j)
                s = acc.get(key, 0) + v * w
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return IntMatrix(self.nrows, other.ncols, acc)

    def pow(self, e: int) -> "IntMatrix":
        if self.nrows != self.ncols or e < 0:
            raise ValueError("pow needs a square matrix and e >= 0")
        out = IntMatrix.identity(self.nrows)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out


def product_is_zero(a: IntMatrix, b: IntMatrix) -> bool:
    """Exact test a*b == 0, using an int64 sparse product when provably safe."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    if not a.entries or not b.entries:
        return True
    bound = a.ncols * a.max_abs() * b.max_abs()
    if bound < INT64_SAFE:
        from scipy import sparse

        ai, aj, av = zip(*((i, j, v) for (i, j), v in a.entries.items()))
        bi, bj, bv = zip(*((i, j, v) for (i, j), v in b.entries.items()))
        sa = sparse.coo_matrix(
            (np.array(av, dtype=np.int64), (ai, aj)), shape=(a.nrows, a.ncols)
        ).tocsr()
        sb = sparse.coo_matrix(
            (np.array(bv, dtype=np.int64), (bi, bj)), shape=(b.nrows, b.ncols)
        ).tocsr()
        return (sa @ sb).count_nonzero() == 0
    return (a * b).is_zero()
