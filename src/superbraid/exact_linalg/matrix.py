"""Sparse integer matrices: exact Python-int maps and coordinate arrays.

Both types expose the same read-only members, so the elimination kernel and
the composition check each load either one the same way: nrows and ncols,
nnz, max_abs, coo (the nonzeros in storage order as arrays) and triples
(sorted).  Values are int64 while every |value| < 2^63, and exact Python
ints in an object array otherwise: one array path, two dtypes.  A
CooMatrix holds its rows and columns as int32 while both dimensions are
below 2^31 (int64 otherwise), so code that multiplies or offsets indices
casts them to int64 first; IntMatrix.coo() hands out int64.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# Largest |entry| for which int64 products with a given inner dimension are safe.
INT64_SAFE = 1 << 62

# Most product terms first_nonzero_product expands at once, unless one row
# of the left factor has more on its own.
PRODUCT_SLICE_TERMS = 1 << 12


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

    def triples(self) -> list[tuple[int, int, int]]:
        return sorted((i, j, v) for (i, j), v in self.entries.items())

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows and columns in storage order as int64 arrays, and the values
        as int64 if every |value| < 2^63, else as exact Python ints in an
        object array."""
        n = len(self.entries)
        ij = np.fromiter(chain.from_iterable(self.entries), dtype=np.int64,
                         count=2 * n).reshape(n, 2)
        dtype = np.int64 if self.max_abs() < 1 << 63 else object
        v = np.fromiter(self.entries.values(), dtype=dtype, count=n)
        return ij[:, 0], ij[:, 1], v

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


class CooMatrix:
    """Integer matrix held as three arrays: the row, column and value of
    each nonzero, in the order the entries were written.

    Rows and columns are int32 when both dimensions are below 2^31, and
    int64 otherwise; the constructor casts them, and this is the only
    place that chooses.  So an index product or offset, such as a key
    row * ncols + col, must be taken in int64.  No (row, col) repeats and
    no value is zero.  The values are int64 with every |value| < 2^63, so
    abs and negation cannot wrap, or, once some entry is past that, exact
    Python ints in an object array.  The arrays are shared, never written
    after construction.
    """

    __slots__ = ("nrows", "ncols", "rows", "cols", "vals")

    def __init__(self, nrows: int, ncols: int, rows: np.ndarray,
                 cols: np.ndarray, vals: np.ndarray):
        index = np.int32 if max(nrows, ncols) < 1 << 31 else np.int64
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows.astype(index, copy=False)
        self.cols = cols.astype(index, copy=False)
        self.vals = vals

    def nnz(self) -> int:
        return len(self.vals)

    def max_abs(self) -> int:
        return int(np.abs(self.vals).max(initial=0))

    def without_rows(self, rows) -> "CooMatrix":
        """The same shape with every entry in the named rows dropped; the
        matrix itself when it stores none of them."""
        keep = ~np.isin(self.rows, np.fromiter(rows, dtype=np.int64))
        if keep.all():
            return self
        return CooMatrix(self.nrows, self.ncols, self.rows[keep],
                         self.cols[keep], self.vals[keep])

    def stored(self):
        """(row, col, value) of every nonzero, in storage order."""
        return zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist())

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values in storage order."""
        return self.rows, self.cols, self.vals

    def triples(self) -> list[tuple[int, int, int]]:
        order = np.lexsort((self.cols, self.rows))
        return list(zip(self.rows[order].tolist(), self.cols[order].tolist(),
                        self.vals[order].tolist()))

    def __repr__(self):
        return f"CooMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def exact(m: IntMatrix | CooMatrix) -> IntMatrix:
    """m as an IntMatrix, for exact arithmetic; m itself if it is one."""
    if isinstance(m, IntMatrix):
        return m
    out = IntMatrix(m.nrows, m.ncols)
    out.entries = {(i, j): v for i, j, v in m.stored()}
    return out


def _runs(keys: np.ndarray, order: np.ndarray):
    """The distinct values of keys, ascending, and the end of each one's
    run in keys[order], for order a stable argsort of keys."""
    ordered = keys[order]
    ends = np.append(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1,
                     ordered.size)
    return ordered[ends - 1], ends


def first_nonzero_product(a: IntMatrix | CooMatrix,
                          b: IntMatrix | CooMatrix) -> tuple[int, int] | None:
    """The least (row, col) at which a*b is nonzero, or None if a*b == 0.

    Exact, for either matrix type on either side.  Neither factor is
    copied or sorted: the function holds a stable order of a's entries by
    row and one of b's by row, with the count of b's entries in each row,
    and each slice gathers its entries through them.  a's entries are
    joined to b's rows in numpy: the product terms of each entry of a are
    expanded with np.repeat, keyed by output cell i * b.ncols + j, sorted,
    and summed per key.  a's rows go through in ascending slices of at
    most min(nnz(a) + nnz(b), PRODUCT_SLICE_TERMS) terms (one row that is
    longer on its own makes its own slice), and the search stops at the
    first slice with a nonzero sum.  So the temporary arrays of a slice
    stay of fixed size however large the factors are.  A slice holds whole
    rows of a, so each sum is a full output entry.  The sums are int64
    when ncols * max|a| * max|b| < 2^62 and the keys when nrows * ncols <
    2^63; past either bound, a slice's values or rows are cast to exact
    Python ints first.  The keys are taken in int64 at least, whatever
    the index dtype of the factors.
    """
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    if not a.nnz() or not b.nnz():
        return None
    ai, ak, av = a.coo()
    bk, bj, bv = b.coo()
    exact_sums = a.ncols * a.max_abs() * b.max_abs() >= INT64_SAFE
    key_type = object if a.nrows * b.ncols >= 1 << 63 else np.int64
    by_k = np.argsort(bk, kind="stable")
    k_ids, k_end = _runs(bk, by_k)
    k_count = np.diff(k_end, prepend=0)
    # Each row of b that holds entries, its entry count and its first
    # entry in by_k; then row b.nrows, past every k, with none.
    k_ids = np.append(k_ids, b.nrows).astype(bk.dtype)
    k_start = np.append(k_end - k_count, 0)
    k_count = np.append(k_count, 0)

    def b_rows(k):
        """For each k, the position in k_ids of row k of b (if it holds
        entries) and its entry count."""
        at = np.searchsorted(k_ids, k)
        count = k_count[at]
        count[k_ids[at] != k] = 0
        return at, count

    by_row = np.argsort(ai, kind="stable")
    _, row_end = _runs(ai, by_row)
    # Cumulative term count at the end of each row of a; slices cut there.
    terms = b_rows(ak[by_row])[1]
    done = np.cumsum(terms, out=terms)[row_end - 1]
    del terms
    budget = min(a.nnz() + b.nnz(), PRODUCT_SLICE_TERMS)
    lo = r = 0  # entry (in by_row) and row where the next slice starts
    while r < len(row_end):
        base = done[r - 1] if r else 0
        r = max(int(np.searchsorted(done, base + budget, side="right")), r + 1)
        hi = int(row_end[r - 1])
        total = int(done[r - 1] - base)
        if total:
            entries = by_row[lo:hi]
            line, count = b_rows(ak[entries])
            start = np.cumsum(count) - count
            at = by_k[np.arange(total)
                      + np.repeat(k_start[line] - start, count)]
            keys = (np.repeat(ai[entries].astype(key_type), count) * b.ncols
                    + bj[at])
            vals = av[entries]
            if exact_sums:
                vals = vals.astype(object)
            vals = np.repeat(vals, count) * bv[at]
            order = np.argsort(keys)
            keys, vals = keys[order], vals[order]
            cells = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
            hit = np.flatnonzero(np.add.reduceat(vals, cells))
            if hit.size:
                return divmod(int(keys[cells[hit[0]]]), b.ncols)
        lo = hi
    return None


def product_is_zero(a: IntMatrix | CooMatrix,
                    b: IntMatrix | CooMatrix) -> bool:
    """Exact test a*b == 0 (see first_nonzero_product)."""
    return first_nonzero_product(a, b) is None
