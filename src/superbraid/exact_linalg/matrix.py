"""Integer matrices: small dense values, and coordinate arrays for the
product path.

IntMatrix holds a generator, an intertwiner or a form: one read-only
numpy array, compared and hashed by value.  CooMatrix holds a boundary,
and it is the only type the Smith form, the mod-p rank and the
composition check read; CooMatrix.from_dense hands them a dense matrix.
Values of both are int64 while every |value| < 2^63, and exact Python
ints in an object array otherwise: one array path, two dtypes.  A
CooMatrix holds its rows and columns as int32 while both dimensions are
below 2^31 (int64 otherwise), so code that multiplies or offsets indices
casts them to int64 first.
"""

from __future__ import annotations

import numpy as np

# Largest |entry| for which int64 products with a given inner dimension are safe.
INT64_SAFE = 1 << 62

# Most product terms first_nonzero_product expands at once, unless one row
# of the left factor has more on its own.
PRODUCT_SLICE_TERMS = 1 << 12


def _int_array(values) -> np.ndarray:
    """values, an int64 array or equal-length rows of ints ([] is 0 x 0),
    as a 2-D array: int64 if every |value| < 2^63, else exact Python ints
    in an object array.  An int64 array is taken as it is."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        a = values
    else:
        a = np.array(values, dtype=object)
        if a.size == 0 and a.ndim < 2:
            a = a.reshape(0, 0)
        if a.ndim == 2 and np.abs(a).max(initial=0) < 1 << 63:
            a = a.astype(np.int64)
    if a.ndim != 2:
        raise ValueError("a matrix needs equal-length rows")
    return a


def _exact_if(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays, cast to exact Python ints if bound, a bound on every
    entry of the result computed from them, reaches INT64_SAFE."""
    if bound < INT64_SAFE:
        return list(arrays)
    return [a.astype(object) for a in arrays]


class IntMatrix:
    """A small dense integer matrix, held by value in one read-only numpy
    array (int64 or exact Python ints, see _int_array).

    Equal values are == and hash alike whatever their dtype, so a tuple of
    generators can key a set.  Arithmetic is numpy on the arrays, in int64
    while a bound on the result stays below INT64_SAFE, and in exact
    Python ints past it.
    """

    __slots__ = ("array",)

    def __init__(self, values):
        a = _int_array(values)
        a.flags.writeable = False
        self.array = a

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(np.eye(n, dtype=np.int64))

    @property
    def nrows(self) -> int:
        return self.array.shape[0]

    @property
    def ncols(self) -> int:
        return self.array.shape[1]

    def max_abs(self) -> int:
        return int(np.abs(self.array).max(initial=0))

    def triples(self) -> list[tuple[int, int, int]]:
        """(row, col, value) of every nonzero, sorted."""
        rows, cols = np.nonzero(self.array)
        return list(zip(rows.tolist(), cols.tolist(),
                        self.array[rows, cols].tolist()))

    def __eq__(self, other):
        return (isinstance(other, IntMatrix)
                and self.array.shape == other.array.shape
                and bool((self.array == other.array).all()))

    def __hash__(self):
        return hash((self.array.shape, tuple(self.array.ravel().tolist())))

    def __repr__(self):
        return f"IntMatrix({self.array.tolist()})"

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.array.T)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(-self.array)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.array.shape != other.array.shape:
            raise ValueError("shape mismatch")
        a, b = _exact_if(self.max_abs() + other.max_abs(),
                         self.array, other.array)
        return IntMatrix(a + b)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        a, b = _exact_if(self.ncols * self.max_abs() * other.max_abs(),
                         self.array, other.array)
        return IntMatrix(a @ b)

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

    @classmethod
    def from_dense(cls, values) -> "CooMatrix":
        """The nonzeros of a dense matrix (see _int_array), row-major."""
        a = _int_array(values)
        rows, cols = np.nonzero(a)
        return cls(*a.shape, rows, cols, a[rows, cols])

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

    def triples(self) -> list[tuple[int, int, int]]:
        order = np.lexsort((self.cols, self.rows))
        return list(zip(self.rows[order].tolist(), self.cols[order].tolist(),
                        self.vals[order].tolist()))

    def __repr__(self):
        return f"CooMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _runs(keys: np.ndarray, order: np.ndarray):
    """The distinct values of keys, ascending, and the end of each one's
    run in keys[order], for order a stable argsort of keys."""
    ordered = keys[order]
    ends = np.append(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1,
                     ordered.size)
    return ordered[ends - 1], ends


def first_nonzero_product(a: CooMatrix,
                          b: CooMatrix) -> tuple[int, int] | None:
    """The least (row, col) at which a*b is nonzero, or None if a*b == 0.

    Exact.  Neither factor is copied or sorted: the function holds a
    stable order of a's entries by row and one of b's by row, with the
    count of b's entries in each row, and each slice gathers its entries
    through them.  a's entries are
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
    ai, ak, av = a.rows, a.cols, a.vals
    bk, bj, bv = b.rows, b.cols, b.vals
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


def product_is_zero(a: CooMatrix, b: CooMatrix) -> bool:
    """Exact test a*b == 0 (see first_nonzero_product)."""
    return first_nonzero_product(a, b) is None
