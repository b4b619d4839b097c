"""Smith normal form, modular ranks, and homology groups of integer chain pairs."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .matrix import IntMatrix, product_is_zero


class CompositionError(ValueError):
    """Raised when a claimed chain pair does not compose to zero."""


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors of an integer matrix.

    divisors holds the nonzero invariant factors d_1 | d_2 | ... (all >= 1);
    rank == len(divisors).  When transforms were requested, U and V are
    unimodular with U * M * V equal to the diagonal of divisors (padded with
    zeros to the matrix shape).  pivot_cols holds the input column of each
    +-1 pivot the sparse phase peeled, one per unit divisor it accounts for
    (empty on the transform path).
    """

    divisors: tuple[int, ...]
    nrows: int
    ncols: int
    U: IntMatrix | None = None
    V: IntMatrix | None = None
    pivot_cols: tuple[int, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.divisors)


def _primary_parts(q: int) -> list[int]:
    """Prime-power factors of q > 1, e.g. 12 -> [4, 3]."""
    out = []
    n = q
    f = 2
    while f * f <= n:
        if n % f == 0:
            pk = 1
            while n % f == 0:
                pk *= f
                n //= f
            out.append(pk)
        f += 1
    if n > 1:
        out.append(n)
    return sorted(out)


def _invariant_chain(primary: tuple[int, ...]) -> list[int]:
    """Invariant factors q_1 | q_2 | ... rebuilt from prime-power parts."""
    by_prime: dict[int, list[int]] = {}
    for q in primary:  # ascending, so each prime's powers ascend
        p = next(f for f in range(2, q + 1) if q % f == 0)
        by_prime.setdefault(p, []).append(q)
    chain: list[int] = []
    for powers in by_prime.values():
        for k, q in enumerate(reversed(powers)):
            if k == len(chain):
                chain.append(1)
            chain[k] *= q
    return chain[::-1]


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus a torsion chain.

    torsion is the invariant-factor chain restricted to entries > 1 (ascending
    divisibility when produced by snf).  Equality and hashing use the primary
    decomposition, so AbelianGroup(0, (6,)) == AbelianGroup(0, (2, 3)).
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0 or any(q < 2 for q in self.torsion):
            raise ValueError("rank must be >= 0 and torsion entries > 1")
        object.__setattr__(self, "torsion", tuple(int(q) for q in self.torsion))

    def primary(self) -> tuple[int, ...]:
        out: list[int] = []
        for q in self.torsion:
            out.extend(_primary_parts(q))
        return tuple(sorted(out))

    def primary_counter(self) -> Counter:
        return Counter(self.primary())

    def p_primary_count(self, p: int) -> int:
        return sum(1 for pk in self.primary() if pk % p == 0)

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __eq__(self, other):
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.rank == other.rank and self.primary() == other.primary()

    def __hash__(self):
        return hash((self.rank, self.primary()))

    def __add__(self, other: "AbelianGroup") -> "AbelianGroup":
        merged = sorted((*self.primary(), *other.primary()))
        return AbelianGroup(self.rank + other.rank, tuple(merged))

    def describe(self) -> str:
        """Render as Z^r (+) Z_q terms, 0 for the trivial group.

        The torsion prints as its invariant-factor chain, so equal groups
        print alike whichever decomposition they were built from.
        """
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z_{q}" for q in _invariant_chain(self.primary()))
        return " + ".join(parts) if parts else "0"

    @classmethod
    def from_divisors(cls, rank: int, divisors) -> "AbelianGroup":
        return cls(rank, tuple(int(d) for d in divisors if d > 1))


# ---------------------------------------------------------------------------
# Dense SNF (classic elimination; exact Python ints)
# ---------------------------------------------------------------------------


def _dense_snf(a: list[list[int]]) -> list[int]:
    """In-place Smith elimination; returns the nonzero invariant factors."""
    R = len(a)
    C = len(a[0]) if R else 0
    divisors: list[int] = []
    t = 0
    while True:
        # locate a smallest-magnitude nonzero pivot in the trailing block
        piv = None
        best = None
        for i in range(t, R):
            row = a[i]
            for j in range(t, C):
                v = row[j]
                if v:
                    av = abs(v)
                    if best is None or av < best:
                        best, piv = av, (i, j)
                        if av == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
        p = a[t][t]
        # sweep the pivot column, then the pivot row; restart if the pivot shrank
        dirty = False
        for r in range(t + 1, R):
            v = a[r][t]
            if v:
                q, rem = divmod(v, p)
                if q:
                    ar, at = a[r], a[t]
                    for c in range(t, C):
                        ar[c] -= q * at[c]
                if rem:
                    dirty = True
        if dirty:
            continue
        for c in range(t + 1, C):
            v = a[t][c]
            if v:
                q, rem = divmod(v, p)
                if q:
                    for r in range(t, R):
                        a[r][c] -= q * a[r][t]
                if rem:
                    dirty = True
        if dirty:
            continue
        # pivot row and column are clear; force divisibility of the remainder
        offender = None
        for r in range(t + 1, R):
            row = a[r]
            for c in range(t + 1, C):
                if row[c] % p:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            ar, at = a[offender], a[t]
            for c in range(t, C):
                at[c] += ar[c]
            continue
        divisors.append(p)
        t += 1
        if t == R or t == C:
            break
    return divisors


def _dense_snf_transforms(
    a: list[list[int]],
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith elimination carrying unimodular row (U) and column (V) transforms."""
    R = len(a)
    C = len(a[0]) if R else 0
    U = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    V = [[1 if i == j else 0 for j in range(C)] for i in range(C)]
    divisors: list[int] = []
    t = 0
    while True:
        piv = None
        best = None
        for i in range(t, R):
            for j in range(t, C):
                v = a[i][j]
                if v:
                    av = abs(v)
                    if best is None or av < best:
                        best, piv = av, (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
            U[t], U[i] = U[i], U[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            for row in V:
                row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
            U[t] = [-v for v in U[t]]
        p = a[t][t]
        dirty = False
        for r in range(t + 1, R):
            v = a[r][t]
            if v:
                q, rem = divmod(v, p)
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[t])]
                    U[r] = [x - q * y for x, y in zip(U[r], U[t])]
                if rem:
                    dirty = True
        if dirty:
            continue
        for c in range(t + 1, C):
            v = a[t][c]
            if v:
                q, rem = divmod(v, p)
                if q:
                    for r in range(R):
                        a[r][c] -= q * a[r][t]
                    for r in range(C):
                        V[r][c] -= q * V[r][t]
                if rem:
                    dirty = True
        if dirty:
            continue
        offender = None
        for r in range(t + 1, R):
            for c in range(t + 1, C):
                if a[r][c] % p:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            U[t] = [x + y for x, y in zip(U[t], U[offender])]
            continue
        divisors.append(p)
        t += 1
        if t == R or t == C:
            break
    return divisors, U, V


# ---------------------------------------------------------------------------
# Sparse unit-pivot compression
# ---------------------------------------------------------------------------


def _unit_pivot_phase(
    m: IntMatrix, skip_rows=frozenset(),
) -> tuple[list[int], list[list[int]]]:
    """Eliminate +-1 pivots with unimodular operations.

    Rows in skip_rows are dropped first.  Returns (the column of each pivot,
    one per unit invariant factor peeled off, dense remainder).  Pivot
    choice approximates minimal Markowitz fill among unit entries.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    units: dict[tuple[int, int], None] = {}
    for (i, j), v in m.entries.items():
        if i in skip_rows:
            continue
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)
        if abs(v) == 1:
            units[(i, j)] = None
    pivot_cols: list[int] = []
    while units:
        best_key = None
        best_score = None
        scanned = 0
        stale = []
        for key in units:
            i, j = key
            row = rows.get(i)
            if row is None or row.get(j, 0) not in (1, -1):
                stale.append(key)
                continue
            score = (len(row) - 1) * (len(cols[j]) - 1)
            if best_score is None or score < best_score:
                best_score, best_key = score, key
                if score == 0:
                    break
            scanned += 1
            if scanned >= 32:
                break
        for key in stale:
            units.pop(key, None)
        if best_key is None:
            continue
        units.pop(best_key, None)
        i, j = best_key
        pivot_row = rows.pop(i)
        v = pivot_row[j]
        # remove the pivot row from all column indices
        for jj in pivot_row:
            s = cols.get(jj)
            if s is not None:
                s.discard(i)
                if not s:
                    del cols[jj]
        for r in list(cols.get(j, ())):
            row_r = rows[r]
            c = row_r.get(j)
            if not c:
                cols[j].discard(r)
                continue
            factor = c * v  # v in {1,-1} so c/v == c*v
            for jj, vv in pivot_row.items():
                if jj == j:
                    w = 0
                else:
                    w = row_r.get(jj, 0) - factor * vv
                if w:
                    row_r[jj] = w
                    cols.setdefault(jj, set()).add(r)
                    if abs(w) == 1:
                        units[(r, jj)] = None
                else:
                    if row_r.pop(jj, None) is not None:
                        s = cols.get(jj)
                        if s is not None:
                            s.discard(r)
                            if not s:
                                del cols[jj]
            if not row_r:
                del rows[r]
        cols.pop(j, None)
        pivot_cols.append(j)
    # pack the remainder densely with fresh indices
    row_ids = sorted(rows)
    col_ids = sorted({j for r in row_ids for j in rows[r]})
    col_pos = {j: k for k, j in enumerate(col_ids)}
    dense = [[0] * len(col_ids) for _ in row_ids]
    for k, r in enumerate(row_ids):
        for j, v in rows[r].items():
            dense[k][col_pos[j]] = v
    return pivot_cols, dense


# ---------------------------------------------------------------------------
# p-local elimination (valuations of invariant factors)
# ---------------------------------------------------------------------------


def plocal_valuations(m: IntMatrix, p: int, rank: int) -> list[int]:
    """p-adic valuations of the invariant factors (length == rank).

    Eliminates over Z/p^B with minimal-valuation pivots; valuations below B
    are exact, and B doubles until all rank factors are accounted for.
    """
    B = 32
    while True:
        vals = _plocal_attempt(m, p, B)
        if vals is not None and len(vals) >= rank:
            return sorted(vals)[:rank]
        if vals is not None and len(vals) < rank:
            # entries vanished mod p^B that matter over Q; deepen
            pass
        B *= 2
        if B > (1 << 16):
            raise ArithmeticError(f"p-local elimination did not converge at p={p}")


def _plocal_attempt(m: IntMatrix, p: int, B: int) -> list[int] | None:
    mod = p**B
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in m.entries.items():
        w = v % mod
        if w:
            rows.setdefault(i, {})[j] = w

    def val(x: int) -> int:
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    vals: list[int] = []
    while rows:
        best = None
        best_v = None
        for i, row in rows.items():
            for j, x in row.items():
                vx = val(x)
                if best_v is None or vx < best_v:
                    best_v, best = vx, (i, j)
                    if vx == 0:
                        break
            if best_v == 0:
                break
        if best is None:
            break
        if best_v >= B:
            return None
        i, j = best
        vals.append(best_v)
        pivot_row = rows.pop(i)
        pv = pivot_row[j]
        unit = pv // (p**best_v)
        inv_unit = pow(unit, -1, mod)
        targets = [r for r, row in rows.items() if j in row]
        for r in targets:
            row_r = rows[r]
            w = row_r[j]
            factor = ((w // (p**best_v)) * inv_unit) % mod
            for jj, vv in pivot_row.items():
                nw = (row_r.get(jj, 0) - factor * vv) % mod
                if nw:
                    row_r[jj] = nw
                else:
                    row_r.pop(jj, None)
            if not row_r:
                del rows[r]
    return vals


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def snf(m: IntMatrix, want_transforms: bool = False, *,
        skip_rows=()) -> SmithForm:
    """Smith normal form with an ascending divisor chain.

    The transform-free path peels +-1 pivots sparsely and finishes the
    remainder densely; the transform path runs the dense algorithm on the
    whole matrix (intended for small inputs such as audits and tests).

    skip_rows names rows the sparse phase drops before it eliminates.  The
    caller vouches that each lies in the integer span of the kept rows, so
    the row lattice and the divisors are those of m; the engine passes the
    pivot columns of the boundary one degree below (see _integral_groups).
    """
    if want_transforms:
        if skip_rows:
            raise ValueError("skip_rows has no transforms to report")
        a = m.to_dense()
        divisors, U, V = _dense_snf_transforms(a)
        return SmithForm(
            tuple(divisors),
            m.nrows,
            m.ncols,
            U=IntMatrix.from_dense(U) if m.nrows else IntMatrix(0, 0),
            V=IntMatrix.from_dense(V) if m.ncols else IntMatrix(0, 0),
        )
    pivot_cols, dense = _unit_pivot_phase(m, frozenset(skip_rows))
    rest = _dense_snf(dense) if dense and dense[0] else []
    divisors = [1] * len(pivot_cols) + rest
    return SmithForm(tuple(divisors), m.nrows, m.ncols,
                     pivot_cols=tuple(pivot_cols))


def snf_with_prime_hints(m: IntMatrix, primes) -> SmithForm:
    """SNF through modular ranks and p-local valuations at the hinted primes.

    Exact whenever every prime dividing some invariant factor is hinted; the
    engine hints all primes dividing the coefficient order d plus primes <= n.
    """
    pivot_cols, dense = _unit_pivot_phase(m)
    ones = len(pivot_cols)
    if not dense or not dense[0]:
        return SmithForm(tuple([1] * ones), m.nrows, m.ncols)
    rest = IntMatrix.from_dense(dense)
    r = rank_rational(rest)
    factors = [1] * r
    for p in sorted(set(primes)):
        for k, v in enumerate(plocal_valuations(rest, p, r)):
            factors[k] *= p**v
    factors.sort()
    divisors = [1] * ones + factors
    return SmithForm(tuple(divisors), m.nrows, m.ncols)


_RANK_PRIMES = (2097143, 2097133, 2097131)  # below 2^21, int64-safe elimination


def rank_rational(m: IntMatrix) -> int:
    """Rank over Q, as the largest of the ranks modulo three 21-bit primes.

    Each modular rank is a lower bound for the rational rank r: a prime
    lowers it exactly when it divides every r-by-r minor.  The largest of the
    three is therefore a lower bound too, and it is not certified: it falls
    short when all three primes divide every r-by-r minor.
    """
    return max(rank_mod_p(m, p) for p in _RANK_PRIMES)


def _rank_mod_p_numpy(a: np.ndarray, p: int) -> int:
    a = np.mod(a, p)
    R, C = a.shape
    rank = 0
    row = 0
    for col in range(C):
        if row == R:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row] = (a[row] * inv) % p
        below = np.nonzero(a[row + 1 :, col])[0]
        if below.size:
            idx = below + row + 1
            a[idx] = (a[idx] - np.outer(a[idx, col], a[row])) % p
        rank += 1
        row += 1
    return rank


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank of the matrix over the prime field F_p."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    if m.nrows == 0 or m.ncols == 0 or not m.entries:
        return 0
    if p < (1 << 21):
        return _rank_mod_p_numpy(m.to_numpy() % p, p)
    # arbitrary-precision fallback
    rows = [dict(r) for r in m.rows_map().values()]
    rank = 0
    for row in rows:
        for k in list(row):
            row[k] %= p
            if not row[k]:
                del row[k]
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            j = min(row)
            if j in pivots:
                piv = pivots[j]
                f = (row[j] * pow(piv[j], -1, p)) % p
                for jj, vv in piv.items():
                    w = (row.get(jj, 0) - f * vv) % p
                    if w:
                        row[jj] = w
                    else:
                        row.pop(jj, None)
            else:
                pivots[j] = row
                rank += 1
                break
    return rank


def homology_pair(
    d_k: IntMatrix,
    d_k1: IntMatrix,
    check: bool = True,
    prime_hints=None,
) -> AbelianGroup:
    """Homology at C_k of the pair d_k: C_k -> C_(k-1), d_k1: C_(k+1) -> C_k.

    Raises CompositionError unless d_k * d_k1 == 0.  The group is
    Z^(dim C_k - rank d_k - rank d_k1) plus the torsion of the d_k1 cokernel.
    """
    if d_k.ncols != d_k1.nrows:
        raise ValueError("chain dimensions disagree")
    if check and not product_is_zero(d_k, d_k1):
        raise CompositionError("boundary pair does not compose to zero")
    if prime_hints:
        s1 = snf_with_prime_hints(d_k1, prime_hints)
        r_k = rank_rational(d_k)
    else:
        s1 = snf(d_k1)
        r_k = snf(d_k).rank
    free = d_k.ncols - r_k - s1.rank
    if free < 0:
        raise ArithmeticError("negative free rank; ranks are inconsistent")
    return AbelianGroup.from_divisors(free, s1.divisors)
