"""Smith normal form, modular ranks, and finitely generated abelian groups.

One sparse elimination serves Z and every prime field.  Over Z it pivots
on +-1 entries and hands what is left to a dense Smith elimination.  Over
F_p it pivots on any nonzero residue, so the remainder is empty, every
invariant factor is 1 and the pivot count is the rank.  The elimination
first peels, in numpy, the units alone in their row or column, which is
pure deletion (the elementary reduction of Kaczynski, Mrozek and
Slusarek, Comput. Math. Appl. 35 (1998)); over Z it reads the matrix's
own arrays and copies none.  An elimination over Python objects then
takes the core that is left: a dict per row, a list per column that may
still name rows that have left it, and exact column counts, with one int
object per row and column index.  It takes each pivot from the column
with fewest entries (Markowitz, Management Science 3 (1957), restricted
to the columns of least count as in Zlatev, SIAM J. Numer. Anal. 17
(1980)), found in a heap of column counts.  It reads every matrix as
coordinate arrays (m.coo()), whose values are int64 or exact Python ints
in an object array, so an entry past int64 takes the same path.  It
eliminates every stored entry: a caller that drops rows, as the bottom-up
sweep of engine.homology does, hands it m.without_rows(...).
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .matrix import CooMatrix, IntMatrix
from .primes import prime_power_base, require_prime


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors of an integer matrix.

    divisors holds the nonzero invariant factors d_1 | d_2 | ... (all >= 1);
    rank == len(divisors).  pivot_cols holds the input column of each unit
    pivot the sparse phase peeled, one per unit divisor it accounts for: a
    +-1 entry over Z, any nonzero residue over F_p (see rank_mod_p).  The
    columns are distinct and linearly independent over the ring.
    """

    divisors: tuple[int, ...]
    nrows: int
    ncols: int
    pivot_cols: tuple[int, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.divisors)


def _rho_factor(n: int) -> int | None:
    """A proper factor of the odd n, found by Pollard's rho method in
    Brent's form (Brent, BIT 20 (1980)), or None.

    The least prime factor p of n is found in about sqrt(p) <= n^(1/4)
    steps, so each of three polynomials x^2 + c gets a few times n^(1/4)
    steps.  None means that none of them split n, as for a prime n.
    """
    budget = 4 * math.isqrt(math.isqrt(n)) + 128
    for c in (1, 2, 3):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1 and r <= budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y  # where this batch starts, to retrace it if g == n
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def _least_prime(n: int, f: int = 2) -> int:
    """The least prime factor of n > 1, given that it is at least f.

    Trial division, cut short once f reaches 64.  If n is a power of a
    prime that require_prime certifies, that prime is the answer;
    otherwise a Pollard rho step splits n and each part is treated alike.
    So a large prime part costs one certificate and a product of large
    primes a few rho steps, not sqrt(n) divisions.  Only a part that no
    certificate covers and rho does not split, one with a prime factor of
    2^64 or more, is divided up to its square root.
    """
    split = True
    while f * f <= n:
        if n % f == 0:
            return f
        if f >= 64 and split:
            split = False
            try:
                return prime_power_base(n)
            except ValueError:
                pass
            d = _rho_factor(n)
            if d:
                return min(_least_prime(d, f), _least_prime(n // d, f))
        f += 1
    return n


def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """The factorisation of n >= 1 as ((p, k), ...), p ascending, e.g.
    360 -> ((2, 3), (3, 2), (5, 1)) and 1 -> (); each p is the least
    prime factor of what is left, found by _least_prime."""
    if n < 1:
        raise ValueError(f"{n} is not a positive integer")
    out = []
    f = 2
    while n > 1:
        f = _least_prime(n, f)
        k = 0
        while n % f == 0:
            n //= f
            k += 1
        out.append((f, k))
    return tuple(out)


def _primary_parts(q: int) -> list[int]:
    """Prime-power factors of q > 1, ascending, e.g. 12 -> [3, 4]."""
    return sorted(p**k for p, k in prime_factors(q))


def _invariant_chain(primary: tuple[int, ...]) -> list[int]:
    """Invariant factors q_1 | q_2 | ... rebuilt from prime-power parts."""
    by_prime: dict[int, list[int]] = {}
    for q in primary:  # ascending, so each prime's powers ascend
        by_prime.setdefault(_least_prime(q), []).append(q)
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

    @functools.cached_property
    def _primary(self) -> tuple[int, ...]:
        return tuple(sorted(pk for q in self.torsion
                            for pk in _primary_parts(q)))

    def primary(self) -> tuple[int, ...]:
        """The prime-power parts of the torsion, ascending.

        Each group factors its torsion once and keeps the parts in a cached
        property, outside the dataclass fields, so ==, hash and repr are
        unchanged.
        """
        return self._primary

    def p_primary_count(self, p: int) -> int:
        return sum(1 for pk in self.primary() if pk % p == 0)

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


# ---------------------------------------------------------------------------
# Sparse unit-pivot elimination, over Z or over F_p
# ---------------------------------------------------------------------------


def _ring_entries(m: IntMatrix | CooMatrix, p: int):
    """Rows, columns and values of m's entries that are nonzero over the
    ring, in storage order.

    Over Z these are m's own arrays (m.coo()), not copies.  Over F_p the
    values are reduced mod p, cast to object first when p is past 2^63 so
    every residue stays exact, and the three arrays are copied, without
    the entries whose residue is zero, only when some residue is zero.
    The rows and columns keep m's index dtype (int32 or int64, see
    CooMatrix), and the values m's value dtype.
    """
    rows, cols, vals = m.coo()
    if not p:
        return rows, cols, vals
    if p >= 1 << 63:
        vals = vals.astype(object)
    vals = vals % p
    kept = vals != 0
    if kept.all():
        return rows, cols, vals
    return rows[kept], cols[kept], vals[kept]


def _peel_unit_singletons(rows, cols, unit):
    """Pivot on the units alone in their row or column, round by round.

    rows and cols locate the entries, unit flags the units among them.
    Removing such a pivot (i, j) is pure deletion of row i and column j:
    alone in its column, it needs no row update; alone in its row, it
    only clears the rest of its column.  Each round counts the live
    entries per row and per column, keeps of the unit singletons the
    first per row, then the first per column, in storage order, and drops
    their rows and columns.  Those pivots lie in distinct rows and
    columns, and deleting one leaves every other a singleton, so taken
    together they are a valid sequence of unit pivots.  Rounds repeat
    until one finds none.  A round holds the live entries' indices, their
    rows and columns, and byte masks.  Returns (the pivot columns in the
    order taken, the indices of the entries left).
    """
    live = np.arange(len(rows))
    pivot_cols: list[int] = []
    while live.size:
        r, c = rows[live], cols[live]
        in_row, in_col = np.bincount(r), np.bincount(c)
        found = np.flatnonzero(unit[live]
                               & ((in_row[r] == 1) | (in_col[c] == 1)))
        if not found.size:
            break
        for line, size in ((r, in_row.size), (c, in_col.size)):
            at = line[found]
            first = np.full(size, live.size)  # least candidate per line
            np.minimum.at(first, at, found)
            found = found[first[at] == found]
        pivot_cols.extend(c[found].tolist())
        dead_rows = np.zeros(in_row.size, dtype=bool)
        dead_rows[r[found]] = True
        dead_cols = np.zeros(in_col.size, dtype=bool)
        dead_cols[c[found]] = True
        live = live[~(dead_rows[r] | dead_cols[c])]
    return pivot_cols, live


# Core entries the dict stage of _unit_pivot_phase converts to Python
# objects at once.
CORE_CHUNK = 1 << 10


def _unit_pivot_phase(m: IntMatrix | CooMatrix,
                      p: int = 0) -> tuple[list[int], list[list[int]]]:
    """Eliminate unit pivots sparsely; over Z when p == 0, else over F_p.

    Over Z the units are the +-1 entries and the row operations are
    unimodular.  Over F_p the entries are reduced mod p, zeros are
    dropped, and every stored residue is a unit, so the remainder comes
    back empty and the pivot count is the rank.  Returns (the column of
    each pivot, one per unit invariant factor peeled off, dense
    remainder).

    Two stages, one path for every ring and matrix type.  First numpy
    peels the units alone in their row or column (_peel_unit_singletons),
    which costs no arithmetic; m's storage order (m.coo()) fixes which.
    Then the entries left, the core, load in chunks of CORE_CHUNK into row
    maps and column lists, with one int object per row and column index,
    and a heap of (entry count, column) picks each pivot: the sparsest
    live column, and in it the unit in the shortest row, the lower index
    breaking ties.  A column's list keeps rows that have left it until the
    column is popped; its exact entry count is kept beside it.  Counts go
    stale in the heap as rows are updated, so a popped column whose count
    changed is pushed back with its current count.  Over Z a column with
    no +-1 is set aside, and pushed back when a row update writes a +-1
    into it.  The heap empties when no unit is left: over Z the remainder
    holds no +-1, over F_p it is empty.
    """
    row_of, col_of, vals = _ring_entries(m, p)
    # Over F_p every residue is a unit; over Z only +-1 is.
    unit = (np.ones(vals.size, dtype=bool) if p
            else (vals == 1) | (vals == -1))
    pivot_cols, core = _peel_unit_singletons(row_of, col_of, unit)
    del unit
    rows: dict[int, dict[int, int]] = {}
    # By column index: the rows of the column, among them perhaps rows that
    # have left it since, and its exact entry count.
    members: list[list[int] | None] = [None] * m.ncols
    count = [0] * m.ncols
    index: dict[int, int] = {}  # one int object per row and column index
    for start in range(0, core.size, CORE_CHUNK):
        at = core[start:start + CORE_CHUNK]
        for i, j, v in zip(row_of[at].tolist(), col_of[at].tolist(),
                           vals[at].tolist()):
            i = index.setdefault(i, i)
            j = index.setdefault(j, j)
            row = rows.get(i)
            if row is None:
                row = rows[i] = {}
            row[j] = v
            col = members[j]
            if col is None:
                members[j] = [i]
            else:
                col.append(i)
            count[j] += 1
    del index, core
    # Heap keys are count * width + column, which order as (count, column).
    width = m.ncols
    heap = [n * width + j for j, n in enumerate(count) if n]
    heapq.heapify(heap)
    parked: set[int] = set()  # over Z, the live columns that hold no +-1
    while heap:
        n, j = divmod(heapq.heappop(heap), width)
        live = count[j]
        if live != n:  # the count changed, or the column is gone
            if live:
                heapq.heappush(heap, live * width + j)
            else:  # pivoted, or emptied by cancellation
                members[j] = None
            continue
        col = members[j] = [r for r in members[j] if j in rows.get(r, ())]
        units = [(len(rows[r]), r) for r in col
                 if p or rows[r][j] in (1, -1)]
        if not units:
            parked.add(j)
            continue
        _, i = min(units)
        pivot_row = rows.pop(i)
        for jj in pivot_row:
            count[jj] -= 1
        count[j], members[j] = 0, None
        # Scale the pivot row so the pivot is 1; each row update is then
        # row_r -= c * pivot_row, with c the entry of row_r in column j.
        v = pivot_row.pop(j)
        inv = pow(v, -1, p) if p else v  # over Z, v = +-1 is its own inverse
        others = [(jj, vv * inv % p if p else vv * inv)
                  for jj, vv in pivot_row.items()]
        for r in col:
            row_r = rows.get(r)
            c = row_r.pop(j, None) if row_r is not None else None
            if c is None:  # the pivot row, or a row listed twice
                continue
            for jj, vv in others:
                x = row_r.get(jj)
                if x is None:  # fill-in: -c * vv is nonzero, also mod p
                    w = -c * vv % p if p else -c * vv
                    row_r[jj] = w
                    members[jj].append(r)
                    count[jj] += 1
                else:
                    w = (x - c * vv) % p if p else x - c * vv
                    if not w:
                        del row_r[jj]
                        count[jj] -= 1
                        continue
                    row_r[jj] = w
                if jj in parked and (w == 1 or w == -1):  # wake it
                    parked.discard(jj)
                    heapq.heappush(heap, count[jj] * width + jj)
            if not row_r:
                del rows[r]
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
# Public operations
# ---------------------------------------------------------------------------


def snf(m: IntMatrix | CooMatrix) -> SmithForm:
    """Smith normal form with an ascending divisor chain.

    Peels +-1 pivots sparsely, then finishes the remainder densely.
    pivot_cols serve the bottom-up sweep in engine.homology.
    """
    pivot_cols, dense = _unit_pivot_phase(m)
    rest = _dense_snf(dense) if dense and dense[0] else []
    divisors = [1] * len(pivot_cols) + rest
    return SmithForm(tuple(divisors), m.nrows, m.ncols,
                     pivot_cols=tuple(pivot_cols))


def rank_mod_p(m: IntMatrix | CooMatrix, p: int) -> SmithForm:
    """Smith form of the matrix over the prime field F_p.

    p must be a certified prime below 2^64 (see require_prime); anything
    else raises ValueError.  The form comes from the sparse elimination that
    snf uses, run mod p: every nonzero residue is a unit pivot, so nothing
    is left for a dense remainder, the divisors are (1,) * rank, and
    pivot_cols holds the column of each pivot.  Like snf's, those columns
    serve the bottom-up sweep in engine.homology.
    """
    require_prime(p)
    pivot_cols, _ = _unit_pivot_phase(m, p)
    return SmithForm((1,) * len(pivot_cols), m.nrows, m.ncols,
                     pivot_cols=tuple(pivot_cols))
