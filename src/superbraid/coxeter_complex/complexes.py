"""The algebraic chain complex of a finite-type Artin group.

Degree-k chains are one copy of the local-system module per k-subset of
the generators, subsets ordered colexicographically.  The boundary block
from subset Gamma to Gamma minus tau sums, over the minimal coset
representatives beta of W_{Gamma minus tau} in W_Gamma (the minima of the
cosets W_{Gamma minus tau} beta), the matrices
(-1)^(length(beta) + mu) rho(lift(beta)), where lift reads a reduced word
of beta as a positive Artin word and mu is the position of tau in Gamma
(De Concini-Salvetti, Math. Res. Lett. 3 (1996)).

W_Gamma is the direct product of the parabolics of the connected runs of
Gamma (maximal sets of consecutive generators, CoxeterSpec.runs).  So the
minimal coset representatives of W_{Gamma minus tau} in W_Gamma are
exactly those of W_{R minus tau} in W_R, where R is the run of Gamma
containing tau, for both families; they are enumerated in the run's
standalone shape, CoxeterSpec.run_shape.  The block is therefore
(-1)^mu B(R, tau), with B(R, tau) the sum over those representatives of
(-1)^length(beta) rho(lift(beta)).  Before assembly, a build computes
every B(R, tau) in one table: the runs of one length and shape share their
representatives, so each (shape, tau) is enumerated and lifted once, for
the stack of those runs.  Lifts are stacked products in the dtype of the
generators: int64, checked against 2^62 before each product and each sum,
and a stack whose check fails is lifted once more in exact Python ints (an
object array).  Each boundary is a CooMatrix whose values are int64, or
exact Python ints once some entry is past int64.

A failing composition raises :class:`BoundaryError` naming the offending
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from ..exact_linalg import CooMatrix, first_nonzero_product, product_is_zero
from ..exact_linalg.matrix import INT64_SAFE
from .groups import CoxeterSpec, min_coset_reps
from .systems import LocalSystem


@dataclass(frozen=True)
class BoundaryConvention:
    """The record of the boundary's convention: left cosets, sign base 0.

    Calibration fingerprints and cache files carry its two fields.
    """

    side: str
    mu_base: int


DEFAULT_CONVENTION = BoundaryConvention("left", 0)


class BoundaryError(RuntimeError):
    """The assembled boundaries fail to compose to zero."""

    def __init__(self, degree: int, gamma: tuple, gamma2: tuple):
        super().__init__(
            f"boundary composition d_{degree} . d_{degree + 1} is nonzero "
            f"on the block from {gamma} to {gamma2}")
        self.degree = degree
        self.gamma = gamma
        self.gamma2 = gamma2


def _subsets_colex(rank: int, k: int) -> list[tuple[int, ...]]:
    return sorted(combinations(range(rank), k), key=lambda t: t[::-1])


class ChainComplex:
    """Ranks and boundary matrices, with degree-k rank C(rank, k) * dim."""

    convention = DEFAULT_CONVENTION

    def __init__(self, spec: CoxeterSpec, dimension: int,
                 boundaries: dict[int, CooMatrix]):
        self.spec = spec
        self.dimension = dimension
        self.boundaries = boundaries

    def rank(self, k: int) -> int:
        if not 0 <= k <= self.spec.rank:
            return 0
        return math.comb(self.spec.rank, k) * self.dimension

    def boundary(self, k: int) -> CooMatrix:
        """The map from degree-k chains to degree-(k-1) chains."""
        if k in self.boundaries:
            return self.boundaries[k]
        return CooMatrix(self.rank(k - 1), self.rank(k),
                         *np.zeros((3, 0), dtype=np.int64))


def _run_block(reps, gens: np.ndarray, gen_max: int) -> np.ndarray | None:
    """B(R, tau) of each run R in a stack of one shape, in the dtype of
    gens; None if gens are int64 and an entry bound reaches 2^62.

    gens is (runs, L, dim, dim), the runs' generators, and reps is the
    shape's CosetTable, whose letters index axis 1.  Its representatives
    come in breadth-first order, so each length forms one contiguous level
    whose parents all lie in the level before.  A level is lifted for the
    whole stack by one product of the previous level's lifts, indexed by
    parent minus that level's start, and added to the blocks with its
    sign; only the previous level's lifts are kept.  On int64, a product
    is taken only if dim * max|parent| * max|generator| < 2^62, and a
    level is added only if the running bound on the blocks' entries plus
    (level size) * max|level| stays below 2^62, maxima taken over the
    stack.  The bounds are Python ints, so they cannot wrap.  Exact Python
    ints (an object array) need no bound.
    """
    limit = INT64_SAFE if gens.dtype == np.int64 else math.inf
    runs, _, dim, _ = gens.shape
    prev = np.broadcast_to(np.eye(dim, dtype=gens.dtype), (runs, 1, dim, dim))
    block = prev[:, 0].copy()
    total = 1  # bounds max |entry| of every partial sum of the blocks
    top = 1  # max |entry| over the previous level
    # Level boundaries: 0, the start of each longer length, len(reps).
    ends = np.flatnonzero(np.diff(reps.length)) + 1
    bounds = [0, *ends.tolist(), len(reps)]
    for length, (start, end) in enumerate(zip(bounds[1:], bounds[2:]), 1):
        if dim * top * gen_max >= limit:
            return None
        parents = prev[:, reps.parent[start:end] - bounds[length - 1]]
        prev = parents @ gens[:, reps.letter[start:end]]
        top = int(np.abs(prev).max(initial=0))
        total += (end - start) * top
        if total >= limit:
            return None
        block += prev.sum(axis=1) * (-1 if length % 2 else 1)
    return block


def _block_table(spec: CoxeterSpec, rho: LocalSystem) -> dict[tuple, tuple]:
    """Rows, columns and values of each B(run, tau)'s nonzeros, row-major,
    keyed by (run, tau).

    Runs of one length and shape (CoxeterSpec.run_shape, whose generator
    i is the run's run[0] + i) share their coset representatives, so their
    generators are stacked, and each tau offset asks min_coset_reps once
    and lifts the stack by one _run_block call.  A stack past the int64
    guard is lifted once more in exact ints (an object array); a block's
    values are int64 when every |value| < 2^63, else Python ints.
    """
    dim = rho.dimension
    gen_max = max((a.max_abs() for a in rho.actions), default=0)
    dtype = np.int64 if gen_max < INT64_SAFE else object
    gens = np.array([a.to_dense() for a in rho.actions],
                    dtype=dtype).reshape(spec.rank, dim, dim)
    table = {}
    for size in range(1, spec.rank + 1):
        runs = [tuple(range(a, a + size)) for a in range(spec.rank - size + 1)]
        # In ascending order a type-B run holding s_0 is the first, alone.
        for shape, group in groupby(runs, spec.run_shape):
            group = list(group)
            stack = np.stack([gens[run[0]:run[0] + size] for run in group])
            for t in range(size):
                reps = min_coset_reps(shape, tuple(range(size)),
                                      tuple(g for g in range(size) if g != t))
                blocks = _run_block(reps, stack, gen_max)
                if blocks is None:  # past the int64 guard: lift exactly
                    blocks = _run_block(reps, stack.astype(object), gen_max)
                for run, block in zip(group, blocks):
                    rr, cc = np.nonzero(block)
                    vals = block[rr, cc]
                    if (vals.dtype == object
                            and np.abs(vals).max(initial=0) < 1 << 63):
                        vals = vals.astype(np.int64)
                    table[run, run[t]] = (rr, cc, vals)
    return table


def _boundary_matrix(spec: CoxeterSpec, dim: int, k: int,
                     table: dict[tuple, tuple]) -> CooMatrix:
    """The boundary d_k, with exact Python-int values if a block has any.

    The nonzeros are stored with Gamma in colex order, then tau ascending
    in Gamma, then each block (-1)^mu B(run, tau), at row
    block Gamma - tau and column block Gamma, row-major.  The numpy
    pre-pass of the elimination reads them in that order, which fixes its
    pivots.  Each distinct block is held once and expanded over the
    (Gamma, tau) pairs that use it by np.repeat offsets.
    """
    cols = _subsets_colex(spec.rank, k)
    rows = {g: i for i, g in enumerate(_subsets_colex(spec.rank, k - 1))}
    index: dict[tuple, int] = {}  # (run, tau) -> position in parts
    parts = []
    use, r0, c0, sign = [], [], [], []
    for ci, gamma in enumerate(cols):
        run_of = {g: run for run in spec.runs(gamma) for g in run}
        for mu, tau in enumerate(gamma):
            key = (run_of[tau], tau)
            if key not in index:
                index[key] = len(parts)
                parts.append(table[key])
            use.append(index[key])
            r0.append(rows[tuple(g for g in gamma if g != tau)] * dim)
            c0.append(ci * dim)
            sign.append(-1 if mu % 2 else 1)
    sizes = np.array([len(part[2]) for part in parts], dtype=np.int64)
    br, bc, bv = (np.concatenate([part[i] for part in parts])
                  for i in range(3))
    count = sizes[use]
    # Position in br, bc, bv of each output entry: its pair's block start
    # plus its offset inside the block.
    at = np.arange(count.sum()) + np.repeat(
        (np.cumsum(sizes) - sizes)[use] - (np.cumsum(count) - count), count)
    out_rows = np.repeat(r0, count) + br[at]
    out_cols = np.repeat(c0, count) + bc[at]
    out_vals = np.repeat(sign, count) * bv[at]
    return CooMatrix(len(rows) * dim, len(cols) * dim, out_rows, out_cols,
                     out_vals)


def _boundaries(spec: CoxeterSpec, rho: LocalSystem) -> dict[int, CooMatrix]:
    """Every boundary of the complex, before the composition check."""
    table = _block_table(spec, rho)
    return {k: _boundary_matrix(spec, rho.dimension, k, table)
            for k in range(1, spec.rank + 1)}


def _locate_failure(d_low, d_high, k: int, spec: CoxeterSpec,
                    dim: int) -> BoundaryError:
    r, c = first_nonzero_product(d_low, d_high)
    gamma = _subsets_colex(spec.rank, k + 1)[c // dim]
    gamma2 = _subsets_colex(spec.rank, k - 1)[r // dim]
    return BoundaryError(k, gamma, gamma2)


def build_complex(spec: CoxeterSpec, rho: LocalSystem) -> ChainComplex:
    """Assemble all boundaries and verify the composition law.

    Raises :class:`BoundaryError` identifying the first failing block pair
    if the boundaries do not compose to zero.
    """
    if rho.spec != spec:
        raise ValueError("local system was built for a different Coxeter spec")
    boundaries = _boundaries(spec, rho)
    for k in range(1, spec.rank):
        if not product_is_zero(boundaries[k], boundaries[k + 1]):
            raise _locate_failure(boundaries[k], boundaries[k + 1], k,
                                  spec, rho.dimension)
    return ChainComplex(spec, rho.dimension, boundaries)
