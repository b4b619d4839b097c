"""The algebraic chain complex of a finite-type Artin group.

Degree-k chains are one copy of the local-system module per k-subset of
the generators, subsets ordered colexicographically.  The boundary block
from subset Gamma to Gamma minus tau sums, over the minimal coset
representatives beta of W_{Gamma minus tau} in W_Gamma, the matrices
(-1)^(length(beta) + mu) rho(lift(beta)), where lift reads a reduced word
of beta as a positive Artin word and mu counts the position of tau in
Gamma (plus a global base offset).

W_Gamma is the direct product of the parabolics of the connected runs of
Gamma (maximal sets of consecutive generators, CoxeterSpec.runs).  So the
minimal coset representatives of W_{Gamma minus tau} in W_Gamma are
exactly those of W_{R minus tau} in W_R, where R is the run of Gamma
containing tau, on either coset side and for both families; they are
enumerated in the run's standalone shape, CoxeterSpec.run_shape.  The
block is therefore (-1)^(mu + mu_base) B(R, tau), with B(R, tau) the sum
over those representatives of (-1)^length(beta) rho(lift(beta)); one
build computes each B(R, tau) once.  Lifts are stacked products in the
dtype of the generators: int64, checked against 2^62 before each product
and each sum, and a block whose check fails is lifted once more in exact
Python ints (an object array).  Each boundary is a CooMatrix whose values are int64, or
exact Python ints once some entry is past int64.

The coset side and the sign base are free conventions; candidates are
enumerated in the documented order and the shipped default is the first
one passing the composition and trivial-coefficient gates.  A failing
composition raises :class:`BoundaryError` naming the offending blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..exact_linalg import CooMatrix, first_nonzero_product, product_is_zero
from ..exact_linalg.matrix import INT64_SAFE
from .groups import CoxeterSpec, min_coset_reps
from .systems import LocalSystem


@dataclass(frozen=True)
class BoundaryConvention:
    """Coset side ('left' or 'right') and sign base (0 or 1)."""

    side: str = "left"
    mu_base: int = 0


# Enumeration order for the convention scan; the first candidate passing
# all gates is the shipped default (see tests).
CONVENTION_CANDIDATES = (
    BoundaryConvention("left", 0),
    BoundaryConvention("left", 1),
    BoundaryConvention("right", 0),
    BoundaryConvention("right", 1),
)

DEFAULT_CONVENTION = CONVENTION_CANDIDATES[0]


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

    def __init__(self, spec: CoxeterSpec, dimension: int,
                 boundaries: dict[int, CooMatrix],
                 convention: BoundaryConvention):
        self.spec = spec
        self.dimension = dimension
        self.boundaries = boundaries
        self.convention = convention

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

    def to_json(self) -> dict:
        return {
            "family": self.spec.family,
            "rank": self.spec.rank,
            "dimension": self.dimension,
            "ranks": [self.rank(k) for k in range(self.spec.rank + 1)],
            "boundaries": {
                str(k): [[r, c, v] for (r, c, v) in self.boundary(k).triples()]
                for k in range(1, self.spec.rank + 1)
            },
            "convention": {"side": self.convention.side,
                           "mu_base": self.convention.mu_base},
        }


def _run_block(reps, gens: np.ndarray, gen_max: int,
               side: str) -> np.ndarray | None:
    """B(R, tau) in the dtype of gens; None if gens are int64 and an entry
    bound reaches 2^62.

    reps is a CosetTable whose letters index gens, the run's generators.
    Its representatives come in breadth-first order, so each length forms
    one contiguous level whose parents all lie in the level before.  A
    level is lifted by one stacked product of the previous level's lifts,
    indexed by parent minus that level's start, and added to the block
    with its sign; only the previous level's lifts are kept.  On int64, a
    product is taken only if dim * max|parent| * max|generator| < 2^62,
    and a level is added only if the running bound on the block's entries
    plus (level size) * max|level| stays below 2^62.  The bounds are
    Python ints, so they cannot wrap.  Exact Python ints (an object array)
    need no bound.
    """
    limit = INT64_SAFE if gens.dtype == np.int64 else math.inf
    dim = gens.shape[1]
    prev = np.eye(dim, dtype=gens.dtype)[None]
    block = prev[0].copy()
    total = 1  # bounds max |entry| of every partial sum of the block
    top = 1  # max |entry| over the previous level
    # Level boundaries: 0, the start of each longer length, len(reps).
    ends = np.flatnonzero(np.diff(reps.length)) + 1
    bounds = [0, *ends.tolist(), len(reps)]
    for length, (start, end) in enumerate(zip(bounds[1:], bounds[2:]), 1):
        if dim * top * gen_max >= limit:
            return None
        parents = prev[reps.parent[start:end] - bounds[length - 1]]
        letters = gens[reps.letter[start:end]]
        prev = parents @ letters if side == "left" else letters @ parents
        top = int(np.abs(prev).max(initial=0))
        total += (end - start) * top
        if total >= limit:
            return None
        if length % 2:
            block -= prev.sum(axis=0)
        else:
            block += prev.sum(axis=0)
    return block


class _RunBlocks:
    """B(R, tau) as nonzero arrays, computed once per (run, tau).

    The coset representatives come from the standalone parabolic of the
    run's shape (CoxeterSpec.run_shape), whose generator i is the run's
    generator run[0] + i.  So every run of one shape shares one
    enumeration (min_coset_reps keeps it), and a representative's letters
    index the run's slice of the generators.
    """

    def __init__(self, spec: CoxeterSpec, rho: LocalSystem, side: str):
        self.spec = spec
        self.side = side
        self.blocks: dict[tuple, tuple[np.ndarray, ...]] = {}
        dim = rho.dimension
        self.gen_max = max((a.max_abs() for a in rho.actions), default=0)
        self.gens = np.zeros((spec.rank, dim, dim), dtype=np.int64
                             if self.gen_max < INT64_SAFE else object)
        for g, a in enumerate(rho.actions):
            for (i, j), v in a.entries.items():
                self.gens[g, i, j] = v

    def block(self, run: tuple[int, ...], tau: int) -> tuple[np.ndarray, ...]:
        """Rows, columns and values of B(run, tau)'s nonzeros, row-major.

        The values are int64 when every |value| < 2^63, else Python ints
        in an object array.
        """
        key = (run, tau)
        if key not in self.blocks:
            first = run[0]
            reps = min_coset_reps(self.spec.run_shape(run),
                                  tuple(range(len(run))),
                                  tuple(g - first for g in run if g != tau),
                                  self.side)
            gens = self.gens[first:first + len(run)]
            block = _run_block(reps, gens, self.gen_max, self.side)
            if block is None:  # past the int64 guard: lift in exact ints
                block = _run_block(reps, gens.astype(object), self.gen_max,
                                   self.side)
            rr, cc = np.nonzero(block)
            vals = block[rr, cc]
            if vals.dtype == object and np.abs(vals).max(initial=0) < 1 << 63:
                vals = vals.astype(np.int64)
            self.blocks[key] = (rr.astype(np.int64, copy=False),
                                cc.astype(np.int64, copy=False), vals)
        return self.blocks[key]


def _boundary_matrix(spec: CoxeterSpec, dim: int, k: int, blocks: _RunBlocks,
                     mu_base: int) -> CooMatrix:
    """The boundary d_k, with exact Python-int values if a block has any.

    The nonzeros are stored with Gamma in colex order, then tau ascending
    in Gamma, then each block (-1)^(mu + mu_base) B(run, tau), at row
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
                parts.append(blocks.block(*key))
            use.append(index[key])
            r0.append(rows[tuple(g for g in gamma if g != tau)] * dim)
            c0.append(ci * dim)
            sign.append(-1 if (mu + mu_base) % 2 else 1)
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


def _boundaries(spec: CoxeterSpec, rho: LocalSystem,
                convention: BoundaryConvention
                ) -> dict[int, CooMatrix]:
    """Every boundary of the complex, before the composition check."""
    blocks = _RunBlocks(spec, rho, convention.side)
    return {k: _boundary_matrix(spec, rho.dimension, k, blocks,
                                convention.mu_base)
            for k in range(1, spec.rank + 1)}


def _locate_failure(d_low, d_high, k: int, spec: CoxeterSpec,
                    dim: int) -> BoundaryError:
    r, c = first_nonzero_product(d_low, d_high)
    gamma = _subsets_colex(spec.rank, k + 1)[c // dim]
    gamma2 = _subsets_colex(spec.rank, k - 1)[r // dim]
    return BoundaryError(k, gamma, gamma2)


def build_complex(spec: CoxeterSpec, rho: LocalSystem,
                  convention: BoundaryConvention = DEFAULT_CONVENTION) -> ChainComplex:
    """Assemble all boundaries and verify the composition law.

    Raises :class:`BoundaryError` identifying the first failing block pair
    if the chosen convention does not yield a chain complex.
    """
    if rho.spec != spec:
        raise ValueError("local system was built for a different Coxeter spec")
    boundaries = _boundaries(spec, rho, convention)
    for k in range(1, spec.rank):
        if not product_is_zero(boundaries[k], boundaries[k + 1]):
            raise _locate_failure(boundaries[k], boundaries[k + 1], k,
                                  spec, rho.dimension)
    return ChainComplex(spec, rho.dimension, boundaries, convention)
