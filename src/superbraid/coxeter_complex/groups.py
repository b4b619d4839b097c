"""Finite Coxeter groups of types A and B and their coset combinatorics.

Type A of rank m is the symmetric group on m + 1 letters with the adjacent
transpositions as generators; type B of rank n is the group of signed
permutations of n letters, where the extra generator s_0 flips the sign in
the first position and braids with s_1 through a relation of order 4.

Elements are window tuples (one-line notation).  Minimal coset
representatives of a parabolic subgroup are (signed) shuffles, so their
search reads only the order of block labels, never a length or a
descent; CoxeterSpec computes those combinatorially for the tests.  An
enumeration is kept as a CosetTable of three int64 entries per
representative (parent, letter, length); label words live only in the
search's seen set, and views with element and word are rebuilt on demand.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoxeterSpec:
    """A finite Coxeter system of type A or B with ``rank`` generators."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ValueError("family must be 'A' or 'B'")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")

    @property
    def generators(self) -> range:
        return range(self.rank)

    def coxeter_m(self, i: int, j: int) -> int:
        """Order of s_i s_j, for i != j."""
        if abs(i - j) >= 2:
            return 2
        if self.family == "B" and min(i, j) == 0:
            return 4
        return 3

    def identity(self) -> tuple:
        if self.family == "A":
            return tuple(range(self.rank + 1))
        return tuple(range(1, self.rank + 1))

    def apply_right(self, w: tuple, g: int) -> tuple:
        """w * s_g (acts on positions)."""
        v = list(w)
        i = g - (self.family == "B")  # s_g swaps positions i and i + 1
        if i < 0:  # the type-B s_0 negates the first entry instead
            v[0] = -v[0]
        else:
            v[i], v[i + 1] = v[i + 1], v[i]
        return tuple(v)

    def apply_left(self, w: tuple, g: int) -> tuple:
        """s_g * w (acts on values)."""
        if self.family == "A":
            return tuple(g + 1 if x == g else g if x == g + 1 else x
                         for x in w)
        if g == 0:
            return tuple(-x if abs(x) == 1 else x for x in w)
        swap = {g: g + 1, g + 1: g}
        return tuple((1 if x > 0 else -1) * swap.get(abs(x), abs(x))
                     for x in w)

    def inverse(self, w: tuple) -> tuple:
        base = int(self.family == "B")  # the first position and value
        v = [0] * len(w)
        for i, x in enumerate(w, start=base):
            v[abs(x) - base] = i if x >= 0 else -i
        return tuple(v)

    def length(self, w: tuple) -> int:
        pairs = [(x, y) for i, x in enumerate(w) for y in w[i + 1:]]
        inv = sum(x > y for x, y in pairs)
        if self.family == "A":
            return inv
        return inv + sum(x < 0 for x in w) + sum(x + y < 0 for x, y in pairs)

    def right_descents(self, w: tuple) -> set[int]:
        if self.family == "B":
            w = (0, *w)  # then s_0 is a descent iff 0 > w[0]
        return {g for g in self.generators if w[g] > w[g + 1]}

    def is_left_descent(self, w: tuple, g: int) -> bool:
        """Whether s_g * w is shorter than w.

        Read off where w places the letters s_g moves, that is, the right
        descent g of the inverse, without building the inverse.
        """
        if self.family == "A":
            return w.index(g) > w.index(g + 1)
        if g == 0:
            return -1 in w

        def signed_position(x):
            return w.index(x) + 1 if x in w else -w.index(-x) - 1

        return signed_position(g) > signed_position(g + 1)

    def left_descents(self, w: tuple) -> set[int]:
        return {g for g in self.generators if self.is_left_descent(w, g)}

    def runs(self, gamma) -> tuple[tuple[int, ...], ...]:
        """The maximal runs of consecutive generators in gamma, ascending;
        W_gamma is the direct product of their parabolics."""
        out = []
        for g in sorted(gamma):
            if out and out[-1][-1] == g - 1:
                out[-1].append(g)
            else:
                out.append([g])
        return tuple(map(tuple, out))

    def run_shape(self, run: tuple[int, ...]) -> CoxeterSpec:
        """The standalone system of a run, whose generator i is the run's
        generator run[0] + i: B_L for a type-B run holding s_0, else A_L."""
        family = "B" if self.family == "B" and run[0] == 0 else "A"
        return CoxeterSpec(family, len(run))

    def parabolic_order(self, gamma: tuple[int, ...]) -> int:
        """|W_gamma|, the product over its runs' shapes of |A_L| = (L + 1)!
        or |B_L| = 2^L L!."""
        return math.prod(
            math.factorial(s.rank + 1) if s.family == "A"
            else math.factorial(s.rank) << s.rank
            for s in map(self.run_shape, self.runs(gamma)))


@dataclass(frozen=True)
class CosetRep:
    """One minimal-length coset representative, as a view of a CosetTable.

    ``parent`` is the index of the representative this one extends and
    ``letter`` the generator appended on the right of its word, so matrix
    lifts can be evaluated with one product per representative.
    """

    element: tuple
    word: tuple[int, ...]
    parent: int
    letter: int | None

    @property
    def length(self) -> int:
        return len(self.word)


class CosetTable(Sequence):
    """The minimal coset representatives found by the BFS, as int64 arrays.

    ``parent[i]`` is the index of the representative that i extends (-1 for
    the identity), ``letter[i]`` the generator it appends on the right (-1
    for the identity) and ``length[i]`` its length.  The order is
    breadth-first, so each length forms one contiguous level whose parents
    all lie in the level before.  No element or word is kept: indexing or
    iterating rebuilds CosetRep views by walking from the identity out to
    the representative, applying each letter on the right.  The table is
    memoised and shared by every caller, so its arrays are never written
    after construction.
    """

    __slots__ = ("spec", "parent", "letter", "length")

    def __init__(self, spec: CoxeterSpec, parent: np.ndarray,
                 letter: np.ndarray, length: np.ndarray):
        self.spec = spec
        self.parent = parent
        self.letter = letter
        self.length = length

    def __len__(self) -> int:
        return len(self.parent)

    def __getitem__(self, i: int) -> CosetRep:
        i = range(len(self))[i]
        path = []  # letters from the representative back to the identity
        j = i
        while self.parent[j] >= 0:
            path.append(int(self.letter[j]))
            j = int(self.parent[j])
        word = tuple(reversed(path))
        w = self.spec.identity()
        for s in word:
            w = self.spec.apply_right(w, s)
        return CosetRep(w, word, int(self.parent[i]),
                        path[0] if path else None)


def _validate_subsets(spec, gamma, gamma_prime):
    gamma = tuple(sorted(gamma))
    gamma_prime = tuple(sorted(gamma_prime))
    if not set(gamma) <= set(spec.generators):
        raise ValueError(f"gamma {gamma} not a subset of the generators")
    if not set(gamma_prime) <= set(gamma):
        raise ValueError(f"gamma_prime {gamma_prime} not a subset of {gamma}")
    return gamma, gamma_prime


@functools.cache
def _coset_reps(family: str, rank: int, gamma: tuple[int, ...],
                gamma_prime: tuple[int, ...]) -> CosetTable:
    """The minimal coset representatives, by breadth-first search.

    s_v links the values v and v + 1, so the runs of gamma' cut the values
    into blocks, and w has no left descent in gamma' iff each block keeps
    its values in increasing signed position (negated for a negative
    entry): w is a (signed) shuffle of the blocks (Bjorner-Brenti, GTM 231,
    sections 2.4 and 8.1).  The search keys w on the word u of its entries'
    block labels, signed like the entries; labels increase with the values,
    and the block of 1 is labelled 0 when s_0 is in gamma', which pins its
    sign.  Appending s to u gives a longer shuffle iff the two labels s
    swaps ascend strictly (positions s, s + 1 in type A; s - 1, s in type
    B); the type-B s_0 does so iff u[0] > 0, and negates it.  Any other
    letter gives back u or a shorter shuffle, both already seen, so the
    test only spares building them.
    """
    spec = CoxeterSpec(family, rank)
    shift = int(family == "B")  # s swaps positions s - shift, s - shift + 1
    # The label of the value v counts the generators below v outside gamma'.
    start = tuple(sum(g not in gamma_prime for g in range(v))
                  for v in spec.identity())
    parent, letter, length = [-1], [-1], [0]
    seen = {start}
    frontier = [(0, start)]
    while frontier:
        new_frontier = []
        for idx, u in frontier:
            for s in gamma:
                i = s - shift  # -1 only for the type-B s_0, which negates u[0]
                if not (u[0] > 0 if i < 0 else u[i] < u[i + 1]):
                    continue
                w = spec.apply_right(u, s)
                if w in seen:
                    continue
                seen.add(w)
                new_frontier.append((len(parent), w))
                parent.append(idx)
                letter.append(s)
                length.append(length[idx] + 1)
        frontier = new_frontier
    expected = spec.parabolic_order(gamma) // spec.parabolic_order(gamma_prime)
    if len(parent) != expected:
        raise RuntimeError(
            f"coset enumeration found {len(parent)} representatives of "
            f"W_{gamma_prime} in W_{gamma}, expected {expected}")
    return CosetTable(spec, *(np.array(a, dtype=np.int64)
                              for a in (parent, letter, length)))


def min_coset_reps(spec: CoxeterSpec, gamma, gamma_prime) -> CosetTable:
    """All minimal-length representatives of W_gamma' cosets inside W_gamma.

    The representatives have no left descent in gamma', i.e. they are the
    minima of the cosets W_gamma' beta, the shuffles of _coset_reps; the
    BFS extends words on the right and the set is closed under removing
    the last letter.  The table is kept for the process; its items are
    CosetRep views.
    """
    gamma, gamma_prime = _validate_subsets(spec, gamma, gamma_prime)
    return _coset_reps(spec.family, spec.rank, gamma, gamma_prime)
