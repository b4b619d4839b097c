"""Finite Coxeter groups of types A and B and their coset combinatorics.

Type A of rank m is the symmetric group on m + 1 letters with the adjacent
transpositions as generators; type B of rank n is the group of signed
permutations of n letters, where the extra generator s_0 flips the sign in
the first position and braids with s_1 through a relation of order 4.

Elements are window tuples (one-line notation); lengths and descents are
computed combinatorially so that enumeration of minimal coset
representatives scales to parabolic indices in the thousands.  An
enumeration is kept as a CosetTable of three int64 entries per
representative (parent, letter, length); element tuples live only in the
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
        if self.family == "A":
            v = list(w)
            v[g], v[g + 1] = v[g + 1], v[g]
            return tuple(v)
        v = list(w)
        if g == 0:
            v[0] = -v[0]
        else:
            v[g - 1], v[g] = v[g], v[g - 1]
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
        if self.family == "A":
            v = [0] * len(w)
            for i, x in enumerate(w):
                v[x] = i
            return tuple(v)
        v = [0] * len(w)
        for i, x in enumerate(w, start=1):
            if x > 0:
                v[x - 1] = i
            else:
                v[-x - 1] = -i
        return tuple(v)

    def length(self, w: tuple) -> int:
        if self.family == "A":
            return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
                       if w[i] > w[j])
        inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
                  if w[i] > w[j])
        neg = sum(1 for x in w if x < 0)
        nsp = sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
                  if w[i] + w[j] < 0)
        return inv + neg + nsp

    def right_descents(self, w: tuple) -> set[int]:
        if self.family == "A":
            return {g for g in self.generators if w[g] > w[g + 1]}
        out = set()
        if self.rank >= 1 and w[0] < 0:
            out.add(0)
        out.update(g for g in range(1, self.rank) if w[g - 1] > w[g])
        return out

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

    def left_descent_moved_by(self, u: tuple, s: int) -> int | None:
        """The one generator whose left-descent status u * s_s can change.

        Whether s_g is a left descent depends only on the order in which the
        window places the letters s_g moves (see is_left_descent).  Right
        multiplication by s_s swaps two adjacent positions, or for the
        type-B s_0 negates the first one, so that order changes at most for
        the generator moving exactly the letters there; None if there is
        no such generator.
        """
        if self.family == "B" and s == 0:
            return 0 if abs(u[0]) == 1 else None
        i = s if self.family == "A" else s - 1
        a, b = abs(u[i]), abs(u[i + 1])
        return min(a, b) if abs(a - b) == 1 else None

    def left_descents(self, w: tuple) -> set[int]:
        return {g for g in self.generators if self.is_left_descent(w, g)}

    def parabolic_order(self, gamma: tuple[int, ...]) -> int:
        """|W_gamma| from the connected runs of consecutive generators."""
        order = 1
        members = sorted(gamma)
        run = 0
        prev = None
        for g in members + [None]:
            if prev is not None and (g is None or g != prev + 1):
                start = prev - run + 1
                if self.family == "B" and start == 0:
                    order *= (1 << run) * math.factorial(run)
                else:
                    order *= math.factorial(run + 1)
                run = 0
            if g is not None:
                run = run + 1 if prev is not None and g == prev + 1 else 1
            prev = g
        return order


@dataclass(frozen=True)
class CosetRep:
    """One minimal-length coset representative, as a view of a CosetTable.

    ``parent`` is the index of the representative this one extends and
    ``letter`` the generator appended (on the side given to the search), so
    matrix lifts can be evaluated with one product per representative.
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
    the identity), ``letter[i]`` the generator it appends on the search
    side (-1 for the identity) and ``length[i]`` its length.  The order is
    breadth-first, so each length forms one contiguous level whose parents
    all lie in the level before.  No element or word is kept: indexing or
    iterating rebuilds CosetRep views by walking from the identity out to
    the representative.  With side "left" a view's word appends each
    letter and its element applies it on the right; with side "right" the
    word prepends each letter and the element applies it on the left.
    The table is memoised and shared by every caller, so its arrays are
    never written after construction.
    """

    __slots__ = ("spec", "side", "parent", "letter", "length")

    def __init__(self, spec: CoxeterSpec, side: str, parent: np.ndarray,
                 letter: np.ndarray, length: np.ndarray):
        self.spec = spec
        self.side = side
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
        w = self.spec.identity()
        for s in reversed(path):
            w = (self.spec.apply_right(w, s) if self.side == "left"
                 else self.spec.apply_left(w, s))
        word = tuple(reversed(path)) if self.side == "left" else tuple(path)
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
                gamma_prime: tuple[int, ...], side: str) -> CosetTable:
    spec = CoxeterSpec(family, rank)
    prime = set(gamma_prime)
    parent, letter, length = [-1], [-1], [0]
    seen = {spec.identity()}
    frontier = [(0, spec.identity())]
    while frontier:
        new_frontier = []
        for idx, u in frontier:
            blocked = spec.right_descents(u) if side == "left" else ()
            for s in gamma:
                if side == "left":
                    if s in blocked:
                        continue
                    w = spec.apply_right(u, s)
                    # u has no left descent in gamma', so w has one only
                    # where appending s could create it.
                    g = spec.left_descent_moved_by(u, s)
                    if g in prime and spec.is_left_descent(w, g):
                        continue
                else:
                    if spec.is_left_descent(u, s):
                        continue
                    w = spec.apply_left(u, s)
                    if prime and spec.right_descents(w) & prime:
                        continue
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
    return CosetTable(spec, side, *(np.array(a, dtype=np.int64)
                                    for a in (parent, letter, length)))


def min_coset_reps(spec: CoxeterSpec, gamma, gamma_prime,
                   side: str = "left") -> CosetTable:
    """All minimal-length representatives of W_gamma' cosets inside W_gamma.

    With ``side="left"`` the representatives have no left descent in
    gamma', i.e. they are the minima of the cosets W_gamma' beta; the BFS
    extends words on the right and the set is closed under removing the
    last letter.  ``side="right"`` is the mirror image.  The answer is a
    CosetTable, kept for the process, whose items are CosetRep views.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    gamma, gamma_prime = _validate_subsets(spec, gamma, gamma_prime)
    return _coset_reps(spec.family, spec.rank, gamma, gamma_prime, side)
