"""Matrix local systems over Artin groups of types A and B.

:class:`LocalSystem` is the one check of a generator system: its Artin
relations, then the unimodularity of each generator.  The braid action on
the curve classes (:mod:`superbraid.surface_rep`) is built on it, and this
layer imports nothing from there.
"""

from __future__ import annotations

import numpy as np

from ..exact_linalg import CooMatrix, IntMatrix, snf
from .groups import CoxeterSpec


class RelationError(ValueError):
    """A generator system violates a required identity.

    The offending identity is carried in ``identity`` for diagnostics, with
    the generators named T1, T2, ...: for example ``T1 T2 T1 = T2 T1 T2``
    or ``det T1 = +-1``.
    """

    def __init__(self, identity: str):
        super().__init__(identity)
        self.identity = identity


def _alternating(x: IntMatrix, y: IntMatrix, m: int) -> IntMatrix:
    """The product x y x ... of m >= 1 alternating factors."""
    out = x
    for i in range(1, m):
        out = out * (x if i % 2 == 0 else y)
    return out


def _word(i: int, j: int, m: int) -> str:
    return " ".join(f"T{(i, j)[step % 2] + 1}" for step in range(m))


class LocalSystem:
    """An integer matrix representation of the Artin generators.

    The defining Artin relations (length m(s, s') alternating products
    agree) and unimodularity of each generator are hard postconditions,
    checked in that order; a violation raises :class:`RelationError` naming
    the failed identity, with generator s_g written T(g+1).
    """

    def __init__(self, spec: CoxeterSpec, actions, dimension: int | None = None):
        actions = tuple(actions)
        if len(actions) != spec.rank:
            raise ValueError(f"need {spec.rank} generator actions")
        dims = {m.nrows for m in actions} | {m.ncols for m in actions}
        if dimension is not None:
            dims.add(dimension)
        if len(dims) > 1:
            raise ValueError("generator actions must share one dimension")
        self.spec = spec
        self.dimension = dims.pop() if dims else 0
        self.actions = actions
        self._check()

    def _check(self):
        for i in range(len(self.actions)):
            for j in range(i + 1, len(self.actions)):
                m = self.spec.coxeter_m(i, j)
                lhs = _alternating(self.actions[i], self.actions[j], m)
                rhs = _alternating(self.actions[j], self.actions[i], m)
                if lhs != rhs:
                    raise RelationError(f"{_word(i, j, m)} = {_word(j, i, m)}")
        for g, m in enumerate(self.actions):
            s = snf(CooMatrix.from_dense(m.array))
            if s.rank != self.dimension or any(v != 1 for v in s.divisors):
                raise RelationError(f"det T{g + 1} = +-1")

    def evaluate_word(self, word) -> IntMatrix:
        out = IntMatrix.identity(self.dimension)
        for g in word:
            out = out * self.actions[g]
        return out


def trivial_system(spec: CoxeterSpec, dim: int = 1) -> LocalSystem:
    return LocalSystem(spec, [IntMatrix.identity(dim)] * spec.rank,
                       dimension=dim)


def companion_t_matrix(d: int) -> IntMatrix:
    """Companion matrix C of the variable t in Z[t]/(1 - (-t)^d).

    C shifts the power basis and wraps with the sign (-1)^d, so that
    1 - (-C)^d = 0 holds as a matrix identity.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    c = np.eye(d, k=-1, dtype=np.int64)
    c[0, d - 1] = (-1) ** d
    return IntMatrix(c)


def t_local_system(n: int, d: int) -> LocalSystem:
    """Type-B local system on the rank-d module Z[t]/(1 - (-t)^d).

    The special generator s_0 acts by -t, minus the companion matrix, and
    s_1, ..., s_(n-1) act trivially.  Up to the signs of the basis vectors
    this is the group ring Z[Z/d] with s_0 acting as its generator.
    """
    eye = IntMatrix.identity(d)
    return LocalSystem(CoxeterSpec("B", n),
                       [-companion_t_matrix(d)] + [eye] * (n - 1))
