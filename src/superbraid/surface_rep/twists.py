"""Braid-generator actions on the first homology of the d-sheeted cover.

Two constructions of the action of the k-th half twist are provided.

Construction A sends a class x to x - sum_j (x, gamma[k][j]) a[k][j], with
the a-gamma pairing numbers tabulated in :mod:`.basis`.  On the twist block
it acts as the cyclic shift a[k][i] -> a[k][i+1].

Construction B composes the d - 1 transvections along a[k][1], ..,
a[k][d-1]; a transvection along c sends x to x - omega(x, c) c.  On the
twist block it acts as a[k][i] -> -a[k][i+1], which is how the twist moves
the underlying arcs, and it preserves the intersection form by
construction.

The constructions genuinely differ (at n = 2 they are negatives of each
other), and only B is symplectic for n >= 3; :func:`convention_audit`
reports the comparison.  Downstream homology computes with construction
B composed left to right, and engine.calibrate certifies that its
generators intertwine unimodularly with the reduced Burau representation
at t = zeta_d.

A :class:`SurfaceRep` is a type-A local system
(:class:`~superbraid.coxeter_complex.LocalSystem`), which checks the braid
relations and unimodularity; the representation itself checks only what
belongs to the curve, that construction B preserves the intersection form.
"""

from __future__ import annotations

from ..coxeter_complex import CoxeterSpec, LocalSystem, RelationError
from ..exact_linalg import IntMatrix, product_is_zero, snf
from .basis import IntersectionForm, SurfaceBasis

ORDERS = ("left_to_right", "right_to_left")
CONSTRUCTIONS = ("A", "B")


def _column_matrix(dim: int, columns: list[dict[int, int]]) -> IntMatrix:
    ent = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            if v:
                ent[(r, c)] = v
    return IntMatrix(dim, dim, ent)


def _twist_A(form: IntersectionForm, k: int) -> IntMatrix:
    basis = form.basis
    d = form.d
    columns = []
    for (l, i) in basis.labels():
        col = {basis.index(l, i): 1}
        for j in range(1, d + 1):
            coeff = form.pair_gamma(l, i, k, j)
            if coeff == 0:
                continue
            for idx, v in basis.expand(k, j).items():
                col[idx] = col.get(idx, 0) - coeff * v
        columns.append(col)
    return _column_matrix(basis.dim, columns)


def transvection(omega: IntMatrix, c_index: int) -> IntMatrix:
    """Matrix of x -> x - omega(x, c) c for the basis vector c = e[c_index]."""
    dim = omega.nrows
    ent = {(i, i): 1 for i in range(dim)}
    for i in range(dim):
        w = omega[(i, c_index)]
        if w:
            # omega(e_i, c) = omega[i, c]; subtract it from column i, row c.
            ent[(c_index, i)] = ent.get((c_index, i), 0) - w
            if ent[(c_index, i)] == 0:
                del ent[(c_index, i)]
    return IntMatrix(dim, dim, ent)


def _twist_B(form: IntersectionForm, k: int, order: str) -> IntMatrix:
    """With order "left_to_right" the product is M(a[k][1]) * .. *
    M(a[k][d-1]), so the transvection along a[k][d-1] acts first."""
    basis = form.basis
    mats = [transvection(form.omega, basis.index(k, i))
            for i in range(1, form.d)]
    if order == "right_to_left":
        mats.reverse()
    result = IntMatrix.identity(basis.dim)
    for m in mats:
        result = result * m
    return result


def twist_matrix(n: int, d: int, k: int, construction: str = "B",
                 order: str = "left_to_right") -> IntMatrix:
    """The k-th twist by either construction; only B reads the order."""
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"construction must be one of {CONSTRUCTIONS}")
    if construction == "B" and order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}")
    return _twist(IntersectionForm(n, d), k, construction, order)


def _twist(form: IntersectionForm, k: int, construction: str,
           order: str) -> IntMatrix:
    """twist_matrix on a form the caller already holds."""
    if not (1 <= k <= form.n - 1):
        raise IndexError(f"twist index k={k} outside 1..{form.n - 1}")
    if construction == "A":
        return _twist_A(form, k)
    return _twist_B(form, k, order)


class SurfaceRep:
    """The homology representation of the braid group on n strands.

    ``system`` is the checked local system on the type-A Artin group of
    rank n - 1, which enforces the braid relations and unimodularity.  For
    construction B, preservation of the intersection form is checked here
    as well.  A violation raises :class:`RelationError` naming the failed
    identity.
    """

    def __init__(self, n: int, d: int, construction: str = "B",
                 order: str = "left_to_right"):
        if construction not in CONSTRUCTIONS:
            raise ValueError(f"construction must be one of {CONSTRUCTIONS}")
        if order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}")
        self.n = n
        self.d = d
        self.construction = construction
        self.order = order
        self.form = IntersectionForm(n, d)
        self.basis = self.form.basis
        self.matrices = [_twist(self.form, k, construction, order)
                         for k in range(1, n)]
        self.system = LocalSystem(CoxeterSpec("A", n - 1), self.matrices,
                                  dimension=self.dim)
        self._check()

    @property
    def dim(self) -> int:
        return self.basis.dim

    def generator(self, k: int) -> IntMatrix:
        if not (1 <= k <= self.n - 1):
            raise IndexError(f"generator index k={k} outside 1..{self.n - 1}")
        return self.matrices[k - 1]

    def preserves_form(self) -> bool:
        omega = self.form.omega
        return all(t.transpose() * omega * t == omega for t in self.matrices)

    def _check(self):
        if self.construction != "B" or self.dim == 0:
            return
        omega = self.form.omega
        for k, t in enumerate(self.matrices, start=1):
            if t.transpose() * omega * t != omega:
                raise RelationError(f"T{k}^t Omega T{k} = Omega")


def build_rep(n: int, d: int, construction: str = "B",
              order: str = "left_to_right") -> SurfaceRep:
    return SurfaceRep(n, d, construction, order)


def root_check(rep: SurfaceRep, k: int = 1) -> dict:
    """Test whether the (d/2)-th power of a twist acts as a transvection.

    A transvection is unipotent with rank(M - I) = 1 and (M - I)^2 = 0.
    Returns a report with the measured rank and square, and ``ok`` set when
    both hold.

    This is the d = 2 property: there the twist is itself a Dehn twist.
    For d >= 4 it fails by construction, because T^(d/2) has eigenvalue -1
    on the twist block; the 1/d-twist relation is that T^d, not T^(d/2),
    is a product of Dehn twists.
    """
    if rep.d % 2 != 0:
        raise ValueError("root_check needs even d")
    m = rep.generator(k).pow(rep.d // 2)
    delta = m - IntMatrix.identity(m.nrows)
    rank = snf(delta).rank
    square_zero = product_is_zero(delta, delta)
    return {
        "n": rep.n,
        "d": rep.d,
        "k": k,
        "construction": rep.construction,
        "order": rep.order,
        "rank": rank,
        "square_zero": square_zero,
        "ok": rank == 1 and square_zero,
    }


def _block_compare(basis: SurfaceBasis, x: IntMatrix, y: IntMatrix) -> dict:
    """Blockwise equality report for two matrices on the same basis."""
    n, d = basis.n, basis.d
    blocks = {}
    for kr in range(1, n):
        for kc in range(1, n):
            eq, neg, nonzero = True, True, False
            for i in range(1, d):
                for j in range(1, d):
                    r = basis.index(kr, i)
                    c = basis.index(kc, j)
                    vx, vy = x[(r, c)], y[(r, c)]
                    if vx or vy:
                        nonzero = True
                    if vx != vy:
                        eq = False
                    if vx != -vy:
                        neg = False
            if nonzero:
                blocks[f"{kr},{kc}"] = ("equal" if eq else
                                        "negated" if neg else "different")
    return blocks


def _rep_status(n: int, d: int, construction: str, order: str) -> dict:
    try:
        rep = build_rep(n, d, construction, order)
    except RelationError as e:
        return {"builds": False, "violated": e.identity}
    return {"builds": True, "preserves_form": rep.preserves_form()}


def convention_audit(n: int = 3, d: int = 2) -> dict:
    """Machine-readable comparison of the two constructions at (n, d).

    Reports the raw matrices of the first twist, a blockwise comparison,
    and which (construction, order) combinations satisfy the braid
    relations and preserve the intersection form.  At d = 2 construction A
    reverses the form while B preserves it; on the twist block the two
    differ by a sign at every d.
    """
    form = IntersectionForm(n, d)
    a = _twist(form, 1, "A", "left_to_right")
    b = _twist(form, 1, "B", "left_to_right")
    conj_a = a.transpose() * form.omega * a
    report = {
        "n": n,
        "d": d,
        "k": 1,
        "A_entries": [[r, c, v] for (r, c, v) in a.triples()],
        "B_entries": [[r, c, v] for (r, c, v) in b.triples()],
        "agree": a == b,
        "A_is_minus_B": a == -b,
        "blocks": _block_compare(form.basis, a, b),
        "A_preserves_form": conj_a == form.omega,
        "A_reverses_form": form.basis.dim > 0 and conj_a == -form.omega,
        "status": {
            "A": _rep_status(n, d, "A", "left_to_right"),
            "B,left_to_right": _rep_status(n, d, "B", "left_to_right"),
            "B,right_to_left": _rep_status(n, d, "B", "right_to_left"),
        },
    }
    return report
