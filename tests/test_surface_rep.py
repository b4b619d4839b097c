import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbraid.coxeter_complex import CoxeterSpec, LocalSystem, build_complex
from superbraid.exact_linalg import AbelianGroup, IntMatrix, snf
from superbraid.homology_engine import braid_twisted_homology, engine
from superbraid.surface_rep import (
    IntersectionForm,
    RelationError,
    SurfaceBasis,
    betti1,
    boundary_components,
    build_rep,
    convention_audit,
    genus,
    root_check,
    transvection,
    twist_matrix,
)
from superbraid.surface_rep import twists
from superbraid.surface_rep.burau import burau as _burau
from superbraid.surface_rep.burau import intertwiner as _intertwiner

nd_pairs = st.tuples(st.integers(2, 6), st.integers(2, 6))


def dense(m):
    return m.to_dense()


def test_numerical_invariants():
    assert betti1(3, 2) == 2
    assert genus(3, 2) == 1
    assert boundary_components(3, 2) == 1
    assert betti1(1, 5) == 0
    assert boundary_components(6, 4) == 2
    assert genus(6, 4) == 7
    assert 2 * 7 + 2 - 1 == betti1(6, 4)


@given(nd_pairs)
def test_euler_characteristic_consistency(nd):
    n, d = nd
    assert betti1(n, d) == 2 * genus(n, d) + boundary_components(n, d) - 1


def test_intersection_form_frozen():
    assert dense(IntersectionForm(3, 2).omega) == [[0, -1], [1, 0]]
    # within one block at d = 3 the form is the standard symplectic block
    omega = IntersectionForm(2, 3).omega
    assert dense(omega) == [[0, 1], [-1, 0]]


@given(nd_pairs)
@settings(max_examples=40)
def test_form_antisymmetric_and_radical(nd):
    n, d = nd
    form = IntersectionForm(n, d)
    assert form.omega.transpose() == -form.omega
    assert form.radical_rank() == math.gcd(n, d) - 1


@given(nd_pairs)
@settings(max_examples=25)
def test_relation_vector_pairs_to_zero(nd):
    n, d = nd
    form = IntersectionForm(n, d)
    for k in range(1, n):
        for l in range(1, n):
            for j in range(1, d + 1):
                assert sum(form.pair_full(k, i, l, j)
                           for i in range(1, d + 1)) == 0


@given(st.tuples(st.integers(3, 6), st.integers(2, 6)))
@settings(max_examples=25)
def test_gamma_cross_rows_do_not_annihilate_relations(nd):
    # the cross-block gamma rows pair the relation vector to -+1, not 0;
    # this is the inconsistency that makes the two twist constructions
    # genuinely different and motivates the calibration step downstream
    n, d = nd
    form = IntersectionForm(n, d)
    for j in range(1, d + 1):
        assert sum(form.pair_gamma(1, i, 1, j) for i in range(1, d + 1)) == 0
        assert sum(form.pair_gamma(1, i, 2, j) for i in range(1, d + 1)) == -1
        assert sum(form.pair_gamma(2, i, 1, j) for i in range(1, d + 1)) == 1


def test_twist_A_frozen():
    assert dense(twist_matrix(2, 2, 1, "A")) == [[-1]]
    assert dense(twist_matrix(3, 2, 1, "A")) == [[-1, -1], [0, 1]]
    # block 1 of the (3,3) twist is the cyclic shift of order 3
    t = twist_matrix(3, 3, 1, "A")
    block = [[t[(r, c)] for c in range(2)] for r in range(2)]
    assert block == [[0, -1], [1, -1]]


def _twist_A_block_oracle(n, d, k):
    """Blockwise description of the pairing-formula twist, for d >= 3."""
    basis = SurfaceBasis(n, d)
    cols = []
    for (l, i) in basis.labels():
        if l == k:
            col = dict(basis.expand(k, i + 1))
        elif l == k - 1:
            col = {basis.index(l, i): 1}
            for idx, v in basis.expand(k, i + 1).items():
                col[idx] = col.get(idx, 0) + v
        elif l == k + 1:
            col = {basis.index(l, i): 1}
            for idx, v in basis.expand(k, i).items():
                col[idx] = col.get(idx, 0) - v
        else:
            col = {basis.index(l, i): 1}
        cols.append(col)
    ent = {}
    for c, col in enumerate(cols):
        for r, v in col.items():
            if v:
                ent[(r, c)] = v
    return IntMatrix(basis.dim, basis.dim, ent)


@given(st.tuples(st.integers(2, 6), st.integers(3, 6)))
@settings(max_examples=30)
def test_twist_A_matches_block_rules(nd):
    n, d = nd
    for k in range(1, n):
        assert twist_matrix(n, d, k, "A") == _twist_A_block_oracle(n, d, k)


@given(st.integers(3, 6))
def test_twist_A_block_has_order_d(d):
    t = twist_matrix(2, d, 1, "A")
    assert t.pow(d) == IntMatrix.identity(d - 1)
    assert all(t.pow(e) != IntMatrix.identity(d - 1) for e in range(1, d))


def test_twist_B_frozen():
    assert dense(twist_matrix(3, 2, 1, "B")) == [[1, -1], [0, 1]]
    assert dense(twist_matrix(3, 2, 2, "B")) == [[1, 0], [1, 1]]
    # the geometric action on one block sends a_i to -a_{i+1}
    assert dense(twist_matrix(2, 3, 1, "B")) == [[0, 1], [-1, 1]]


@given(st.integers(2, 6))
def test_twist_B_is_geometric_shift_on_one_block(d):
    basis = SurfaceBasis(2, d)
    cols = []
    for i in range(1, d):
        cols.append({idx: -v for idx, v in basis.expand(1, i + 1).items()})
    ent = {(r, c): v for c, col in enumerate(cols) for r, v in col.items()}
    expected = IntMatrix(basis.dim, basis.dim, ent)
    assert twist_matrix(2, d, 1, "B") == expected


@given(st.tuples(st.integers(2, 5), st.integers(2, 5)), st.data())
@settings(max_examples=40)
def test_transvections_preserve_form(nd, data):
    n, d = nd
    form = IntersectionForm(n, d)
    c = data.draw(st.integers(0, form.basis.dim - 1))
    t = transvection(form.omega, c)
    assert t.transpose() * form.omega * t == form.omega


@given(nd_pairs)
@settings(max_examples=15, deadline=None)
def test_build_rep_B_left_to_right(nd):
    n, d = nd
    rep = build_rep(n, d, "B", "left_to_right")
    assert rep.preserves_form()


@given(nd_pairs)
@settings(max_examples=15, deadline=None)
def test_build_rep_A_braid_relations(nd):
    n, d = nd
    rep = build_rep(n, d, "A")
    assert rep.dim == (n - 1) * (d - 1)


def test_rep_degenerate_cases():
    assert build_rep(4, 1).dim == 0
    assert build_rep(1, 5).matrices == []
    assert build_rep(2, 2, "B").generator(1) == IntMatrix.identity(1)


def test_reverse_order_fails_braid_relations_for_deep_chains():
    with pytest.raises(RelationError) as err:
        build_rep(3, 3, "B", "right_to_left")
    assert err.value.identity == "T1 T2 T1 = T2 T1 T2"
    # with a single transvection per twist the two orders coincide
    rep = build_rep(4, 2, "B", "right_to_left")
    assert rep.matrices == build_rep(4, 2, "B", "left_to_right").matrices


def test_relation_error_is_the_local_system_error():
    import superbraid.coxeter_complex
    import superbraid.surface_rep

    assert (superbraid.surface_rep.RelationError
            is superbraid.coxeter_complex.RelationError)


def test_root_check_d2():
    for n in (3, 4, 5):
        rep = build_rep(n, 2, "B")
        for k in range(1, n):
            assert root_check(rep, k)["ok"]
    # (2,2) is degenerate: the twist acts as the identity on rank 1
    r = root_check(build_rep(2, 2, "B"), 1)
    assert r["rank"] == 0 and not r["ok"]


def test_root_check_higher_even_d():
    # T^(d/2) has eigenvalue -1 on the twist block Z[Z/d]/(1 + t + ..
    # + t^(d-1)), so T^(d/2) - I has rank 2 or 3 and a nonzero square
    assert root_check(build_rep(2, 4, "B"), 1)["rank"] == 2
    assert root_check(build_rep(3, 4, "B"), 1)["rank"] == 3
    assert root_check(build_rep(2, 6, "B"), 1)["rank"] == 2
    with pytest.raises(ValueError):
        root_check(build_rep(3, 3, "B"), 1)


def test_convention_audit_d2():
    report = convention_audit(3, 2)
    assert report["A_entries"] != report["B_entries"]
    assert not report["agree"]
    assert report["A_reverses_form"]
    assert report["blocks"]["1,1"] == "negated"
    assert report["status"]["B,left_to_right"]["preserves_form"]
    assert report["status"]["A"]["builds"]


def test_convention_audit_d3():
    report = convention_audit(2, 3)
    assert report["A_is_minus_B"]
    assert report["A_preserves_form"]
    report = convention_audit(3, 3)
    assert report["blocks"]["1,1"] == "negated"
    assert not report["status"]["A"]["preserves_form"]
    assert not report["status"]["B,right_to_left"]["builds"]


@given(nd_pairs)
@settings(max_examples=20, deadline=None)
def test_generators_unimodular(nd):
    n, d = nd
    rep = build_rep(n, d, "B")
    for t in rep.matrices:
        s = snf(t)
        assert s.rank == rep.dim and all(v == 1 for v in s.divisors)


@pytest.mark.parametrize("construction, order", [
    ("A", "left_to_right"), ("B", "left_to_right"), ("B", "right_to_left")])
def test_build_rep_makes_one_intersection_form(monkeypatch, construction,
                                              order):
    """A representation builds its intersection form once and hands it to
    every generator's twist, whichever construction and order it uses
    (B, right_to_left breaks the braid relations after its twists are
    built)."""
    made = []

    class Counting(IntersectionForm):
        def __init__(self, n, d):
            made.append((n, d))
            super().__init__(n, d)

    monkeypatch.setattr(twists, "IntersectionForm", Counting)
    try:
        rep = build_rep(8, 4, construction, order)
    except RelationError:
        rep = None
    assert made == [(8, 4)]
    if rep is not None:
        assert rep.matrices == [twists.twist_matrix(8, 4, k, construction,
                                                    order)
                                for k in range(1, 8)]


@pytest.mark.parametrize("d", range(2, 9))
def test_curve_representation_is_burau_at_a_root_of_unity(d):
    for n in range(2, 11):
        x = _intertwiner(n, d)
        rep = build_rep(n, d)
        for k in range(1, n):
            assert x * rep.generator(k) == _burau(n, d, k) * x, (n, k)
        form = snf(x)
        assert form.rank == x.nrows and all(v == 1 for v in form.divisors)


@pytest.mark.parametrize("d", range(2, 7))
def test_construction_A_is_not_burau(d):
    for n in range(3, 7):
        x = _intertwiner(n, d)
        rep = build_rep(n, d, construction="A")
        assert any(x * rep.generator(k) != _burau(n, d, k) * x
                   for k in range(1, n)), n


@pytest.mark.parametrize("n, d", [(8, 4), (7, 3), (6, 6), (8, 2)])
def test_burau_rows_equal_the_computed_rows(n, d):
    """Over Z, including the cells (8, 4) and (8, 5) of d = 4 where the
    computation differs from the bundled reference."""
    spec = CoxeterSpec("A", n - 1)
    burau = LocalSystem(spec, [_burau(n, d, k) for k in range(1, n)])
    row = engine.homology(build_complex(spec, burau), "z")
    assert row == braid_twisted_homology(n, d)
    if (n, d) == (8, 4):
        assert row[4] == AbelianGroup.from_divisors(0, (2, 2, 12))
        assert row[5] == AbelianGroup.from_divisors(0, (2, 2, 2, 2, 2, 12))
