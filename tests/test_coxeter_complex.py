"""Tests for Coxeter combinatorics, local systems, and the chain complexes."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbraid.coxeter_complex import (
    CONVENTION_CANDIDATES,
    DEFAULT_CONVENTION,
    BoundaryConvention,
    BoundaryError,
    CoxeterSpec,
    LocalSystem,
    T_VARIANTS,
    build_complex,
    companion_t_matrix,
    min_coset_reps,
    t_local_system,
    trivial_system,
)
from superbraid.coxeter_complex import complexes
from superbraid.coxeter_complex.complexes import _boundaries, _subsets_colex
from superbraid.exact_linalg import AbelianGroup, IntMatrix, homology_pair
from superbraid.surface_rep import RelationError, build_rep


def group(rank, *torsion):
    return AbelianGroup.from_divisors(rank, torsion)


def homology(cx):
    return [homology_pair(cx.boundary(k), cx.boundary(k + 1))
            for k in range(cx.spec.rank + 1)]


def enumerate_group(spec, generators=None):
    """All elements reachable from the identity, mapped to their BFS depth."""
    gens = spec.generators if generators is None else generators
    depth = {spec.identity(): 0}
    frontier = [spec.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                v = spec.apply_right(w, g)
                if v not in depth:
                    depth[v] = depth[w] + 1
                    nxt.append(v)
        frontier = nxt
    return depth


def surface_system(n, d):
    """Braid generators acting on curve classes, packaged as a local system."""
    rep = build_rep(n, d, construction="B", order="left_to_right")
    spec = CoxeterSpec("A", n - 1)
    return spec, LocalSystem(spec, [rep.generator(k) for k in range(1, n)])


def reference_boundary(spec, rho, k, convention):
    """The documented block sum, one (Gamma, tau) pair at a time, exactly.

    Block (Gamma, tau) is the sum over the minimal coset representatives
    beta of W_{Gamma - tau} in W_Gamma of
    (-1)^(length(beta) + mu + mu_base) rho(lift(beta)), with mu the
    position of tau in Gamma.
    """
    dim = rho.dimension
    rows = {g: i for i, g in enumerate(_subsets_colex(spec.rank, k - 1))}
    triples = []
    for ci, gamma in enumerate(_subsets_colex(spec.rank, k)):
        for mu, tau in enumerate(gamma):
            prime = tuple(g for g in gamma if g != tau)
            for rep in min_coset_reps(spec, gamma, prime, convention.side):
                sign = (-1) ** (rep.length + mu + convention.mu_base)
                lift = rho.evaluate_word(rep.word)
                triples.extend((rows[prime] * dim + r, ci * dim + c, sign * v)
                               for r, c, v in lift.triples())
    return IntMatrix.from_triples(len(rows) * dim,
                                  math.comb(spec.rank, k) * dim, triples)


def assert_reference_boundaries(spec, rho):
    for convention in CONVENTION_CANDIDATES:
        got = _boundaries(spec, rho, convention)
        assert sorted(got) == list(range(1, spec.rank + 1))
        for k, b in got.items():
            assert b == reference_boundary(spec, rho, k, convention), (
                convention, k)


class TestCoxeterSpec:
    def test_coxeter_m_values(self):
        a = CoxeterSpec("A", 3)
        assert (a.coxeter_m(0, 1), a.coxeter_m(1, 2), a.coxeter_m(0, 2)) == (3, 3, 2)
        b = CoxeterSpec("B", 3)
        assert (b.coxeter_m(0, 1), b.coxeter_m(1, 2), b.coxeter_m(0, 2)) == (4, 3, 2)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            CoxeterSpec("D", 3)

    @pytest.mark.parametrize("family,rank,order", [
        ("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("B", 3, 48),
    ])
    def test_length_equals_word_search_depth(self, family, rank, order):
        spec = CoxeterSpec(family, rank)
        depth = enumerate_group(spec)
        assert len(depth) == order
        for w, k in depth.items():
            assert spec.length(w) == k

    @pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("B", 3)])
    def test_inverse_descents_and_multiplication(self, family, rank):
        spec = CoxeterSpec(family, rank)
        for w in enumerate_group(spec):
            inv = spec.inverse(w)
            assert spec.inverse(inv) == w
            assert spec.length(inv) == spec.length(w)
            assert spec.left_descents(w) == spec.right_descents(inv)
            for g in spec.generators:
                right_shorter = spec.length(spec.apply_right(w, g)) < spec.length(w)
                assert (g in spec.right_descents(w)) == right_shorter
                left_shorter = spec.length(spec.apply_left(w, g)) < spec.length(w)
                assert (g in spec.left_descents(w)) == left_shorter

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
    def test_one_generator_can_change_left_descent(self, family, rank):
        spec = CoxeterSpec(family, rank)
        for w in enumerate_group(spec):
            before = spec.right_descents(spec.inverse(w))
            for s in spec.generators:
                after = spec.right_descents(
                    spec.inverse(spec.apply_right(w, s)))
                moved = spec.left_descent_moved_by(w, s)
                assert before ^ after <= {moved}

    def test_parabolic_orders(self):
        a3 = CoxeterSpec("A", 3)
        assert a3.parabolic_order((0, 1, 2)) == 24
        assert a3.parabolic_order((0, 2)) == 4
        assert a3.parabolic_order(()) == 1
        b3 = CoxeterSpec("B", 3)
        assert b3.parabolic_order((0, 1, 2)) == 48
        assert b3.parabolic_order((0,)) == 2
        assert b3.parabolic_order((0, 1)) == 8
        assert b3.parabolic_order((1, 2)) == 6

    @pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3)])
    def test_parabolic_order_matches_enumeration(self, family, rank):
        spec = CoxeterSpec(family, rank)
        for k in range(rank + 1):
            for gamma in _subsets_colex(rank, k):
                got = len(enumerate_group(spec, generators=gamma))
                assert spec.parabolic_order(gamma) == got


class TestCosetReps:
    def test_index_three_example(self):
        spec = CoxeterSpec("A", 2)
        reps = min_coset_reps(spec, (0, 1), (1,))
        assert len(reps) == 3
        assert sorted(r.length for r in reps) == [0, 1, 2]

    def test_index_two_example(self):
        spec = CoxeterSpec("A", 2)
        reps = min_coset_reps(spec, (0,), ())
        assert len(reps) == 2

    def test_dihedral_order_four_reps(self):
        spec = CoxeterSpec("B", 2)
        reps = min_coset_reps(spec, (0, 1), (1,))
        assert sorted(r.length for r in reps) == [0, 1, 2, 3]

    def test_rejects_bad_subsets(self):
        spec = CoxeterSpec("A", 3)
        with pytest.raises(ValueError):
            min_coset_reps(spec, (0,), (0, 1))
        with pytest.raises(ValueError):
            min_coset_reps(spec, (0, 1), (1,), side="middle")

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
    def test_reps_partition_the_parabolic(self, family, rank):
        spec = CoxeterSpec(family, rank)
        for gamma in [(0, 1), (1, 2), (0, 1, 2)]:
            for prime in [(), gamma[:1], gamma[1:]]:
                reps = min_coset_reps(spec, gamma, prime)
                index = spec.parabolic_order(gamma) // spec.parabolic_order(prime)
                assert len(reps) == index
                assert len({r.element for r in reps}) == index
                for r in reps:
                    assert not (spec.left_descents(r.element) & set(prime))

    def test_left_and_right_reps_are_inverse_sets(self):
        spec = CoxeterSpec("B", 3)
        left = min_coset_reps(spec, (0, 1, 2), (0, 1))
        right = min_coset_reps(spec, (0, 1, 2), (0, 1), side="right")
        assert {spec.inverse(r.element) for r in left} == {r.element for r in right}

    def test_words_are_prefix_closed_and_reduced(self):
        spec = CoxeterSpec("B", 3)
        reps = min_coset_reps(spec, (0, 1, 2), (1, 2))
        for idx, r in enumerate(reps):
            assert r.length == len(r.word) == spec.length(r.element)
            w = spec.identity()
            for g in r.word:
                w = spec.apply_right(w, g)
            assert w == r.element
            if r.parent >= 0:
                assert r.parent < idx
                parent = reps[r.parent]
                assert r.word == parent.word + (r.letter,)
                assert spec.apply_right(parent.element, r.letter) == r.element
            else:
                assert r.word == ()

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_rep_count_property(self, data):
        family = data.draw(st.sampled_from(["A", "B"]))
        rank = data.draw(st.integers(1, 4 if family == "A" else 3))
        spec = CoxeterSpec(family, rank)
        gamma = tuple(sorted(data.draw(
            st.sets(st.integers(0, rank - 1), min_size=1))))
        prime = tuple(sorted(data.draw(st.sets(st.sampled_from(gamma)))))
        if prime == gamma:
            prime = gamma[1:]
        side = data.draw(st.sampled_from(["left", "right"]))
        reps = min_coset_reps(spec, gamma, prime, side=side)
        assert len(reps) == spec.parabolic_order(gamma) // spec.parabolic_order(prime)


class TestLocalSystems:
    def test_trivial_system_has_identity_actions(self):
        spec = CoxeterSpec("A", 3)
        sys = trivial_system(spec)
        assert sys.dimension == 1
        assert all(m == IntMatrix.identity(1) for m in sys.actions)

    def test_rejects_non_invertible_action(self):
        spec = CoxeterSpec("A", 1)
        with pytest.raises(RelationError):
            LocalSystem(spec, [IntMatrix.from_dense([[2]])])

    def test_rejects_braid_relation_failure(self):
        spec = CoxeterSpec("A", 2)
        swap = IntMatrix.from_dense([[0, 1], [1, 0]])
        flip = IntMatrix.from_dense([[1, 0], [0, -1]])
        with pytest.raises(RelationError):
            LocalSystem(spec, [swap, flip])

    def test_rejects_wrong_count_and_mixed_dimensions(self):
        spec = CoxeterSpec("A", 2)
        with pytest.raises(ValueError):
            LocalSystem(spec, [IntMatrix.identity(2)])
        with pytest.raises(ValueError):
            LocalSystem(spec, [IntMatrix.identity(2), IntMatrix.identity(3)])

    def test_evaluate_word_respects_braid_relation(self):
        spec, sys = surface_system(3, 3)
        assert sys.evaluate_word([0, 1, 0]) == sys.evaluate_word([1, 0, 1])
        assert sys.evaluate_word([]) == IntMatrix.identity(sys.dimension)

    def test_companion_matrix_satisfies_module_relation(self):
        for d in range(1, 7):
            c = companion_t_matrix(d)
            minus_c = -c
            assert minus_c.pow(d) == IntMatrix.identity(d)
            for k in range(1, d):
                assert minus_c.pow(k) != IntMatrix.identity(d)

    def test_t_variant_catalogue(self):
        assert T_VARIANTS == ((1, 1), (1, -1), (-1, 1), (-1, -1))

    @pytest.mark.parametrize("variant", [0, 1, 2, 3])
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 4)])
    def test_t_systems_satisfy_artin_relations(self, variant, n, d):
        sys = t_local_system(n, d, variant=variant)
        assert sys.spec == CoxeterSpec("B", n)
        assert sys.dimension == d

    def test_t_system_signs(self):
        c = companion_t_matrix(3)
        eye = IntMatrix.identity(3)
        sys = t_local_system(3, 3, variant=2)
        assert sys.action(0) == -c
        assert sys.action(1) == eye and sys.action(2) == eye
        sys0 = t_local_system(3, 3, variant=0)
        assert sys0.action(0) == c


class TestChainComplexes:
    def test_colex_subset_order(self):
        assert _subsets_colex(4, 2) == [
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]

    def test_cell_counts(self):
        spec, sys = surface_system(4, 3)
        cx = build_complex(spec, sys)
        for k in range(spec.rank + 1):
            assert cx.rank(k) == math.comb(spec.rank, k) * sys.dimension
        assert cx.rank(-1) == 0 and cx.rank(spec.rank + 1) == 0
        assert cx.boundary(spec.rank + 1).ncols == 0

    def test_rejects_mismatched_spec(self):
        spec = CoxeterSpec("A", 2)
        sys = trivial_system(CoxeterSpec("A", 3))
        with pytest.raises(ValueError):
            build_complex(spec, sys)

    @pytest.mark.parametrize("rank,expected", [
        (1, ["Z", "Z"]),
        (2, ["Z", "Z", "0"]),
        (3, ["Z", "Z", "Z_2", "0"]),
        (4, ["Z", "Z", "Z_2", "0", "0"]),
        (5, ["Z", "Z", "Z_2", "Z_2", "Z_3", "0"]),
    ])
    def test_braid_group_trivial_coefficients(self, rank, expected):
        spec = CoxeterSpec("A", rank)
        cx = build_complex(spec, trivial_system(spec))
        assert [g.describe() for g in homology(cx)] == expected

    @pytest.mark.parametrize("rank,expected", [
        (2, [group(1), group(2), group(1)]),
        (3, [group(1), group(2), group(2), group(1)]),
        (4, [group(1), group(2), group(2, 2), group(2), group(1)]),
    ])
    def test_signed_braid_group_trivial_coefficients(self, rank, expected):
        spec = CoxeterSpec("B", rank)
        cx = build_complex(spec, trivial_system(spec))
        assert homology(cx) == expected

    def test_curve_class_coefficients_match_known_row(self):
        spec, sys = surface_system(4, 3)
        cx = build_complex(spec, sys)
        assert homology(cx) == [group(0), group(0, 3), group(0, 3), group(0)]

    def test_convention_scan_prefers_default(self):
        spec, sys = surface_system(4, 3)
        passing = []
        for cand in CONVENTION_CANDIDATES:
            try:
                build_complex(spec, sys, cand)
            except BoundaryError:
                continue
            passing.append(cand)
        assert passing and passing[0] == DEFAULT_CONVENTION
        assert DEFAULT_CONVENTION == BoundaryConvention("left", 0)
        assert all(c.side == "left" for c in passing)

    def test_failure_is_located(self):
        spec, sys = surface_system(4, 3)
        with pytest.raises(BoundaryError) as info:
            build_complex(spec, sys, BoundaryConvention("right", 0))
        err = info.value
        assert err.degree >= 1
        assert len(err.gamma) == len(err.gamma2) + 2
        assert "block" in str(err)

    def test_sign_base_flips_every_boundary(self):
        spec, sys = surface_system(3, 2)
        plain = build_complex(spec, sys, BoundaryConvention("left", 0))
        flipped = build_complex(spec, sys, BoundaryConvention("left", 1))
        for k in range(1, spec.rank + 1):
            assert flipped.boundary(k) == -plain.boundary(k)

    def test_homology_independent_of_passing_convention(self):
        spec = CoxeterSpec("B", 3)
        sys = t_local_system(3, 3, variant=2)
        rows = []
        for cand in CONVENTION_CANDIDATES:
            try:
                rows.append(homology(build_complex(spec, sys, cand)))
            except BoundaryError:
                continue
        assert rows
        assert all(row == rows[0] for row in rows)
        assert [g.rank for g in rows[0]] == [1, 2, 2, 1]

    def test_to_json_shape(self):
        spec, sys = surface_system(3, 2)
        cx = build_complex(spec, sys)
        blob = cx.to_json()
        assert set(blob) == {
            "family", "rank", "dimension", "ranks", "boundaries", "convention"}
        assert blob["family"] == "A" and blob["rank"] == 2
        assert blob["ranks"] == [cx.rank(k) for k in range(3)]
        assert blob["convention"] == {"side": "left", "mu_base": 0}
        rebuilt = {
            int(k): IntMatrix.from_triples(
                cx.boundary(int(k)).nrows, cx.boundary(int(k)).ncols,
                [tuple(t) for t in triples])
            for k, triples in blob["boundaries"].items()}
        assert rebuilt == cx.boundaries
        json.dumps(blob)


class TestRunBlocks:
    """Boundaries built once per (run, tau) equal the per-(Gamma, tau) sum."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_braid_systems(self, n, d):
        assert_reference_boundaries(*surface_system(n, d))

    @pytest.mark.parametrize("variant", [0, 1, 2, 3])
    def test_t_systems(self, variant):
        rho = t_local_system(4, 3, variant=variant)
        assert_reference_boundaries(rho.spec, rho)

    def test_trivial_systems(self):
        for spec in (CoxeterSpec("A", 4), CoxeterSpec("B", 3)):
            assert_reference_boundaries(spec, trivial_system(spec, 2))

    def test_exact_fallback_past_the_int64_guard(self, monkeypatch):
        exact_calls = []
        exact = complexes._run_block_exact

        def counted(*args):
            exact_calls.append(args)
            return exact(*args)

        monkeypatch.setattr(complexes, "_run_block_exact", counted)
        spec, rho = surface_system(4, 2)
        assert_reference_boundaries(spec, rho)
        assert not exact_calls
        dim = rho.dimension
        p = IntMatrix(dim, dim, {**IntMatrix.identity(dim).entries,
                                 (0, 1): 1 << 20})
        p_inv = IntMatrix(dim, dim, {**IntMatrix.identity(dim).entries,
                                     (0, 1): -(1 << 20)})
        big = LocalSystem(spec, [p_inv * a * p for a in rho.actions])
        assert max(a.max_abs() for a in big.actions) >= 1 << 40
        assert_reference_boundaries(spec, big)
        assert exact_calls
