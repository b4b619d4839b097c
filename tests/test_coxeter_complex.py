"""Tests for Coxeter combinatorics, local systems, and the chain complexes."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbraid.coxeter_complex import (
    BoundaryError,
    CoxeterSpec,
    LocalSystem,
    RelationError,
    build_complex,
    companion_t_matrix,
    min_coset_reps,
    t_local_system,
    trivial_system,
)
from superbraid.coxeter_complex import complexes, groups
from superbraid.coxeter_complex.complexes import _boundaries, _subsets_colex
from superbraid.exact_linalg import (
    AbelianGroup, CooMatrix, IntMatrix, first_nonzero_product, rank_mod_p,
    snf)
from superbraid.homology_engine import engine
from superbraid.surface_rep import build_rep


def group(rank, *torsion):
    return AbelianGroup.from_divisors(rank, torsion)


def homology(cx):
    """One plain snf per boundary: H_k is the free rank dim C_k - rank d_k -
    rank d_(k+1) plus the divisors of d_(k+1).  It shares no code with the
    engine's bottom-up sweep, so it stays a reference for that sweep."""
    forms = [snf(cx.boundary(k)) for k in range(cx.spec.rank + 2)]
    return [AbelianGroup.from_divisors(
                cx.rank(k) - forms[k].rank - forms[k + 1].rank,
                forms[k + 1].divisors)
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
    rho = build_rep(n, d, construction="B", order="left_to_right").system
    return rho.spec, rho


# (s_0 sign, s_i sign): every sign pattern of the type-B module, to cover
# the assembly on systems the engine does not use.
SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def signed_t_system(n, d, s0, si):
    """Type-B system with s_0 acting by s0 * t and s_i by si * 1."""
    c, eye = companion_t_matrix(d), IntMatrix.identity(d)
    return LocalSystem(CoxeterSpec("B", n),
                       [c if s0 == 1 else -c]
                       + [eye if si == 1 else -eye] * (n - 1))


def reference_boundary(spec, rho, k):
    """The documented block sum, one (Gamma, tau) pair at a time, exactly.

    Block (Gamma, tau) is the sum over the minimal coset representatives
    beta of W_{Gamma - tau} in W_Gamma, asked of Gamma itself rather than
    of the run holding tau, of (-1)^(length(beta) + mu) rho(lift(beta)),
    with mu the position of tau in Gamma.
    """
    dim = rho.dimension
    rows = {g: i for i, g in enumerate(_subsets_colex(spec.rank, k - 1))}
    out = np.zeros((len(rows) * dim, math.comb(spec.rank, k) * dim),
                   dtype=object)
    for ci, gamma in enumerate(_subsets_colex(spec.rank, k)):
        for mu, tau in enumerate(gamma):
            prime = tuple(g for g in gamma if g != tau)
            for rep in min_coset_reps(spec, gamma, prime):
                sign = (-1) ** (rep.length + mu)
                lift = rho.evaluate_word(rep.word)
                for r, c, v in lift.triples():
                    out[rows[prime] * dim + r, ci * dim + c] += sign * v
    return IntMatrix(out)


def int_matrix(m):
    """A CooMatrix as an IntMatrix, for exact products."""
    out = np.zeros((m.nrows, m.ncols), dtype=object)
    out[m.rows, m.cols] = m.vals
    return IntMatrix(out)


def assert_reference_boundaries(spec, rho):
    """Every boundary equals the reference; returns the (matrix type, value
    dtype name) pairs the boundaries were built as."""
    kinds = set()
    got = _boundaries(spec, rho)
    assert sorted(got) == list(range(1, spec.rank + 1))
    for k, b in got.items():
        assert int_matrix(b) == reference_boundary(spec, rho, k), k
        kinds.add((type(b), b.vals.dtype.name))
    return kinds


def tampered_build(spec, rho, k):
    """Build (spec, rho) with one sign of d_k flipped, the first in (row,
    col) order whose flip makes d_(k-1) . d_k nonzero in exact arithmetic,
    as the injected-fault self-test of verify picks it.  Returns the
    BoundaryError raised and the least nonzero (row, col) of that exact
    product."""
    plain = _boundaries(spec, rho)
    low, high = int_matrix(plain[k - 1]), plain[k]
    for _, _, at in sorted(zip(high.rows.tolist(), high.cols.tolist(),
                               range(high.nnz()))):
        vals = high.vals.copy()
        vals[at] = -vals[at]
        tampered = CooMatrix(high.nrows, high.ncols, high.rows, high.cols,
                             vals)
        product = low * int_matrix(tampered)
        if product.array.any():
            break
    with pytest.MonkeyPatch.context() as mp, \
            pytest.raises(BoundaryError) as info:
        mp.setattr(complexes, "_boundaries", lambda *_: {**plain, k: tampered})
        build_complex(spec, rho)
    return info.value, product.triples()[0][:2]


INT64_COO = {(CooMatrix, "int64")}

COSET_TABLES = Path(__file__).resolve().parent / "golden" / "coset_tables.json"
COSET_TABLE_RANKS = ([("A", r) for r in range(16)]
                     + [("B", r) for r in range(9)])


def coset_cases(ranks):
    """(spec, gamma, gamma') for each (family, rank) in ranks: every pair of
    nested generator subsets up to A_7 and B_5, and above them only the run
    shapes, gamma all generators and gamma' missing one."""
    for family, rank in ranks:
        spec = CoxeterSpec(family, rank)
        if rank <= (7 if family == "A" else 5):
            for k in range(rank + 1):
                for gamma in _subsets_colex(rank, k):
                    for j in range(k + 1):
                        for prime in combinations(gamma, j):
                            yield spec, gamma, prime
        else:
            gamma = tuple(range(rank))
            for tau in gamma:
                yield spec, gamma, tuple(g for g in gamma if g != tau)


def coset_digest(family, rank):
    """sha256 over the parent, letter and length arrays of _coset_reps for
    the coset_cases of one (family, rank), each behind its subsets."""
    digest = hashlib.sha256()
    for _, gamma, prime in coset_cases([(family, rank)]):
        table = groups._coset_reps(family, rank, gamma, prime)
        digest.update(repr((gamma, prime)).encode())
        for a in (table.parent, table.letter, table.length):
            digest.update(a.tobytes())
    return digest.hexdigest()


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

    def test_runs_and_run_shapes(self):
        b5 = CoxeterSpec("B", 5)
        gamma = (0, 1, 3, 4)
        assert b5.runs(gamma) == ((0, 1), (3, 4))
        assert [b5.run_shape(run) for run in b5.runs(gamma)] == [
            CoxeterSpec("B", 2), CoxeterSpec("A", 2)]
        assert b5.parabolic_order(gamma) == 48

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
            min_coset_reps(spec, (0, 4), ())

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

    def test_words_are_prefix_closed_and_reduced(self):
        """Over every (gamma, gamma') of A_1..A_5 and B_1..B_4.  Each view's
        length is checked against CoxeterSpec.length, which the search
        never calls."""
        ranks = [("A", r) for r in range(1, 6)] + [("B", r) for r in range(1, 5)]
        for spec, gamma, prime in coset_cases(ranks):
            reps = min_coset_reps(spec, gamma, prime)
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
                    assert (spec.apply_right(parent.element, r.letter)
                            == r.element)
                else:
                    assert r.word == ()

    @pytest.mark.parametrize("family, rank", COSET_TABLE_RANKS)
    def test_tables_match_the_recorded_digests(self, family, rank):
        """The parent, letter and length arrays of every (gamma, gamma') of
        A_0..A_7 and B_0..B_5, and of the run shapes (gamma all generators,
        gamma' one fewer) above those ranks, are pinned by one sha256 per
        (family, rank): the storage order and the pivots of every boundary
        follow them.  To rewrite tests/golden/coset_tables.json after an
        intended change of tables, run ``python tests/test_coxeter_complex.py``
        and review it."""
        recorded = json.loads(COSET_TABLES.read_text())
        try:
            assert coset_digest(family, rank) == recorded[f"{family},{rank}"]
        finally:
            groups._coset_reps.cache_clear()

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
        reps = min_coset_reps(spec, gamma, prime)
        assert len(reps) == spec.parabolic_order(gamma) // spec.parabolic_order(prime)


class TestLocalSystems:
    def test_trivial_system_has_identity_actions(self):
        spec = CoxeterSpec("A", 3)
        sys = trivial_system(spec)
        assert sys.dimension == 1
        assert all(m == IntMatrix.identity(1) for m in sys.actions)

    def test_rejects_non_invertible_action(self):
        spec = CoxeterSpec("A", 1)
        with pytest.raises(RelationError) as err:
            LocalSystem(spec, [IntMatrix([[2]])])
        assert err.value.identity == "det T1 = +-1"

    def test_rejects_braid_relation_failure(self):
        spec = CoxeterSpec("A", 2)
        swap = IntMatrix([[0, 1], [1, 0]])
        flip = IntMatrix([[1, 0], [0, -1]])
        with pytest.raises(RelationError) as err:
            LocalSystem(spec, [swap, flip])
        assert err.value.identity == "T1 T2 T1 = T2 T1 T2"

    def test_rejects_far_generators_that_do_not_commute(self):
        swap = IntMatrix([[0, 1], [1, 0]])
        flip = IntMatrix([[1, 0], [0, -1]])
        # T1 and T2 braid (they are equal), but T1 and T3 do not commute.
        with pytest.raises(RelationError) as err:
            LocalSystem(CoxeterSpec("A", 3), [swap, swap, flip])
        assert err.value.identity == "T1 T3 = T3 T1"

    def test_rejects_order_four_relation_failure(self):
        x = IntMatrix([[1, 1], [0, 1]])
        y = IntMatrix([[1, 0], [1, 1]])
        with pytest.raises(RelationError) as err:
            LocalSystem(CoxeterSpec("B", 2), [x, y])
        assert err.value.identity == "T1 T2 T1 T2 = T2 T1 T2 T1"

    def test_relations_are_checked_before_unimodularity(self):
        doubled = IntMatrix([[2, 0], [0, 1]])
        swap = IntMatrix([[0, 1], [1, 0]])
        with pytest.raises(RelationError) as err:
            LocalSystem(CoxeterSpec("A", 2), [doubled, swap])
        assert err.value.identity == "T1 T2 T1 = T2 T1 T2"

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

    @pytest.mark.parametrize("pair", range(len(SIGN_PAIRS)))
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 4)])
    def test_t_systems_satisfy_artin_relations(self, pair, n, d):
        sys = signed_t_system(n, d, *SIGN_PAIRS[pair])
        assert sys.spec == CoxeterSpec("B", n)
        assert sys.dimension == d

    def test_t_system_signs(self):
        c = companion_t_matrix(3)
        eye = IntMatrix.identity(3)
        sys = t_local_system(3, 3)
        assert sys.actions[0] == -c
        assert sys.actions[1] == eye and sys.actions[2] == eye
        assert sys.actions == signed_t_system(3, 3, -1, 1).actions


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

    def test_failure_is_located(self):
        spec, sys = surface_system(4, 3)
        err, _ = tampered_build(spec, sys, spec.rank)
        assert err.degree == spec.rank - 1
        assert len(err.gamma) == len(err.gamma2) + 2
        assert "block" in str(err)

    @pytest.mark.parametrize("n, d", [(4, 3), (5, 2), (6, 3)])
    def test_failure_names_the_least_nonzero_cell(self, n, d):
        """With one sign of d_k flipped, the error names the blocks of the
        least (row, col) at which d_(k-1) * d_k is nonzero."""
        spec, sys = surface_system(n, d)
        cells = {k: _subsets_colex(spec.rank, k)
                 for k in range(spec.rank + 1)}
        for k in range(2, spec.rank + 1):
            err, (r, c) = tampered_build(spec, sys, k)
            assert (err.degree, err.gamma, err.gamma2) == (
                k - 1, cells[k][c // sys.dimension],
                cells[k - 2][r // sys.dimension])

class TestRunBlocks:
    """Boundaries built once per (run, tau) equal the per-(Gamma, tau) sum."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_braid_systems(self, n, d):
        assert assert_reference_boundaries(*surface_system(n, d)) == INT64_COO

    @pytest.mark.parametrize("pair", range(len(SIGN_PAIRS)))
    def test_t_systems(self, pair):
        rho = signed_t_system(4, 3, *SIGN_PAIRS[pair])
        assert assert_reference_boundaries(rho.spec, rho) == INT64_COO

    def test_trivial_systems(self):
        for spec in (CoxeterSpec("A", 4), CoxeterSpec("B", 3)):
            assert assert_reference_boundaries(
                spec, trivial_system(spec, 2)) == INT64_COO

    @staticmethod
    def conjugated(shift):
        """The n = 4, d = 2 braid system conjugated by an elementary matrix
        with entry 2^shift, so its blocks grow with shift."""
        spec, rho = surface_system(4, 2)
        p = np.eye(rho.dimension, dtype=object)
        p[0, 1] = 1 << shift
        p_inv = p.copy()
        p_inv[0, 1] = -(1 << shift)
        p, p_inv = IntMatrix(p), IntMatrix(p_inv)
        return spec, LocalSystem(spec, [p_inv * a * p for a in rho.actions])

    def test_exact_fallback_past_the_int64_guard(self, monkeypatch):
        """A block whose int64 guard trips is lifted once more in exact
        ints (an object array); its values return to int64 if they fit."""
        lifted = []
        run_block = complexes._run_block

        def counted(reps, gens, *args):
            lifted.append(gens.dtype.name)
            return run_block(reps, gens, *args)

        monkeypatch.setattr(complexes, "_run_block", counted)
        spec, rho = surface_system(4, 2)
        assert assert_reference_boundaries(spec, rho) == INT64_COO
        assert set(lifted) == {"int64"}
        lifted.clear()
        spec, big = self.conjugated(20)
        assert max(a.max_abs() for a in big.actions) >= 1 << 40
        # Past the 2^62 guard, but every entry still fits in int64.
        assert assert_reference_boundaries(spec, big) == INT64_COO
        assert "object" in lifted
        # Each retry follows one int64 attempt of the same block.
        retries = [i for i, name in enumerate(lifted) if name == "object"]
        assert all(i > 0 and lifted[i - 1] == "int64" for i in retries)

    def test_block_entry_past_int64_keeps_the_boundary_exact(self):
        spec, big = self.conjugated(32)
        assert (CooMatrix, "object") in assert_reference_boundaries(spec, big)
        cx = build_complex(spec, big)
        for k in range(1, spec.rank + 1):
            b = cx.boundary(k)
            assert isinstance(b, CooMatrix)
            assert int_matrix(b) == reference_boundary(spec, big, k)
        exact_valued = [cx.boundary(k) for k in range(1, spec.rank + 1)
                        if cx.boundary(k).vals.dtype == object]
        assert max(b.max_abs() for b in exact_valued) >= 1 << 64

    @pytest.mark.parametrize("shift", [32, 70])
    def test_conjugated_system_keeps_its_homology(self, shift):
        """Conjugating by a unimodular matrix gives an isomorphic module,
        so the exact-valued complex has the homology of the plain one: its
        object values go through the blocks, the assembly, the composition
        check, the unit-pivot kernel and the dense Smith form."""
        plain = build_complex(*surface_system(4, 2))
        spec, big = self.conjugated(shift)
        cx = build_complex(spec, big)
        assert any(cx.boundary(k).max_abs() >= 1 << 64
                   for k in range(1, spec.rank + 1))
        for coeff in ("z", "f:2", "f:3", f"f:{2**64 - 59}"):
            assert engine.homology(cx, coeff) == engine.homology(plain,
                                                                 coeff)

    @pytest.mark.parametrize("n, d", [(5, 2), (6, 2), (6, 3), (5, 4)])
    def test_pivots_follow_the_write_order(self, n, d):
        """The array boundaries eliminate exactly as a CooMatrix holding
        the reference nonzeros in the order the blocks are written: Gamma
        colex, tau ascending in Gamma, each block row-major.  Pivots,
        divisors and the bottom-up sweep's skipped rows all follow that
        order."""
        spec, rho = surface_system(n, d)
        cx = build_complex(spec, rho)
        dim = rho.dimension
        skip_z = skip_3 = ()
        for k in range(1, spec.rank + 1):
            cols = _subsets_colex(spec.rank, k)
            rows = _subsets_colex(spec.rank, k - 1)

            def write_position(entry):
                r, c, _ = entry
                gamma = cols[c // dim]
                (tau,) = set(gamma) - set(rows[r // dim])
                return (c // dim, gamma.index(tau), r, c)

            b = cx.boundary(k)
            assert isinstance(b, CooMatrix)
            ref = sorted(reference_boundary(spec, rho, k).triples(),
                         key=write_position)
            written = CooMatrix(b.nrows, b.ncols,
                                *(np.array(a, dtype=np.int64)
                                  for a in zip(*ref)))
            assert list(b.stored()) == list(written.stored())
            assert snf(b) == snf(written)
            form = snf(b.without_rows(skip_z))
            assert form == snf(written.without_rows(skip_z))
            mod3 = rank_mod_p(b.without_rows(skip_3), 3)
            assert mod3 == rank_mod_p(written.without_rows(skip_3), 3)
            skip_z, skip_3 = form.pivot_cols, mod3.pivot_cols

    def test_boundaries_keep_few_bytes_per_nonzero(self):
        """A built complex keeps each boundary nonzero in three int64
        slots, not in a tuple-keyed dict entry (over 100 bytes each).  The
        coset memo is emptied before and after the build, so only what the
        complex itself holds is counted."""
        spec, rho = surface_system(9, 2)
        groups._coset_reps.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            cx = build_complex(spec, rho)
            groups._coset_reps.cache_clear()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        nnz = sum(cx.boundary(k).nnz() for k in range(1, spec.rank + 1))
        assert nnz > 5000
        assert kept < 48 * nnz, kept / nnz

    def test_runs_of_one_shape_share_one_enumeration(self, monkeypatch):
        """Coset representatives are asked of the standalone parabolic of
        each run's shape (A_L, or B_L for a type-B run holding s_0), and
        the runs of one shape share one ask per tau offset: a build asks
        each (shape, gamma') exactly once, sum L over its shapes A_L and
        B_L."""
        asked = []

        def recording(spec, gamma, gamma_prime):
            asked.append((spec, tuple(gamma), tuple(gamma_prime)))
            return min_coset_reps(spec, gamma, gamma_prime)

        monkeypatch.setattr(complexes, "min_coset_reps", recording)
        for (spec, rho), asks in ((surface_system(6, 2), 15),
                                  ((CoxeterSpec("B", 4),
                                    t_local_system(4, 3)), 16)):
            asked.clear()
            _boundaries(spec, rho)
            for shape, gamma, _ in asked:
                assert gamma == tuple(range(shape.rank))
            families = {shape.family for shape, _, _ in asked}
            assert families == ({"A"} if spec.family == "A" else {"A", "B"})
            assert len(set(asked)) == len(asked) == asks


class TestBuildMemory:
    """What a build holds besides its boundaries stays small."""

    def test_coset_memo_keeps_few_bytes_per_representative(self):
        """The memo keeps each representative as three int64 entries
        (parent, letter, length), not as element and word tuples (about
        400 bytes each)."""
        groups._coset_reps.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            count = 0
            for rank in range(1, 12):
                spec = CoxeterSpec("A", rank)
                for tau in range(rank):
                    count += len(min_coset_reps(
                        spec, tuple(range(rank)),
                        tuple(g for g in range(rank) if g != tau)))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            groups._coset_reps.cache_clear()
        assert count > 8000
        assert kept < 64 * count, kept / count

    def test_composition_check_peak_per_nonzero(self):
        """d_6 . d_7 of row (12, 2), about 52 000 nonzeros between them,
        is checked in fixed-size slices: its peak is the sorted copies of
        the two factors, not the expanded product terms (about 97 bytes
        per nonzero when a slice could hold nnz(a) + nnz(b) terms)."""
        spec, rho = surface_system(12, 2)
        bounds = _boundaries(spec, rho)
        low, high = bounds[6], bounds[7]
        gc.collect()
        tracemalloc.start()
        try:
            assert first_nonzero_product(low, high) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nnz = low.nnz() + high.nnz()
        assert nnz > 50000
        assert peak < 72 * nnz, peak / nnz


@pytest.fixture(scope="module")
def row_12_boundaries():
    spec, rho = surface_system(12, 2)
    return _boundaries(spec, rho)


def _traced_peak(call):
    """call() and the tracemalloc peak it reached."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestWorkingSetMemory:
    """After assembly, the composition check and the elimination kernel
    hold little besides the boundaries they are given: row (12, 2), the
    largest row of the benchmark's stretch workload."""

    def test_composition_check_keeps_no_sorted_copies(self,
                                                      row_12_boundaries):
        """d_6 . d_7 is read through stable index orders of the two
        factors and per-row counts; sorted copies of both factors' arrays
        took about 61 bytes per nonzero."""
        low, high = row_12_boundaries[6], row_12_boundaries[7]
        found, peak = _traced_peak(lambda: first_nonzero_product(low, high))
        assert found is None
        nnz = low.nnz() + high.nnz()
        assert nnz > 50000
        assert peak < 29 * nnz, peak / nnz

    def test_kernel_core_peak_per_nonzero(self, row_12_boundaries):
        """The Smith form of d_6 as the bottom-up sweep hands it over
        (without the rows at d_5's pivots): the numpy pre-pass copies no
        entry array, and the dict core holds one int object per index and
        column lists, not sets (about 160 bytes per nonzero)."""
        paired = ()
        for k in range(1, 6):
            paired = snf(row_12_boundaries[k].without_rows(paired)).pivot_cols
        m = row_12_boundaries[6].without_rows(paired)
        form, peak = _traced_peak(lambda: snf(m))
        assert form.rank > 2700
        assert m.nnz() > 16000
        assert peak < 105 * m.nnz(), peak / m.nnz()


if __name__ == "__main__":
    digests = {}
    for family, rank in COSET_TABLE_RANKS:
        digests[f"{family},{rank}"] = coset_digest(family, rank)
        groups._coset_reps.cache_clear()
    COSET_TABLES.write_text(json.dumps(digests, indent=1, sort_keys=True)
                            + "\n")
