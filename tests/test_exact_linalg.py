import importlib
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import superbraid
from superbraid.exact_linalg import (
    AbelianGroup,
    CooMatrix,
    IntMatrix,
    first_nonzero_product,
    prime_factors,
    product_is_zero,
    rank_mod_p,
    require_prime,
    snf,
)
from superbraid.exact_linalg import matrix as matrix_module
from superbraid.exact_linalg.snf import _unit_pivot_phase

# The package exports the function snf, which hides the module of that name.
snf_module = importlib.import_module("superbraid.exact_linalg.snf")

matrices = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def sympy_divisors(dense):
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    m = sympy.Matrix(dense)
    if m.rows == 0 or m.cols == 0:
        return []
    d = smith_normal_form(m)
    out = [abs(d[i, i]) for i in range(min(d.rows, d.cols)) if d[i, i] != 0]
    return sorted(out, key=lambda x: (0, 0) if x == 1 else (1, x))


def coo(nrows, ncols, entries):
    """A CooMatrix of the (row, col, value) entries, stored in the order
    given; its values are int64 while every |value| < 2^63."""
    i, j, v = (np.array([e[t] for e in entries], dtype=object)
               for t in range(3))
    if np.abs(v).max(initial=0) < 1 << 63:
        v = v.astype(np.int64)
    return CooMatrix(nrows, ncols, i.astype(np.int64), j.astype(np.int64), v)


def dense(m):
    """The rows of a CooMatrix."""
    out = [[0] * m.ncols for _ in range(m.nrows)]
    for i, j, v in m.stored():
        out[i][j] = v
    return out


def test_snf_diag_2_3_gives_1_6():
    s = snf(CooMatrix.from_dense([[2, 0], [0, 3]]))
    assert s.divisors == (1, 6)


def test_snf_zero_and_identity():
    assert snf(CooMatrix.from_dense([[0] * 4] * 3)).divisors == ()
    assert snf(CooMatrix.from_dense(np.eye(5, dtype=np.int64))).divisors == (
        (1,) * 5)


def test_rank_mod_p_diag():
    m = CooMatrix.from_dense([[2, 0], [0, 3]])
    assert rank_mod_p(m, 2).rank == 1
    assert rank_mod_p(m, 5).rank == 2
    assert rank_mod_p(m, 3).rank == 1


def test_rank_mod_p_reduces_entries_beyond_int64():
    m = CooMatrix.from_dense([[2**70, 1], [3, 5]])
    assert rank_mod_p(m, 3).rank == 2
    assert rank_mod_p(m, 2).rank == 2
    assert rank_mod_p(CooMatrix.from_dense([[2**70, 2**71]]), 2).rank == 0


@pytest.mark.parametrize("rows, p", [
    ([[3, 0], [0, 3]], 0), ([[3, 0], [0, 3]], 1), ([[2]], 4),
    ([[3, 0], [0, 3]], 9), ([], 9), ([[3, 0], [0, 3]], 2**64 + 13),
])
def test_rank_mod_p_refuses_uncertified_moduli(rows, p):
    with pytest.raises(ValueError):
        rank_mod_p(CooMatrix.from_dense(rows), p)


def test_abelian_group_describe():
    assert AbelianGroup(0).describe() == "0"
    assert AbelianGroup(2, (2, 6)).describe() == "Z^2 + Z_2 + Z_6"
    assert AbelianGroup(1).describe() == "Z"


def test_describe_large_prime_torsion_promptly():
    """Each prime-power part finds its prime by a short trial division
    and a primality certificate, so a cached Z_(2^31 - 1) prints at once.
    Run in a child process, so a long scan fails by timeout instead of
    stalling the suite."""
    code = ("from superbraid.exact_linalg import AbelianGroup as G\n"
            "print(G(0, (100000007,)).describe())\n"
            "print(G(1, (2, 2 * (2**31 - 1), 3**19)).describe())\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(superbraid.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=20, check=True).stdout
    assert out.splitlines() == [
        "Z_100000007", f"Z + Z_2 + Z_{2 * (2**31 - 1) * 3**19}"]


def test_product_of_two_large_primes_splits_promptly():
    """A torsion part p * q of two ~40-bit primes is split by a Pollard
    rho step and each prime certified, instead of a trial division up to
    sqrt(p * q).  Run in a child process, as above."""
    import sympy

    p, q = sympy.nextprime(2**40), sympy.nextprime(3 * 2**39)
    code = ("from superbraid.exact_linalg import AbelianGroup as G\n"
            f"p, q = {p}, {q}\n"
            "print(G(0, (p * q,)).primary() == (p, q))\n"
            "print(G(0, (p * q,)).describe())\n"
            "print(G(0, (2 * p, 2 * p * q)).primary() == (2, 2, p, p, q))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(superbraid.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=20, check=True).stdout
    assert out.splitlines() == ["True", f"Z_{p * q}", "True"]


def test_primary_parts_are_factored_once_per_group(monkeypatch):
    """==, hash, describe and p_primary_count all read the primary parts;
    each group factors each of its torsion entries once between them."""
    factored = []
    parts = snf_module._primary_parts

    def counted(q):
        factored.append(q)
        return parts(q)

    monkeypatch.setattr(snf_module, "_primary_parts", counted)
    a = AbelianGroup(1, (2, 12, 360))
    b = AbelianGroup(1, (8, 9, 5, 2, 12))
    assert a == b and hash(a) == hash(b)
    assert a.describe() == b.describe() == "Z + Z_2 + Z_12 + Z_360"
    assert a.p_primary_count(2) == b.p_primary_count(2) == 3
    assert a == b and hash(a) == hash(b)
    assert sorted(factored) == sorted(a.torsion + b.torsion)
    assert repr(a) == "AbelianGroup(rank=1, torsion=(2, 12, 360))"


def test_large_composite_torsion_is_factored_once():
    """primary() then describe() on Z_(p q), two ~40-bit primes, takes one
    Pollard rho split, not one per call.  Run in a child process, as
    above."""
    import sympy

    p, q = sympy.nextprime(2**40), sympy.nextprime(3 * 2**39)
    code = ("import importlib\n"
            "snf = importlib.import_module('superbraid.exact_linalg.snf')\n"
            "splits = []\n"
            "rho = snf._rho_factor\n"
            "snf._rho_factor = lambda n: splits.append(n) or rho(n)\n"
            f"g = snf.AbelianGroup(0, ({p * q},))\n"
            "print(g.primary())\n"
            "print(g.describe())\n"
            "print(len(splits))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(superbraid.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=20, check=True).stdout
    assert out.splitlines() == [f"({p}, {q})", f"Z_{p * q}", "1"]


@given(st.one_of(st.integers(1, 1 << 64),
                 st.lists(st.integers(2, 1 << 24), max_size=4).map(math.prod)))
@settings(max_examples=200, deadline=None)
def test_prime_factors_match_sympy(n):
    import sympy

    assert prime_factors(n) == tuple(sorted(sympy.factorint(n).items()))


def test_prime_factors_edge_cases():
    p = 2**61 - 1
    assert prime_factors(1) == ()
    assert prime_factors(360) == ((2, 3), (3, 2), (5, 1))
    assert prime_factors(p**2 * 3) == ((3, 1), (p, 2))
    for n in (0, -4):
        with pytest.raises(ValueError):
            prime_factors(n)


def test_equal_groups_describe_alike():
    assert AbelianGroup.from_divisors(0, (12,)).describe() == "Z_12"
    assert AbelianGroup.from_divisors(0, (3, 4)).describe() == "Z_12"
    assert AbelianGroup(0, (2, 2, 3, 4)).describe() == "Z_2 + Z_2 + Z_12"
    assert AbelianGroup(1, (2, 3, 4, 5, 8, 9)).describe() == (
        "Z + Z_2 + Z_12 + Z_360")
    assert AbelianGroup(0, (2, 3)).describe() == AbelianGroup(0, (6,)).describe()
    assert AbelianGroup(0, (6,)) == AbelianGroup(0, (2, 3))


def test_abelian_group_sum():
    a = AbelianGroup(1, (2,))
    b = AbelianGroup(0, (6,))
    assert a + b == AbelianGroup(1, (2, 2, 3))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_matches_sympy(rows):
    m = CooMatrix.from_dense(rows)
    mine = list(snf(m).divisors)
    assert mine == sympy_divisors(rows)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_snf_divisor_chain(rows):
    s = snf(CooMatrix.from_dense(rows))
    assert all(d >= 1 for d in s.divisors)
    for a, b in zip(s.divisors, s.divisors[1:]):
        assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_snf_with_skip_rows_matches_sympy_on_kept_rows(rows, data):
    skip = data.draw(st.sets(st.integers(0, len(rows) - 1)))
    kept = [row for i, row in enumerate(rows) if i not in skip]
    m = CooMatrix.from_dense(rows)
    assert list(snf(m.without_rows(skip)).divisors) == sympy_divisors(kept)


@settings(max_examples=100, deadline=None)
@given(matrices, st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_p_counts_nondivisible_invariants(rows, p):
    m = CooMatrix.from_dense(rows)
    s = snf(m)
    assert rank_mod_p(m, p).rank == sum(1 for d in s.divisors if d % p)


BIG_PRIMES = [2, 3, 5, 7, 2**31 - 1, 2**61 - 1]


@st.composite
def lifted_low_rank(draw):
    """(rows, p): a product of small factors, so the rank may fall short,
    plus p times entries up to 2^70, so many entries pass 2^64."""
    p = draw(st.sampled_from(BIG_PRIMES))
    r, k, c = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    small = st.integers(-9, 9)
    a = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(small, min_size=c, max_size=c), min_size=k, max_size=k))
    lift = st.one_of(st.just(0), st.integers(-(2**70), 2**70))
    rows = [[sum(a[i][t] * b[t][j] for t in range(k)) + p * draw(lift)
             for j in range(c)] for i in range(r)]
    return rows, p


def gf_rank(rows, p):
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[ZZ(v) for v in row] for row in rows],
                        (len(rows), len(rows[0])), ZZ).convert_to(GF(p)).rank()


@settings(max_examples=150, deadline=None)
@given(lifted_low_rank())
def test_rank_mod_p_matches_sympy_gf(case):
    rows, p = case
    assert rank_mod_p(CooMatrix.from_dense(rows), p).rank == gf_rank(rows, p)


@settings(max_examples=100, deadline=None)
@given(lifted_low_rank())
def test_rank_mod_p_pivot_cols_are_independent_columns(case):
    rows, p = case
    form = rank_mod_p(CooMatrix.from_dense(rows), p)
    cols = form.pivot_cols
    assert len(set(cols)) == len(cols) == form.rank
    assert form.divisors == (1,) * form.rank
    assert all(0 <= j < len(rows[0]) for j in cols)
    if cols:
        assert gf_rank([[row[j] for j in cols] for row in rows], p) == len(cols)


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_without_rows_keeps_shape_and_drops_named_rows(rows, data):
    drop = data.draw(st.sets(st.integers(0, len(rows) + 1)))
    m = CooMatrix.from_dense(rows)
    out = m.without_rows(drop)
    assert (out.nrows, out.ncols) == (m.nrows, m.ncols)
    assert dense(out) == [[0] * m.ncols if i in drop else row
                          for i, row in enumerate(rows)]
    assert dense(m) == rows


def test_without_rows_returns_the_matrix_when_it_drops_nothing():
    b = CooMatrix.from_dense([[1, 0], [0, 2], [0, 0]])
    assert b.without_rows(()) is b
    # row 2 stores nothing; rows -1 and 3 lie outside the matrix
    assert b.without_rows({2, -1, 3}) is b
    out = b.without_rows({1, 2})
    assert out is not b
    assert dense(out) == [[1, 0], [0, 0], [0, 0]]


@st.composite
def product_pairs(draw):
    """(a, b) with a.ncols == b.nrows.  Besides plain random pairs: pairs
    [P, P] * [Q; -Q] whose product cancels to zero, with the inner index
    shuffled and perhaps one sign of b flipped; entries scaled up to and
    past the 2^62 guard; and sizes whose product terms outnumber
    nnz(a) + nnz(b) several times, so the check runs in several row slices.
    """
    small = st.integers(-9, 9)
    r, k, c = (draw(st.integers(1, 12)) for _ in range(3))
    p = draw(st.lists(st.lists(small, min_size=k, max_size=k),
                      min_size=r, max_size=r))
    q = draw(st.lists(st.lists(small, min_size=c, max_size=c),
                      min_size=k, max_size=k))
    if draw(st.booleans()):
        p = [row + row for row in p]
        q = q + [[-v for v in row] for row in q]
        order = draw(st.permutations(range(2 * k)))
        p = [[row[t] for t in order] for row in p]
        q = [q[t] for t in order]
        if draw(st.booleans()):
            i, j = draw(st.integers(0, 2 * k - 1)), draw(st.integers(0, c - 1))
            q[i][j] = -q[i][j]
    scale = draw(st.sampled_from([1, 1, 2**29, 2**62]))
    p = [[v * scale for v in row] for row in p]
    return IntMatrix(p), IntMatrix(q)


def as_coo(*ms):
    """The CooMatrix of each IntMatrix, its nonzeros row-major."""
    return [CooMatrix.from_dense(m.array) for m in ms]


@settings(max_examples=200, deadline=None)
@given(product_pairs())
def test_product_is_zero_agrees_with_exact(pair):
    """A side with an entry past int64 holds exact ints in an object
    array; the exact product is the IntMatrix one."""
    a, b = pair
    assert product_is_zero(*as_coo(a, b)) == (not (a * b).array.any())


@settings(max_examples=200, deadline=None)
@given(product_pairs())
def test_first_nonzero_product_is_the_least_nonzero_cell(pair):
    """a's entries reach 9 * 2^62, past int64, and its CooMatrix then
    holds exact ints."""
    a, b = pair
    cells = [(i, j) for i, j, _ in (a * b).triples()]
    assert first_nonzero_product(*as_coo(a, b)) == min(cells, default=None)


@settings(max_examples=200, deadline=None)
@given(product_pairs(), st.integers(1, 3))
def test_tiny_slice_budget_keeps_the_least_nonzero_cell(pair, budget):
    """With a slice budget of 1 to 3 terms, a row of a with product terms
    makes its own slice once it has at least that many, and rows with
    fewer share one; either way the cell found is the least nonzero one."""
    a, b = pair
    cells = [(i, j) for i, j, _ in (a * b).triples()]
    with mock.patch.object(matrix_module, "PRODUCT_SLICE_TERMS", budget):
        assert first_nonzero_product(*as_coo(a, b)) == min(cells,
                                                           default=None)


@settings(max_examples=100, deadline=None)
@given(matrices, st.sampled_from([1, 2**64]), st.data())
def test_coo_matrix_members_match_int_matrix(rows, scale, data):
    m = IntMatrix([[v * scale for v in row] for row in rows])
    c = CooMatrix.from_dense(m.array)
    row_major = [(i, j, v) for i, row in enumerate(m.array.tolist())
                 for j, v in enumerate(row) if v]
    assert (c.nrows, c.ncols, c.nnz(), c.max_abs()) == (
        m.nrows, m.ncols, len(row_major), m.max_abs())
    assert c.triples() == m.triples()
    assert list(c.stored()) == row_major
    drop = data.draw(st.sets(st.integers(0, m.nrows - 1)))
    assert list(c.without_rows(drop).stored()) == [
        (i, j, v) for i, j, v in row_major if i not in drop]
    assert dense(c) == m.array.tolist()


def test_pivots_follow_the_storage_order():
    """The numpy pre-pass takes the unit singletons in the order they are
    stored, so a diagonal stored bottom-up pivots bottom-up.  The array
    boundaries keep the order the dict boundaries were written in, and
    with it every pivot of the pre-pass; the core that follows picks its
    pivots by column and row counts and indices."""
    x = coo(5, 5, [(i, i, 1) for i in reversed(range(5))])
    assert snf(x).pivot_cols == (4, 3, 2, 1, 0)
    assert rank_mod_p(x, 3).pivot_cols == (4, 3, 2, 1, 0)


@st.composite
def singleton_rich(draw):
    """(rows, m): a sparse matrix, mostly +-1, so many entries are alone
    in their row or column, some after others are peeled; its non-units
    (2, 3, 6) are sometimes scaled past 2^64.  m, a CooMatrix, holds its
    nonzeros in a drawn storage order."""
    r, c = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    scale = draw(st.sampled_from([1, 1, 2**64]))
    value = st.sampled_from([1, -1, 1, -1, 1, -1, 2, -2, 3, 6]).map(
        lambda v: v if v in (1, -1) else v * scale)
    cells = draw(st.lists(st.tuples(st.integers(0, r - 1),
                                    st.integers(0, c - 1), value),
                          max_size=2 * (r + c)))
    rows = [[0] * c for _ in range(r)]
    for i, j, v in cells:
        rows[i][j] = v
    order = draw(st.permutations(
        [(i, j) for i in range(r) for j in range(c) if rows[i][j]]))
    return rows, coo(r, c, [(i, j, rows[i][j]) for i, j in order])


def columns(rows, cols):
    return [[row[j] for j in cols] for row in rows]


@settings(max_examples=200, deadline=None)
@given(singleton_rich(), st.data())
def test_peeled_smith_form_matches_sympy(case, data):
    """Over Z, with and without skipped rows.  The pivot columns are
    distinct, one per unit divisor peeled, and each is a unit pivot: on
    the kept rows they span a lattice with every Smith divisor 1."""
    rows, m = case
    skip = data.draw(st.sets(st.integers(0, len(rows) - 1)))
    for skipped in (set(), skip):
        kept = [row for i, row in enumerate(rows) if i not in skipped]
        form = snf(m.without_rows(skipped))
        assert list(form.divisors) == sympy_divisors(kept)
        cols = form.pivot_cols
        assert len(set(cols)) == len(cols) <= form.divisors.count(1)
        assert sympy_divisors(columns(kept, cols)) == [1] * len(cols)


@settings(max_examples=200, deadline=None)
@given(singleton_rich(), st.sampled_from([2, 3, 7, 2**64 - 59]))
def test_peeled_rank_mod_p_matches_sympy_gf(case, p):
    """p = 2 and 3 divide some entries; 7 and 2^64 - 59 (past int64)
    exceed every entry below 2^64."""
    rows, m = case
    form = rank_mod_p(m, p)
    assert form.rank == gf_rank(rows, p)
    cols = form.pivot_cols
    assert len(set(cols)) == len(cols) == form.rank
    if cols:
        assert gf_rank(columns(rows, cols), p) == len(cols)


def assert_stops_on_no_unit(m, p):
    """Run the kernel on m over Z (p = 0) or F_p and check where it
    stopped: over Z the remainder holds no +-1, over F_p nothing is left,
    and the pivot columns are distinct.  A +-1 left in the remainder is a
    pivot the kernel missed; the dense Smith form would still find the
    right divisors from it, so only this check sees it."""
    pivot_cols, dense = _unit_pivot_phase(m, p)
    assert len(set(pivot_cols)) == len(pivot_cols)
    if p:
        assert dense == []
    else:
        assert not any(v in (1, -1) for row in dense for v in row)
    return pivot_cols, dense


@settings(max_examples=300, deadline=None)
@given(st.one_of(singleton_rich().map(lambda case: case[1]),
                 matrices.map(CooMatrix.from_dense)))
def test_elimination_stops_only_when_no_unit_is_left(m):
    """In a few percent of the dense draws from matrices, a row update
    writes the first unit into a column the kernel had set aside."""
    for p in (0, 3):
        assert_stops_on_no_unit(m, p)


def test_a_unit_written_by_a_row_update_is_pivoted():
    """Column 0 holds no unit until the pivot (0, 1) turns its 3 into
    3 - 2 = 1.  All three columns hold two entries, so column 0 is looked
    at first, set aside, and must be taken up again after that update."""
    m = CooMatrix.from_dense([[2, 1, 1], [3, 1, 1]])
    assert assert_stops_on_no_unit(m, 0) == ([1, 0], [])
    assert snf(m).divisors == (1, 1)


@pytest.mark.parametrize("rows, divisors", [
    ([[2]], (2,)),
    # the 2 is alone in its column; its row and the two above hold units
    ([[1, 0, 0], [0, 1, 0], [1, 1, 2]], (1, 1, 2)),
    ([[0, 1, 0], [-2, 0, 0], [0, 0, 1], [0, 1, 0]], (1, 1, 2)),
])
def test_non_unit_singletons_are_never_peeled(rows, divisors):
    m = CooMatrix.from_dense(rows)
    form = snf(m)
    assert form.divisors == divisors
    assert len(form.pivot_cols) == divisors.count(1)
    assert rank_mod_p(m, 2).rank == divisors.count(1)
    assert rank_mod_p(m, 3).rank == len(divisors)


def test_entry_past_int64_beside_unit_singletons():
    rows = [[2**64, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [6, 0, 0, 4],
            [0, 1, 0, 0]]
    m = CooMatrix.from_dense(rows)
    form = snf(m)
    assert list(form.divisors) == sympy_divisors(rows) == [1, 1, 2, 2**65]
    assert sorted(form.pivot_cols) == [1, 2]
    assert snf(m.without_rows({4})) == form
    for p in (2, 3, 2**61 - 1, 2**64 - 59):
        assert rank_mod_p(m, p).rank == gf_rank(rows, p)


def test_coo_keeps_an_entry_past_int64_exact():
    """The values are int64 while every |value| < 2^63, and exact Python
    ints in an object array once one is not."""
    fits = CooMatrix.from_dense([[1, (1 << 63) - 1]]).vals
    assert fits.dtype == np.int64
    m = CooMatrix.from_dense([[1 << 64, -(1 << 63)]])
    assert m.vals.dtype == object
    assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == (
        [0, 0], [0, 1], [1 << 64, -(1 << 63)])
    assert all(type(v) is int for v in m.vals)


def test_product_is_zero_cancels_across_row_slices():
    p = [[(3 * i + 5 * j) % 7 - 3 for j in range(6)] for i in range(12)]
    q = [[(2 * i - j) % 5 - 2 for j in range(9)] for i in range(6)]
    a = CooMatrix.from_dense([row + row for row in p])
    rows = q + [[-v for v in row] for row in q]
    b = CooMatrix.from_dense(rows)
    terms = sum(1 for _, k, _ in a.stored() for kk, _, _ in b.stored()
                if kk == k)
    assert terms > 3 * (a.nnz() + b.nnz())
    assert product_is_zero(a, b)
    for k, j, v in b.triples()[::5]:
        flipped = [row[:] for row in rows]
        flipped[k][j] = -v
        assert not product_is_zero(a, CooMatrix.from_dense(flipped))


def test_product_is_zero_keys_past_int64():
    # Output keys i * b.ncols + j of rows 0 and 2^40 differ by 2^64, so an
    # int64 key would merge the two cells and cancel them.
    a = coo(2**40 + 1, 1, [(0, 0, 1), (2**40, 0, -1)])
    b = coo(1, 2**24, [(0, 0, 1)])
    assert not product_is_zero(a, b)
    assert first_nonzero_product(a, b) == (0, 0)


def test_coo_coordinates_are_int32_below_two_to_31():
    """A CooMatrix holds int32 rows and columns while both dimensions are
    below 2^31, and int64 once either reaches it."""
    one = np.array([1], dtype=np.int64)
    small = CooMatrix(2**31 - 1, 2**31 - 1, one, one, one)
    assert small.rows.dtype == small.cols.dtype == np.int32
    assert small.vals.dtype == np.int64
    for nrows, ncols in ((2**31, 2), (2, 2**31)):
        wide = CooMatrix(nrows, ncols, one, one, one)
        assert wide.rows.dtype == wide.cols.dtype == np.int64
    assert CooMatrix.from_dense([[0, 2], [3, 0]]).rows.dtype == np.int32


def test_product_keys_are_taken_past_int32():
    # With int32 coordinates, the keys i * b.ncols + j of cells (0, 0) and
    # (2^16, 0) would both wrap to 0 and cancel.
    a = coo(2**16 + 1, 1, [(0, 0, 1), (2**16, 0, -1)])
    b = coo(1, 2**16, [(0, 0, 1)])
    assert a.rows.dtype == np.int32
    assert first_nonzero_product(a, b) == (0, 0)


@pytest.mark.parametrize("p", [3, 2**64 - 59])
def test_zero_residues_mod_p_are_dropped(p):
    """An entry that is zero mod p is no unit over F_p: it is dropped
    before the pre-pass, which would otherwise take it as a pivot alone
    in its column."""
    m = CooMatrix.from_dense([[p, 1, 0], [2 * p, 0, 0], [0, 0, 3 * p]])
    assert _unit_pivot_phase(m, p) == ([1], [])
    assert rank_mod_p(m, p).pivot_cols == (1,)
    assert rank_mod_p(CooMatrix.from_dense([[p, 2 * p]]), p).rank == 0


def test_product_is_zero_sums_past_int64():
    # Every entry fits in int64, but 2^62 * 4 and 2^62 * 2 + 2^62 * 2 are
    # 2^64, which int64 arithmetic would wrap to 0.
    a = CooMatrix.from_dense([[1 << 62, 1 << 62]])
    assert not product_is_zero(a, CooMatrix.from_dense([[4], [0]]))
    assert not product_is_zero(a, CooMatrix.from_dense([[2], [2]]))
    assert product_is_zero(a, CooMatrix.from_dense([[4], [-4]]))


def test_matrix_roundtrips():
    m = IntMatrix([[0, -2], [7, 0], [0, 1]])
    assert CooMatrix.from_dense(m.array).triples() == m.triples()
    assert m.transpose().transpose() == m
    assert not (m - m).array.any()


def python_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def int_matrix_cases(draw):
    """(a, b, c, s, e): a and c r x k, b k x c, s square and 0 <= e <= 4,
    as lists of rows; entries small, near the int64 bounds, or up to
    2^80."""
    entry = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80),
                      st.sampled_from([2**31, 2**62, 2**63 - 1, -2**63]))
    r, k, n = (draw(st.integers(1, 4)) for _ in range(3))

    def rows(nr, nc):
        return draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                             min_size=nr, max_size=nr))

    return (rows(r, k), rows(k, n), rows(r, k), rows(n, n),
            draw(st.integers(0, 4)))


@settings(max_examples=200, deadline=None)
@given(int_matrix_cases())
def test_int_matrix_arithmetic_matches_python_ints(case):
    """*, + and pow equal the Python-int products and sums, and hold
    int64 exactly when every |entry| < 2^63."""
    a, b, c, s, e = case
    power = [[int(i == j) for j in range(len(s))] for i in range(len(s))]
    for _ in range(e):
        power = python_product(power, s)
    for got, want in (
            (IntMatrix(a) * IntMatrix(b), python_product(a, b)),
            (IntMatrix(a) + IntMatrix(c),
             [[x + y for x, y in zip(u, v)] for u, v in zip(a, c)]),
            (IntMatrix(a) - IntMatrix(c),
             [[x - y for x, y in zip(u, v)] for u, v in zip(a, c)]),
            (IntMatrix(s).pow(e), power)):
        assert got.array.tolist() == want
        small = all(abs(v) < 1 << 63 for row in want for v in row)
        assert (got.array.dtype == np.int64) == small


def test_pivot_cols_one_per_peeled_unit():
    perm = CooMatrix.from_dense([[0, -1, 0], [0, 0, 1], [1, 0, 0]])
    assert sorted(snf(perm).pivot_cols) == [0, 1, 2]
    # no +-1 entry to peel: the unit divisor of diag(2, 3) comes from the
    # dense phase, so no pivot column records it
    assert snf(CooMatrix.from_dense([[2, 0], [0, 3]])).pivot_cols == ()
    assert snf(CooMatrix.from_dense([[0] * 3] * 2)).pivot_cols == ()


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_pivot_cols_are_distinct_nonzero_columns(rows):
    m = CooMatrix.from_dense(rows)
    s = snf(m)
    nonzero_cols = set(m.cols.tolist())
    assert len(set(s.pivot_cols)) == len(s.pivot_cols)
    assert set(s.pivot_cols) <= nonzero_cols
    assert len(s.pivot_cols) <= s.divisors.count(1)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_skip_rows_empty_reproduces_snf(rows):
    m = CooMatrix.from_dense(rows)
    assert snf(m.without_rows(())) == snf(m)


def test_skip_rows_drops_rows_before_eliminating():
    m = CooMatrix.from_dense([[1, 0], [0, 2], [0, 3]])
    assert snf(m).divisors == (1, 1)
    assert snf(m.without_rows({2})).divisors == (1, 2)
    assert snf(m.without_rows([0, 2])).divisors == (2,)
    # rows m does not have are not dropped from it
    assert snf(m.without_rows({-1, 3})).divisors == (1, 1)



def _certified(p):
    try:
        return require_prime(p) == p
    except ValueError:
        return False


def test_require_prime_matches_sympy_below_limit():
    import sympy

    for p in range(-2, 5000):
        assert _certified(p) == sympy.isprime(p), p


@given(st.integers(0, (1 << 64) - 1))
@settings(max_examples=300, deadline=None)
def test_require_prime_matches_sympy_up_to_two_to_64(p):
    import sympy

    assert _certified(p) == sympy.isprime(p)


@pytest.mark.parametrize("p, prime", [
    (561, False),                     # Carmichael
    (3215031751, False),              # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),     # strong pseudoprime to bases 2..23
    (2**61 - 1, True),
    (10**18 + 3, True),
    (2**64 - 59, True),               # the largest prime below 2^64
    (2**64 - 1, False),
])
def test_require_prime_on_hard_cases(p, prime):
    assert _certified(p) == prime


def test_require_prime_refuses_what_it_cannot_certify():
    for p in (2**64 + 13, 2**89 - 1, 10**400 + 1):  # 2^64 + 13 and 2^89 - 1 are prime
        with pytest.raises(ValueError, match="not below 2\\^64"):
            require_prime(p)
