import pytest
from hypothesis import given, settings, strategies as st

from superbraid.exact_linalg import (
    AbelianGroup,
    CompositionError,
    IntMatrix,
    homology_pair,
    plocal_valuations,
    product_is_zero,
    rank_mod_p,
    rank_rational,
    snf,
    snf_with_prime_hints,
)

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


def test_snf_diag_2_3_gives_1_6():
    s = snf(IntMatrix.from_dense([[2, 0], [0, 3]]))
    assert s.divisors == (1, 6)


def test_snf_zero_and_identity():
    assert snf(IntMatrix.zero(3, 4)).divisors == ()
    assert snf(IntMatrix.identity(5)).divisors == (1,) * 5


def test_rank_mod_p_diag():
    m = IntMatrix.from_dense([[2, 0], [0, 3]])
    assert rank_mod_p(m, 2) == 1
    assert rank_mod_p(m, 5) == 2
    assert rank_mod_p(m, 3) == 1


def test_homology_pair_z6():
    # C_2 = Z^2 --diag(2,3)--> C_1 = Z^2 --0--> C_0 = Z
    d1 = IntMatrix.zero(1, 2)
    d2 = IntMatrix.from_dense([[2, 0], [0, 3]])
    h = homology_pair(d1, d2)
    assert h == AbelianGroup(0, (6,))
    assert h == AbelianGroup(0, (2, 3))  # primary-insensitive equality


def test_homology_pair_rejects_nonzero_composition():
    d1 = IntMatrix.from_dense([[1, 0]])
    d2 = IntMatrix.from_dense([[1], [0]])
    with pytest.raises(CompositionError):
        homology_pair(d1, d2)


def test_abelian_group_describe():
    assert AbelianGroup(0).describe() == "0"
    assert AbelianGroup(2, (2, 6)).describe() == "Z^2 + Z_2 + Z_6"
    assert AbelianGroup(1).describe() == "Z"


def test_equal_groups_describe_alike():
    assert AbelianGroup.from_divisors(0, (12,)).describe() == "Z_12"
    assert AbelianGroup.from_divisors(0, (3, 4)).describe() == "Z_12"
    assert AbelianGroup(0, (2, 2, 3, 4)).describe() == "Z_2 + Z_2 + Z_12"
    assert AbelianGroup(1, (2, 3, 4, 5, 8, 9)).describe() == (
        "Z + Z_2 + Z_12 + Z_360")
    assert AbelianGroup(0, (2, 3)).describe() == AbelianGroup(0, (6,)).describe()


def test_abelian_group_sum():
    a = AbelianGroup(1, (2,))
    b = AbelianGroup(0, (6,))
    assert a + b == AbelianGroup(1, (2, 2, 3))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_matches_sympy(rows):
    m = IntMatrix.from_dense(rows)
    mine = list(snf(m).divisors)
    assert mine == sympy_divisors(rows)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_snf_divisor_chain(rows):
    s = snf(IntMatrix.from_dense(rows))
    assert all(d >= 1 for d in s.divisors)
    for a, b in zip(s.divisors, s.divisors[1:]):
        assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_snf_transforms_unimodular(rows):
    import sympy

    m = IntMatrix.from_dense(rows)
    s = snf(m, want_transforms=True)
    assert abs(sympy.Matrix(s.U.to_dense()).det()) == 1
    assert abs(sympy.Matrix(s.V.to_dense()).det()) == 1
    d = s.U * m * s.V
    expect = {(i, i): v for i, v in enumerate(s.divisors)}
    assert d == IntMatrix(m.nrows, m.ncols, expect)
    assert list(s.divisors) == sympy_divisors(rows)


@settings(max_examples=100, deadline=None)
@given(matrices, st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_p_counts_nondivisible_invariants(rows, p):
    m = IntMatrix.from_dense(rows)
    s = snf(m)
    assert rank_mod_p(m, p) == sum(1 for d in s.divisors if d % p)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_rational_equals_snf_rank(rows):
    m = IntMatrix.from_dense(rows)
    assert rank_rational(m) == snf(m).rank


@settings(max_examples=60, deadline=None)
@given(matrices, st.sampled_from([2, 3, 5]))
def test_plocal_valuations_match_snf(rows, p):
    m = IntMatrix.from_dense(rows)
    s = snf(m)
    vals = plocal_valuations(m, p, s.rank)
    expect = []
    for d in s.divisors:
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        expect.append(v)
    assert vals == sorted(expect)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_snf_with_prime_hints_exact_when_hints_cover(rows):
    m = IntMatrix.from_dense(rows)
    s = snf(m)
    primes = set()
    for d in s.divisors:
        f = 2
        while f * f <= d:
            if d % f == 0:
                primes.add(f)
                while d % f == 0:
                    d //= f
            f += 1
        if d > 1:
            primes.add(d)
    got = snf_with_prime_hints(m, primes | {2})
    assert got.divisors == s.divisors


@settings(max_examples=60, deadline=None)
@given(matrices, matrices)
def test_product_is_zero_agrees_with_exact(a_rows, b_rows):
    a = IntMatrix.from_dense(a_rows)
    b = IntMatrix.from_dense(b_rows)
    if a.ncols != b.nrows:
        b = b.transpose()
        if a.ncols != b.nrows:
            return
    assert product_is_zero(a, b) == (a * b).is_zero()


def test_matrix_roundtrips():
    m = IntMatrix.from_dense([[0, -2], [7, 0], [0, 1]])
    assert IntMatrix.from_triples(3, 2, m.triples()) == m
    assert m.transpose().transpose() == m
    assert (m - m).is_zero()
