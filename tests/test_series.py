"""Tests for windowed series arithmetic and the reference generating series."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superbraid.homology_engine import HomologyTable, compute_table
from superbraid.exact_linalg import AbelianGroup
from superbraid.series import (
    BivariateSeries,
    compare_local,
    local_series,
    local_series_collapsed,
    stable_series,
)


def mono(max_q, max_t, i, n, c=1):
    return BivariateSeries.monomial(max_q, max_t, i, n, c)


small_series = st.builds(
    lambda coeffs: BivariateSeries(5, 5, coeffs),
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.integers(-3, 3), max_size=8),
)


class TestBivariateSeries:
    def test_constructor_drops_outside_window(self):
        s = BivariateSeries(2, 2, {(1, 1): 3, (3, 0): 9, (0, 5): 9,
                                   (2, 2): 0})
        assert s.coeffs == {(1, 1): 3}

    def test_window_validation(self):
        with pytest.raises(ValueError):
            BivariateSeries(-1, 0)
        with pytest.raises(KeyError):
            BivariateSeries(2, 2).coefficient(3, 0)
        with pytest.raises(ValueError):
            BivariateSeries.one(2, 2) + BivariateSeries.one(2, 3)

    def test_ring_operations(self):
        one = BivariateSeries.one(4, 4)
        q = mono(4, 4, 1, 0)
        t = mono(4, 4, 0, 1)
        s = (one + q) * (one - t)
        assert s.coefficient(1, 1) == -1
        assert s.coefficient(0, 0) == 1
        assert (s - s).is_zero()

    def test_multiplication_truncates(self):
        q2 = mono(3, 0, 2, 0)
        assert (q2 * q2).is_zero()

    def test_geometric_inverse_is_exact(self):
        one = BivariateSeries.one(6, 6)
        u = mono(6, 6, 1, 1) + mono(6, 6, 0, 2, -2)
        inv = (one - u).geometric_inverse()
        assert (one - u) * inv == one

    def test_geometric_inverse_of_one(self):
        one = BivariateSeries.one(3, 3)
        assert one.geometric_inverse() == one

    def test_geometric_inverse_needs_constant_one(self):
        with pytest.raises(ValueError):
            mono(3, 3, 1, 0).geometric_inverse()
        with pytest.raises(ValueError):
            BivariateSeries(3, 3, {(0, 0): 2}).geometric_inverse()

    @settings(max_examples=60, deadline=None)
    @given(small_series)
    def test_geometric_inverse_property(self, u):
        one = BivariateSeries.one(5, 5)
        zeroed = BivariateSeries(5, 5, {k: c for k, c in u.coeffs.items()
                                        if k != (0, 0)})
        assert (one - zeroed) * (one - zeroed).geometric_inverse() == one

    def test_q_coefficients_and_json(self):
        s = mono(3, 2, 1, 0) + mono(3, 2, 3, 2, -4)
        assert s.q_coefficients() == [0, 1, 0, 0]
        assert s.q_coefficients(2) == [0, 0, 0, -4]
        assert s.to_json() == {
            "max_q": 3, "max_t": 2, "coeffs": [[1, 0, 1], [3, 2, -4]]}


class TestLocalSeries:
    def test_hand_expanded_window(self):
        s = local_series(2, 3, 5)
        assert sorted(s.coeffs.items()) == [
            ((1, 3), 1), ((1, 5), 1), ((2, 5), 1), ((3, 5), 1)]

    def test_leading_term_is_prime_independent(self):
        for p in (2, 3, 5):
            assert local_series(p, 2, 3).coefficient(1, 3) == 1

    def test_even_rows_and_high_degrees_vanish(self):
        s = local_series(3, 10, 11)
        assert all(n % 2 == 1 for (_, n) in s.coeffs)
        assert all(i < n for (i, n) in s.coeffs)
        assert all(c > 0 for c in s.coeffs.values())

    def test_collapsed_form_identity(self):
        assert local_series(2, 8, 9) == local_series_collapsed(8, 9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            local_series(4, 3, 3)
        with pytest.raises(ValueError):
            local_series(2, 0, 3)
        with pytest.raises(ValueError):
            local_series_collapsed(3, 0)


class TestStableSeries:
    def test_two_local_expansion(self):
        assert stable_series(2, 11).q_coefficients() == [
            0, 1, 1, 2, 3, 4, 5, 7, 9, 11, 14, 17]

    def test_three_local_expansion(self):
        # within this window the series is q(1+q^5)/((1-q)(1-q^4)), whose
        # q^12 coefficient counts a + 4b = 11 (three ways) plus
        # a + 4b = 6 (two ways)
        assert stable_series(3, 12).q_coefficients() == [
            0, 1, 1, 1, 1, 2, 3, 3, 3, 4, 5, 5, 5]

    def test_constant_term_vanishes(self):
        for p in (2, 3, 5):
            assert stable_series(p, 9).coefficient(0) == 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_local_columns_in_stable_range(self, p):
        stable = stable_series(p, 5)
        local = local_series(p, 5, 13)
        for i in range(1, 6):
            for n in range(2 * i + 3, 14, 2):
                assert stable.coefficient(i) == local.coefficient(i, n)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stable_series(6, 5)
        with pytest.raises(ValueError):
            stable_series(2, 0)


class TestCompareLocal:
    def test_agrees_with_computed_tables(self):
        assert compare_local(2, 2, compute_table(2, 7)).ok
        assert compare_local(3, 3, compute_table(3, 7)).ok

    def test_counts_all_p_primary_factors_alike(self):
        # the d=4 row n=9 mixes Z_2 and Z_4 factors; each contributes one
        # mod-2 dimension
        report = compare_local(2, 4, compute_table(4, 9))
        assert report.ok and report.checked == 25

    def test_requires_p_dividing_d(self):
        with pytest.raises(ValueError):
            compare_local(3, 4, compute_table(4, 3))

    def test_requires_integer_table(self):
        with pytest.raises(ValueError):
            compare_local(2, 2, compute_table(2, 3, "f:2"))

    def test_empty_window_is_a_note(self):
        table = HomologyTable(2, "z", {}, {})
        report = compare_local(2, 2, table)
        assert report.ok and report.checked == 0
        assert "no odd rows" in report.notes[0]

    def test_disagreement_is_located(self):
        cells = {(3, 0): AbelianGroup.from_divisors(0, ()),
                 (3, 1): AbelianGroup.from_divisors(1, (2,)),
                 (3, 2): AbelianGroup.from_divisors(0, ())}
        report = compare_local(2, 2, HomologyTable(2, "z", {}, cells))
        assert not report.ok
        assert "(n=3, i=1)" in report.violations[0]
        assert "F_2-rank 2" in report.violations[0]
