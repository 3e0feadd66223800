"""Statistics module: frozen values, oracle agreement, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chi2_reference, jsd_reference
from pivotmine.stats import (
    ContingencyTable,
    chi2,
    gaussian_density,
    gaussian_kernel,
    jsd,
)

counts = st.integers(min_value=0, max_value=500)


class TestChi2:
    def test_balanced_diagonal_table(self):
        assert chi2(ContingencyTable(10, 0, 0, 10)) == pytest.approx(20.0, abs=1e-12)

    def test_matches_reference_on_hand_tables(self):
        for tab in [(12, 5, 3, 40), (1, 1, 1, 1), (7, 0, 2, 9), (100, 3, 8, 250)]:
            got = chi2(ContingencyTable(*tab), positive_only=False)
            assert got == pytest.approx(chi2_reference(*tab), rel=1e-12)

    def test_negative_association_gated_to_zero(self):
        table = ContingencyTable(1, 10, 10, 1)
        assert chi2(table) == 0.0
        assert chi2(table, positive_only=False) > 0.0

    def test_zero_margin_scores_zero(self):
        assert chi2(ContingencyTable(0, 0, 5, 5)) == 0.0
        assert chi2(ContingencyTable(5, 0, 5, 0)) == 0.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            chi2(ContingencyTable(0, 0, 0, 0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            chi2(ContingencyTable(-1, 2, 3, 4))

    @given(a=counts, b=counts, c=counts, d=counts)
    @settings(max_examples=300, deadline=None)
    def test_oracle_agreement(self, a, b, c, d):
        rows_cols = (a + b, c + d, a + c, b + d)
        if min(rows_cols) == 0:
            if a + b + c + d == 0:
                return
            assert chi2(ContingencyTable(a, b, c, d), positive_only=False) == 0.0
            return
        got = chi2(ContingencyTable(a, b, c, d), positive_only=False)
        want = chi2_reference(a, b, c, d)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @given(a=counts, b=counts, c=counts, d=counts)
    @settings(max_examples=200, deadline=None)
    def test_gating_never_exceeds_ungated(self, a, b, c, d):
        if a + b + c + d == 0:
            return
        gated = chi2(ContingencyTable(a, b, c, d))
        free = chi2(ContingencyTable(a, b, c, d), positive_only=False)
        assert 0.0 <= gated <= free + 1e-12


class TestGaussian:
    def test_peak_value_sigma_six(self):
        want = 1.0 / (6.0 * math.sqrt(2.0 * math.pi))
        assert gaussian_density(0, 6.0) == pytest.approx(want, rel=1e-12)
        assert gaussian_density(0, 6.0) == pytest.approx(0.06649, abs=1e-4)

    def test_one_sigma_out(self):
        want = math.exp(-0.5) / (6.0 * math.sqrt(2.0 * math.pi))
        assert gaussian_density(6, 6.0) == pytest.approx(want, rel=1e-12)

    def test_truncation(self):
        assert gaussian_density(24.0, 6.0) > 0.0
        assert gaussian_density(24.1, 6.0) == 0.0
        assert gaussian_density(-25.0, 6.0) == 0.0

    def test_symmetry(self):
        for x in (0.5, 3, 11.25):
            assert gaussian_density(x, 6.0) == gaussian_density(-x, 6.0)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_density(0, 0)
        with pytest.raises(ValueError):
            gaussian_kernel(-1)

    def test_kernel_matches_pointwise_density(self):
        radius, values = gaussian_kernel(6.0)
        assert radius == 24
        assert len(values) == 2 * radius + 1
        for x in range(-radius, radius + 1):
            assert values[radius + x] == pytest.approx(
                gaussian_density(x, 6.0), rel=1e-12
            )
        assert np.argmax(values) == radius

    def test_kernel_mass_near_unity(self):
        # the 4-sigma cut discards well under 0.01% of the mass
        _, values = gaussian_kernel(6.0)
        assert values.sum() == pytest.approx(1.0, abs=1e-3)


def unit_vector(n):
    return st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=n,
        max_size=n,
    ).filter(lambda v: sum(v) > 1e-9).map(lambda v: [x / sum(v) for x in v])


class TestJsd:
    def test_hand_value(self):
        assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.311278, abs=1e-4)
        assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            jsd_reference([1.0, 0.0], [0.5, 0.5]), rel=1e-12
        )

    def test_self_distance_zero(self):
        p = [0.2, 0.3, 0.5]
        assert jsd(p, p) == 0.0

    def test_disjoint_supports_maximal(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
        assert jsd([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.25, 0.75]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            jsd([1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            jsd(np.ones((2, 2)) / 4, np.ones((2, 2)) / 4)

    @given(p=unit_vector(4), q=unit_vector(4))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_bounded_and_matches_reference(self, p, q):
        d = jsd(p, q)
        assert d == jsd(q, p)
        assert -1e-12 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(jsd_reference(p, q), rel=1e-9, abs=1e-12)

    @given(p=unit_vector(3), q=unit_vector(3), r=unit_vector(3))
    @settings(max_examples=200, deadline=None)
    def test_sqrt_triangle_inequality(self, p, q, r):
        ab = math.sqrt(max(jsd(p, q), 0.0))
        bc = math.sqrt(max(jsd(q, r), 0.0))
        ac = math.sqrt(max(jsd(p, r), 0.0))
        assert ac <= ab + bc + 1e-9
