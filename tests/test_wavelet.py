import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicast.wavelet import (
    FilterPair,
    haar_filter,
    modwt_filters,
    modwt_forward,
    modwt_matrix_oracle,
    mra_reconstruct,
)

ROOT_HALF = 1.0 / math.sqrt(2.0)

series_strategy = st.integers(8, 64).flatmap(
    lambda n: st.lists(
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )
)


class TestFilterPair:
    def test_haar_taps(self):
        f = haar_filter()
        assert f.scaling == pytest.approx([ROOT_HALF, ROOT_HALF])
        assert f.wavelet == pytest.approx([ROOT_HALF, -ROOT_HALF])
        assert f.width == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit energy"):
            FilterPair(scaling=np.array([0.5, 0.5]),
                       wavelet=np.array([0.5, -0.5]), name="bad")

    def test_rejects_broken_mirror(self):
        with pytest.raises(ValueError, match="quadrature-mirror"):
            FilterPair(scaling=np.array([ROOT_HALF, ROOT_HALF]),
                       wavelet=np.array([-ROOT_HALF, ROOT_HALF]), name="bad")

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            FilterPair(scaling=np.array([1.0, 0.0, 0.0]),
                       wavelet=np.array([0.0, 0.0, 1.0]), name="bad")

    def test_taps_read_only(self):
        f = haar_filter()
        with pytest.raises(ValueError):
            f.scaling[0] = 0.0


class TestEquivalentFilters:
    @pytest.mark.parametrize("level", range(1, 11))
    def test_width_and_energy(self, level):
        f = modwt_filters(haar_filter(), level)
        expect_width = (2**level - 1) * 1 + 1
        assert f.width == expect_width
        assert f.scaling.size == expect_width
        # Level-j equivalent MODWT filters carry energy 2^-j.
        assert np.dot(f.wavelet, f.wavelet) == pytest.approx(2.0**-level, rel=1e-12)
        assert np.dot(f.scaling, f.scaling) == pytest.approx(2.0**-level, rel=1e-12)

    def test_level3_width_eight(self):
        f = modwt_filters(haar_filter(), 3)
        assert f.width == 8
        assert np.dot(f.wavelet, f.wavelet) == pytest.approx(0.125)

    def test_level1_matches_rescaled_base(self):
        base = haar_filter()
        f = modwt_filters(base, 1)
        np.testing.assert_allclose(f.wavelet, base.wavelet / math.sqrt(2.0))
        np.testing.assert_allclose(f.scaling, base.scaling / math.sqrt(2.0))

    def test_level2_haar_taps(self):
        # Cascade of Haar: h_2 = (g upsampled-convolved with h) / 2, taps
        # (1,1,-1,-1)/4 after the 2^(-j/2) normalization.
        f = modwt_filters(haar_filter(), 2)
        np.testing.assert_allclose(f.wavelet, [0.25, 0.25, -0.25, -0.25])
        np.testing.assert_allclose(f.scaling, [0.25, 0.25, 0.25, 0.25])


class TestForwardTransform:
    def test_hand_computed_level1_coeffs(self):
        # W_{1,t} = (y_t - y_{t-1 mod 4}) / 2 for the Haar filter.
        decomp = modwt_forward([1.0, 2.0, 3.0, 4.0], levels=1)
        np.testing.assert_allclose(decomp.wavelet_coeffs[0], [-1.5, 0.5, 0.5, 0.5])

    def test_hand_computed_level1_smooth_coeffs(self):
        decomp = modwt_forward([1.0, 2.0, 3.0, 4.0], levels=1)
        np.testing.assert_allclose(decomp.scaling_coeffs, [2.5, 1.5, 2.5, 3.5])

    def test_component_count(self):
        decomp = modwt_forward(np.arange(32.0), levels=3)
        assert decomp.levels == 3
        assert len(decomp.details) == 3
        assert len(decomp.components()) == 4
        assert all(c.size == 32 for c in decomp.components())

    def test_constant_series_has_zero_details(self):
        decomp = modwt_forward(np.full(16, 7.0), levels=2)
        for d in decomp.details:
            np.testing.assert_allclose(d, 0.0, atol=1e-12)
        np.testing.assert_allclose(decomp.smooth, 7.0)

    def test_excess_level_warns(self):
        with pytest.warns(UserWarning, match="exceeds"):
            modwt_forward(np.arange(8.0), levels=4)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            modwt_forward(np.arange(8.0), levels=-1)

    def test_zero_levels_is_the_identity(self):
        y = np.random.default_rng(3).normal(size=21)
        decomp = modwt_forward(y, levels=0)
        assert decomp.levels == 0 and decomp.details == ()
        assert len(decomp.components()) == 1
        np.testing.assert_array_equal(decomp.smooth, y)


class TestReconstruction:
    @pytest.mark.parametrize("n,levels", [(16, 2), (33, 3), (128, 5), (200, 4)])
    def test_perfect_reconstruction(self, n, levels):
        rng = np.random.default_rng(42)
        y = rng.normal(size=n)
        decomp = modwt_forward(y, levels)
        np.testing.assert_allclose(mra_reconstruct(decomp), y, atol=1e-10)

    @given(series_strategy, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, values, levels):
        y = np.array(values)
        decomp = modwt_forward(y, min(levels, int(math.log2(y.size))))
        scale = max(1.0, np.max(np.abs(y)))
        np.testing.assert_allclose(mra_reconstruct(decomp), y, atol=1e-9 * scale)


class TestMatrixOracleAgreement:
    @pytest.mark.parametrize("n,levels", [(16, 0), (16, 2), (45, 3), (96, 4), (128, 5)])
    def test_fast_path_matches_oracle(self, n, levels):
        rng = np.random.default_rng(7)
        y = rng.normal(scale=5.0, size=n)
        fast = modwt_forward(y, levels)
        slow = modwt_matrix_oracle(y, levels)
        for a, b in zip(fast.wavelet_coeffs, slow.wavelet_coeffs):
            np.testing.assert_allclose(a, b, atol=1e-10)
        np.testing.assert_allclose(fast.scaling_coeffs, slow.scaling_coeffs, atol=1e-10)
        for a, b in zip(fast.details, slow.details):
            np.testing.assert_allclose(a, b, atol=1e-10)
        np.testing.assert_allclose(fast.smooth, slow.smooth, atol=1e-10)

    def test_oracle_rejects_large_input(self):
        with pytest.raises(ValueError):
            modwt_matrix_oracle(np.zeros(513), 1)


class TestTransformAlgebra:
    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=48)
        b = rng.normal(size=48)
        da = modwt_forward(a, 3)
        db = modwt_forward(b, 3)
        dsum = modwt_forward(2.0 * a - 3.0 * b, 3)
        for ca, cb, cs in zip(da.components(), db.components(), dsum.components()):
            np.testing.assert_allclose(2.0 * ca - 3.0 * cb, cs, atol=1e-10)

    def test_circular_shift_covariance(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=40)
        shift = 7
        base = modwt_forward(y, 3)
        shifted = modwt_forward(np.roll(y, shift), 3)
        for c0, c1 in zip(base.components(), shifted.components()):
            np.testing.assert_allclose(np.roll(c0, shift), c1, atol=1e-10)

    def test_energy_preserved_in_coefficients(self):
        # Circulant rows are orthonormal in aggregate: sum of coefficient
        # energies over W_1..W_J and V_J equals the series energy.
        rng = np.random.default_rng(23)
        y = rng.normal(size=64)
        decomp = modwt_forward(y, 4)
        energy = sum(float(np.dot(w, w)) for w in decomp.wavelet_coeffs)
        energy += float(np.dot(decomp.scaling_coeffs, decomp.scaling_coeffs))
        assert energy == pytest.approx(float(np.dot(y, y)), rel=1e-10)
