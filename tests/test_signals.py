"""Analytic signal family and its closed-form Gabor transforms.

The closed forms are checked against adaptive quadrature of the defining
integral Gf(x, y) = int f(t) e^{-pi(t-x)^2} e^{-2 pi i t y} dt, which is the
independent reference for everything downstream.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from gaborstab.grids import box_geometry
from gaborstab.signals import (
    AnalyticSignalSpec,
    analytic_gabor_transform,
    gaussian_spec,
    hermite_gaussian,
    make_analytic,
    shifted_gaussian_spec,
    two_bump_spec,
)


def gabor_numeric_1d(f, x, y):
    """Adaptive quadrature of the defining Gabor integral for a 1d signal."""

    def integrand_re(t):
        return (f(t) * np.exp(-np.pi * (t - x) ** 2) * np.exp(-2j * np.pi * t * y)).real

    def integrand_im(t):
        return (f(t) * np.exp(-np.pi * (t - x) ** 2) * np.exp(-2j * np.pi * t * y)).imag

    re, _ = quad(integrand_re, -12.0, 12.0, limit=200)
    im, _ = quad(integrand_im, -12.0, 12.0, limit=200)
    return re + 1j * im


def closed_form_at(spec, x, y):
    """Evaluate the package closed form at a single phase-space point."""
    geom = box_geometry((2, 2), (x, y), (x + 1.0, y + 1.0))
    return analytic_gabor_transform(spec, geom).values[0, 0]


POINTS = [(0.0, 0.0), (0.5, -0.25), (-1.0, 0.75), (1.25, 1.0)]


class TestClosedFormAgainstQuadrature:
    def test_gaussian_at_origin(self):
        spec = gaussian_spec(1)
        val = closed_form_at(spec, 0.0, 0.0)
        assert val == pytest.approx(2.0 ** -0.5, rel=1e-12)

    @pytest.mark.parametrize("x,y", POINTS)
    def test_gaussian(self, x, y):
        spec = gaussian_spec(1)
        f = lambda t: np.exp(-np.pi * t * t) + 0j
        oracle = gabor_numeric_1d(f, x, y)
        assert abs(closed_form_at(spec, x, y) - oracle) < 1e-12

    @pytest.mark.parametrize("x,y", POINTS)
    def test_shifted_gaussian(self, x, y):
        a, b = 0.7, -0.3
        spec = shifted_gaussian_spec((a,), (b,))
        f = lambda t: np.exp(2j * np.pi * b * t) * np.exp(-np.pi * (t - a) ** 2)
        oracle = gabor_numeric_1d(f, x, y)
        assert abs(closed_form_at(spec, x, y) - oracle) < 1e-12

    @pytest.mark.parametrize("x,y", [(0.0, 0.0), (1.0, -0.5)])
    def test_two_bump(self, x, y):
        spec = two_bump_spec((-1.0,), (0.5,), (1.5,), (0.0,), sign=-1)
        f = lambda t: (np.exp(2j * np.pi * 0.5 * t) * np.exp(-np.pi * (t + 1.0) ** 2)
                       - np.exp(-np.pi * (t - 1.5) ** 2))
        oracle = gabor_numeric_1d(f, x, y)
        assert abs(closed_form_at(spec, x, y) - oracle) < 1e-12

    def test_product_structure_d2(self):
        # the 2d transform of a product signal is the product of axis transforms
        spec = shifted_gaussian_spec((0.5, -0.25), (0.0, 1.0))
        geom = box_geometry((3, 3, 3, 3), -1.0, 1.0)
        full = analytic_gabor_transform(spec, geom).values
        ax0 = analytic_gabor_transform(shifted_gaussian_spec((0.5,), (0.0,)),
                                       box_geometry((3, 3), -1.0, 1.0)).values
        ax1 = analytic_gabor_transform(shifted_gaussian_spec((-0.25,), (1.0,)),
                                       box_geometry((3, 3), -1.0, 1.0)).values
        assert np.allclose(full, ax0[:, :, None, None] * ax1[None, None, :, :], rtol=1e-13)

    def test_modulus_is_translated_gaussian(self):
        # |Gf| for a shifted bump is the centered profile translated by (a, b)
        a, b = 0.5, -0.5
        geom = box_geometry((33, 33), -2.0, 2.0)
        shifted = analytic_gabor_transform(shifted_gaussian_spec((a,), (b,)), geom)
        x = geom.coordinate_arrays()[0]
        y = geom.coordinate_arrays()[1]
        expected = (2.0 ** -0.5) * np.exp(-np.pi * ((x - a) ** 2 + (y - b) ** 2) / 2.0)
        assert np.allclose(np.abs(shifted.values), expected, atol=1e-14)


class TestSignalSampling:
    def test_unit_gaussian_peak(self):
        geom = box_geometry((129,), -4.0, 4.0)
        f = make_analytic(gaussian_spec(1), geom)
        assert f.values[64] == pytest.approx(1.0)
        assert abs(f.values[0]) < 1e-21

    def test_two_bump_identical_plus_doubles(self):
        geom = box_geometry((65,), -4.0, 4.0)
        single = make_analytic(shifted_gaussian_spec((0.5,), (0.0,)), geom)
        double = make_analytic(two_bump_spec((0.5,), (0.0,), (0.5,), (0.0,), sign=1), geom)
        assert np.allclose(double.values, 2.0 * single.values, rtol=1e-15)

    def test_make_analytic_rank_mismatch(self):
        with pytest.raises(ValueError):
            make_analytic(gaussian_spec(2), box_geometry((9,), -1.0, 1.0))

    def test_transform_rank_mismatch(self):
        with pytest.raises(ValueError):
            analytic_gabor_transform(gaussian_spec(1), box_geometry((3, 3, 3, 3), -1.0, 1.0))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AnalyticSignalSpec(kind="chirp", dimension=1)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            AnalyticSignalSpec(kind="gaussian", dimension=0)

    def test_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            AnalyticSignalSpec(kind="shifted-gaussian", dimension=2, center=(1.0,))

    def test_nonfinite_center(self):
        with pytest.raises(ValueError):
            AnalyticSignalSpec(kind="shifted-gaussian", dimension=1, center=(np.nan,))

    def test_two_bump_cancelling_rejected(self):
        with pytest.raises(ValueError):
            two_bump_spec((0.5,), (0.0,), (0.5,), (0.0,), sign=-1)

    def test_two_bump_bad_sign(self):
        with pytest.raises(ValueError):
            two_bump_spec((0.0,), (0.0,), (1.0,), (0.0,), sign=2)

    def test_defaults_are_zero_vectors(self):
        spec = AnalyticSignalSpec(kind="gaussian", dimension=3)
        assert spec.center == (0.0, 0.0, 0.0)
        assert spec.frequency == (0.0, 0.0, 0.0)


class TestHermite:
    @pytest.mark.parametrize("k", range(6))
    def test_unit_norm(self, k):
        geom = box_geometry((513,), -8.0, 8.0)
        h = hermite_gaussian(k, geom)
        norm = np.sqrt(np.sum(np.abs(h.values) ** 2) * geom.cell_volume)
        assert norm == pytest.approx(1.0, rel=1e-14)

    def test_pairwise_orthogonality(self):
        geom = box_geometry((513,), -8.0, 8.0)
        fams = [hermite_gaussian(k, geom).values for k in range(6)]
        for j in range(6):
            for k in range(j + 1, 6):
                ip = np.sum(np.conj(fams[j]) * fams[k]) * geom.cell_volume
                assert abs(ip) < 1e-12

    def test_order_zero_is_normalized_gaussian(self):
        geom = box_geometry((257,), -6.0, 6.0)
        h0 = hermite_gaussian(0, geom)
        g = make_analytic(gaussian_spec(1), geom)
        gnorm = np.sqrt(np.sum(np.abs(g.values) ** 2) * geom.cell_volume)
        assert np.allclose(h0.values, g.values / gnorm, rtol=1e-14)

    def test_rejects_rank_two(self):
        with pytest.raises(ValueError):
            hermite_gaussian(0, box_geometry((9, 9), -1.0, 1.0))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            hermite_gaussian(-1, box_geometry((9,), -1.0, 1.0))
