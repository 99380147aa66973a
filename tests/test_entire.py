"""Growth class membership, log-derivative ball norms, Jensen, zero counts."""

import numpy as np
import pytest

from gaborstab.entire import (
    EntireFunctionSpec,
    GrowthClassSpec,
    argument_principle_count,
    ball_norm_bound_coefficient,
    check_logderiv_exponent,
    gaussian_exponential_spec,
    growth_class_check,
    jensen_check_1d,
    lifted_spec,
    log_derivative_field,
    logderiv_ball_norms,
    max_admissible_p,
    polynomial_spec,
    zero_count_bound_1d,
)
from gaborstab.errors import AdmissibilityError
from gaborstab.gabor import entire_lift
from gaborstab.grids import box_geometry
from gaborstab.signals import analytic_gabor_transform, gaussian_spec, shifted_gaussian_spec


def gauss_exp():
    # e^{pi z^2 / 2}: M(r) = e^{(pi/2) r^2} exactly, so margins vanish at
    # (alpha, beta) = (pi/2, 2)
    return gaussian_exponential_spec(np.pi / 2.0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EntireFunctionSpec(kind="rational")

    def test_polynomial_needs_coefficients(self):
        with pytest.raises(ValueError):
            EntireFunctionSpec(kind="polynomial")

    def test_polynomial_rejects_vanishing_origin(self):
        with pytest.raises(ValueError, match="G\\(0\\)"):
            polynomial_spec((0.0, 1.0))

    def test_gaussian_exponential_needs_coefficient(self):
        with pytest.raises(ValueError):
            EntireFunctionSpec(kind="gaussian-exponential")

    def test_lifted_needs_lift(self):
        with pytest.raises(ValueError):
            EntireFunctionSpec(kind="lifted-gabor")

    @pytest.mark.parametrize("alpha,beta", [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.0), (np.nan, 2.0)])
    def test_growth_spec_validation(self, alpha, beta):
        with pytest.raises(ValueError):
            GrowthClassSpec(alpha=alpha, beta=beta)

    def test_polynomial_zeros_and_derivative(self):
        G = polynomial_spec((1.0, 0.0, -1.0))  # 1 - z^2
        zs = np.sort_complex(G.zeros())
        assert np.allclose(zs, [-1.0, 1.0], atol=1e-12)
        assert G.derivative(0.5) == pytest.approx(-1.0)
        assert G.log_derivative(0.5) == pytest.approx(-1.0 / 0.75)
        assert polynomial_spec((-0.5, 1.0)).zeros().tolist() == [0.5]
        assert polynomial_spec((3.0,)).zeros().size == 0


class TestGrowthClass:
    def test_exact_growth_has_zero_margins(self):
        res = growth_class_check(gauss_exp(), GrowthClassSpec(np.pi / 2.0, 2.0),
                                 radii=[1.0, 2.0, 4.0, 8.0])
        assert res.member
        assert abs(res.worst_margin) < 1e-9

    def test_undersized_alpha_fails(self):
        res = growth_class_check(gauss_exp(), GrowthClassSpec(0.1, 2.0), radii=[1.0, 2.0])
        assert not res.member
        assert res.worst_margin < -1.0

    def test_polynomial_member(self):
        G = polynomial_spec((1.0, 0.0, -1.0))
        res = growth_class_check(G, GrowthClassSpec(1.0, 2.0), radii=[0.5, 1.5, 3.0])
        assert res.member

    def test_lifted_constant_modulus_member(self):
        phase = box_geometry((97, 97), -3.0, 3.0)
        lift = entire_lift(analytic_gabor_transform(gaussian_spec(1), phase))
        res = growth_class_check(lifted_spec(lift), GrowthClassSpec(1.0, 2.0),
                                 radii=[0.5, 1.0, 2.0])
        assert res.member
        assert res.worst_margin > 0.0

    def test_lifted_ball_coverage_error(self):
        phase = box_geometry((33, 33), -1.0, 1.0)
        lift = entire_lift(analytic_gabor_transform(gaussian_spec(1), phase))
        with pytest.raises(ValueError, match="cover"):
            growth_class_check(lifted_spec(lift), GrowthClassSpec(1.0, 2.0), radii=[2.0])

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            growth_class_check(gauss_exp(), GrowthClassSpec(1.0, 2.0), radii=[-1.0])


class TestLogDerivativeField:
    def test_gaussian_exponential_is_linear_field(self):
        geom = box_geometry((65, 65), -2.0, 2.0)
        field = log_derivative_field(gauss_exp(), geom)
        x = geom.coordinate_arrays()[0]
        y = geom.coordinate_arrays()[1]
        z = np.broadcast_to(x + 1j * y, geom.extents)
        assert np.allclose(field.components[0], np.pi * z, rtol=1e-13)
        assert field.included.all()

    def test_vanishing_kind_excludes_near_zeros(self):
        # 1 - z^2 vanishes exactly at the on-grid points (+-1, 0)
        geom = box_geometry((129, 129), -2.0, 2.0)
        field = log_derivative_field(polynomial_spec((1.0, 0.0, -1.0)), geom)
        assert not field.included[32, 64]
        assert not field.included[96, 64]
        assert np.isfinite(field.magnitude).all()

    def test_zero_free_kind_never_excludes(self):
        # e^{-2 pi z^2} dips far below 1e-12 of its max on the real axis, but
        # smallness from dynamic range is not a zero and must stay included
        geom = box_geometry((129, 129), -4.0, 4.0)
        field = log_derivative_field(gaussian_exponential_spec(-2.0 * np.pi), geom)
        assert field.included.all()

    def test_analytic_kind_requires_geometry(self):
        with pytest.raises(ValueError, match="geometry"):
            log_derivative_field(gauss_exp())

    def test_analytic_kind_requires_rank_two(self):
        with pytest.raises(ValueError, match="rank-2"):
            log_derivative_field(gauss_exp(), box_geometry((9, 9, 9, 9), -1.0, 1.0))

    def test_lifted_field_recovers_exponential_rate(self):
        # the lift of a shifted bump is C e^{pi w z}; finite differences
        # should recover the constant log-derivative pi |w|
        a, b = 0.3, 0.2
        phase = box_geometry((129, 129), -2.0, 2.0)
        lift = entire_lift(analytic_gabor_transform(shifted_gaussian_spec((a,), (b,)), phase))
        field = log_derivative_field(lifted_spec(lift))
        expected = np.pi * np.hypot(a, b)
        interior = field.magnitude[2:-2, 2:-2]
        assert np.max(np.abs(interior - expected)) < 1e-5

    def test_lifted_field_rejects_foreign_geometry(self):
        phase = box_geometry((33, 33), -1.0, 1.0)
        lift = entire_lift(analytic_gabor_transform(gaussian_spec(1), phase))
        with pytest.raises(ValueError):
            log_derivative_field(lifted_spec(lift), box_geometry((17, 17), -1.0, 1.0))


class TestBallNorms:
    def test_exponent_gate(self):
        assert max_admissible_p(1) == pytest.approx(2.0)
        assert max_admissible_p(2) == pytest.approx(4.0 / 3.0)
        check_logderiv_exponent(1.0, 1)
        check_logderiv_exponent(1.9, 1)
        for p in (0.5, 2.0, 2.5, np.inf):
            with pytest.raises(AdmissibilityError):
                check_logderiv_exponent(p, 1)
        with pytest.raises(AdmissibilityError):
            check_logderiv_exponent(1.5, 2)

    def test_unit_ball_anchor(self):
        # |(log G)'| = pi |z| integrates to 2 pi^2 / 3 over the unit ball
        geom = box_geometry((257, 257), -2.0, 2.0)
        table = logderiv_ball_norms(gauss_exp(), 1.0, [1.0], geometry=geom)
        exact = 2.0 * np.pi ** 2 / 3.0
        assert table.norms[0] == pytest.approx(exact, rel=1e-2)

    def test_cubic_slope(self):
        geom = box_geometry((257, 257), -2.0, 2.0)
        table = logderiv_ball_norms(gauss_exp(), 1.0, [0.5, 1.0, 1.5, 2.0], geometry=geom)
        assert table.fitted_slope == pytest.approx(3.0, abs=0.05)

    def test_norms_increase_with_radius(self):
        geom = box_geometry((129, 129), -2.0, 2.0)
        table = logderiv_ball_norms(gauss_exp(), 1.5, [0.5, 1.0, 2.0], geometry=geom)
        assert table.norms[0] < table.norms[1] < table.norms[2]

    def test_inadmissible_p_rejected(self):
        geom = box_geometry((65, 65), -2.0, 2.0)
        with pytest.raises(AdmissibilityError):
            logderiv_ball_norms(gauss_exp(), 2.0, [1.0], geometry=geom)

    def test_bound_coefficient_shape(self):
        coeff, exponent = ball_norm_bound_coefficient(GrowthClassSpec(np.pi / 2.0, 2.0), 1)
        assert coeff == pytest.approx((np.pi / 2.0) * 2.0 ** 6)
        assert exponent == pytest.approx(3.0)
        coeff2, exponent2 = ball_norm_bound_coefficient(GrowthClassSpec(1.0, 1.0), 2)
        assert coeff2 == pytest.approx(2.0 ** 6)
        assert exponent2 == pytest.approx(4.0)

    def test_rows_layout(self):
        geom = box_geometry((129, 129), -2.0, 2.0)
        table = logderiv_ball_norms(gauss_exp(), 1.0, [0.5, 1.0], geometry=geom)
        rows = table.rows()
        assert len(rows) == 2
        assert np.isnan(rows[0][2])  # no bound supplied
        assert np.isnan(rows[0][3])  # slope needs two points
        rows_b = table.rows(bound_coefficient=2.0, bound_exponent=3.0)
        assert rows_b[1][2] == pytest.approx(2.0)
        assert rows_b[1][3] == pytest.approx(table.fitted_slope)


class TestJensen:
    def test_zero_free_identity(self):
        res = jensen_check_1d(gauss_exp(), 0.3 + 0.2j, 2.0)
        assert res < 1e-8

    def test_polynomial_without_inner_zeros(self):
        # mean of log|w - 2| over |w| = 1 equals log 2 at the center
        res = jensen_check_1d(polynomial_spec((-2.0, 1.0)), 0.0, 1.0)
        assert res < 1e-8

    def test_polynomial_with_inner_zeros(self):
        res = jensen_check_1d(polynomial_spec((1.0, 0.0, -1.0)), 0.3, 1.5)
        assert res < 1e-8

    def test_offcenter_evaluation(self):
        res = jensen_check_1d(polynomial_spec((1.0, 0.0, -1.0)), -0.2 + 0.4j, 2.5)
        assert res < 1e-8

    def test_zero_on_contour_rejected(self):
        with pytest.raises(ValueError, match="contour"):
            jensen_check_1d(polynomial_spec((1.0, 0.0, -1.0)), 0.0, 1.0)

    def test_evaluation_at_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            jensen_check_1d(polynomial_spec((1.0, 0.0, -1.0)), 1.0, 1.5)

    def test_point_outside_circle_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            jensen_check_1d(gauss_exp(), 2.0, 1.0)

    def test_lifted_kind_rejected(self):
        phase = box_geometry((33, 33), -1.0, 1.0)
        lift = entire_lift(analytic_gabor_transform(gaussian_spec(1), phase))
        G = lifted_spec(lift)
        with pytest.raises(ValueError):
            jensen_check_1d(G, 0.0, 0.5)
        for call in (lambda: argument_principle_count(G, 0.5), G.zeros,
                     lambda: G.value(0.1), lambda: G.log_abs(0.1),
                     lambda: G.derivative(0.1), lambda: G.log_derivative(0.1)):
            with pytest.raises(ValueError, match="analytic one-variable kind"):
                call()


class TestZeroCounts:
    @pytest.mark.parametrize("r,expected", [(0.5, 0), (1.5, 2), (3.0, 2)])
    def test_enumeration_contour_and_bound_agree(self, r, expected):
        G = polynomial_spec((1.0, 0.0, -1.0))
        spec = GrowthClassSpec(1.0, 2.0)
        res = zero_count_bound_1d(G, spec, r)
        assert res.count == expected
        assert res.holds
        assert argument_principle_count(G, r) == expected

    def test_zero_free_function_counts_zero(self):
        assert argument_principle_count(gauss_exp(), 2.0) == 0
        res = zero_count_bound_1d(gauss_exp(), GrowthClassSpec(np.pi / 2.0, 2.0), 2.0)
        assert res.count == 0
        assert res.holds

    def test_three_roots(self):
        coeffs = np.polynomial.polynomial.polyfromroots([1.0, 2.0, -0.5])
        G = polynomial_spec(tuple(coeffs))
        assert argument_principle_count(G, 1.5) == 2
        assert argument_principle_count(G, 2.5) == 3

    def test_failed_growth_hypothesis_rejected(self):
        with pytest.raises(ValueError, match="growth"):
            zero_count_bound_1d(gauss_exp(), GrowthClassSpec(0.01, 2.0), 2.0)

    def test_contour_through_zero_rejected(self):
        with pytest.raises(ValueError, match="contour"):
            argument_principle_count(polynomial_spec((1.0, 0.0, -1.0)), 1.0)


class TestPinnedValues:
    """Exact float64 values of the functions that share the circle nodes,
    the contour check and the lift's Wirtinger gradient.  No benchmark
    fingerprint reaches them: the lift in the benchmark's CLI chain has no
    included cell within its radii."""

    def test_lifted_log_derivative_field(self):
        phase = box_geometry((65, 65), -2.0, 2.0)
        G = lifted_spec(entire_lift(
            analytic_gabor_transform(shifted_gaussian_spec((0.3,), (0.2,)), phase)))
        field = log_derivative_field(G)
        assert int(field.included.sum()) == 4225
        assert field.components[0][10, 20] == 0.9424775637698205 + 0.6283185781911075j
        assert field.components[0][40, 33] == 0.9424775637698195 + 0.6283185781911035j
        norms = logderiv_ball_norms(G, 1.5, [0.5, 1.0, 1.5]).norms
        assert norms == (0.9512010596070615, 2.4150922385636253, 4.14650029867873)

    def test_growth_margins(self):
        poly = polynomial_spec((1.0, 0.0, -1.0))
        margins = growth_class_check(poly, GrowthClassSpec(1.0, 2.0), [0.5, 1.5, 3.0]).margins
        assert margins == (0.026856448685790235, 1.0713450036583538, 6.697414907005954)
        margins = growth_class_check(gauss_exp(), GrowthClassSpec(np.pi / 2.0, 2.0),
                                     [1.0, 2.0]).margins
        assert margins == (0.0, 0.0)

    def test_jensen_residuals(self):
        poly = polynomial_spec((1.0, 0.0, -1.0))
        assert jensen_check_1d(poly, -0.2 + 0.4j, 2.5) == 9.853229343548264e-16
        assert jensen_check_1d(gauss_exp(), 0.3 + 0.2j, 2.0) == 2.636779683484747e-16

    def test_zero_counts(self):
        poly = polynomial_spec((1.0, 0.0, -1.0))
        assert argument_principle_count(poly, 1.5) == 2
        assert argument_principle_count(gauss_exp(), 2.0) == 0
        res = zero_count_bound_1d(poly, GrowthClassSpec(1.0, 2.0), 1.5)
        assert (res.count, res.bound, res.holds) == (2, 12.984255368000671, True)
