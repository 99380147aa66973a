"""Sampled Gabor transform (direct and FFT paths), spectrograms, entire lift."""

import warnings

import numpy as np
import pytest

from gaborstab.errors import AdmissibilityError
from gaborstab.gabor import (
    EntireLift,
    Spectrogram,
    entire_lift,
    gabor_transform,
    gabor_transform_fft,
    gradient_identity_report,
    modulation_norm,
    spectrogram,
    wirtinger_residual,
)
from gaborstab.grids import GridGeometry, PhaseSpaceGrid, SignalGrid, box_geometry
from gaborstab.signals import (
    analytic_gabor_transform,
    gaussian_spec,
    hermite_gaussian,
    make_analytic,
    make_gaussian,
    shifted_gaussian_spec,
    two_bump_spec,
)


def lattice_signal_geometry():
    # 512 samples, dt = 1/32, n*dt = 16: FFT frequency lattice spacing 1/16
    return box_geometry((512,), -8.0, 8.0 - 1.0 / 32.0)


def sup_err(A, B):
    scale = max(float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    return float(np.max(np.abs(A - B))) / scale


class TestDirectPath:
    @pytest.mark.parametrize(
        "spec",
        [
            gaussian_spec(1),
            shifted_gaussian_spec((0.3,), (-0.7,)),
            two_bump_spec((-1.0,), (0.0,), (1.0,), (0.5,), sign=-1),
        ],
    )
    def test_matches_closed_form(self, spec):
        sig_geom = box_geometry((513,), -8.0, 8.0)
        phase = box_geometry((33, 33), -2.0, 2.0)
        numeric = gabor_transform(make_analytic(spec, sig_geom), phase)
        exact = analytic_gabor_transform(spec, phase)
        assert sup_err(numeric.values, exact.values) < 1e-10

    def test_zero_signal_gives_zero_field(self):
        geom = box_geometry((65,), -4.0, 4.0)
        from gaborstab.grids import SignalGrid

        f = SignalGrid(geom, np.zeros(65))
        F = gabor_transform(f, box_geometry((9, 9), -1.0, 1.0))
        assert np.all(F.values == 0.0)

    def test_rank_mismatch(self):
        f = make_gaussian(1, box_geometry((65,), -4.0, 4.0))
        with pytest.raises(ValueError):
            gabor_transform(f, box_geometry((5, 5, 5, 5), -1.0, 1.0))

    def test_warns_on_truncated_signal(self):
        f = make_gaussian(1, box_geometry((17,), -1.0, 1.0))
        with pytest.warns(UserWarning, match="boundary"):
            gabor_transform(f, box_geometry((5, 5), -1.0, 1.0))

    def test_time_shift_covariance(self):
        # |G(T_a f)|(x, y) = |Gf|(x - a, y); a = 0.5 is 8 cells at spacing 1/16
        sig_geom = box_geometry((513,), -8.0, 8.0)
        phase = box_geometry((65, 65), -2.0, 2.0)
        S0 = np.abs(gabor_transform(make_gaussian(1, sig_geom), phase).values)
        fa = make_analytic(shifted_gaussian_spec((0.5,), (0.0,)), sig_geom)
        Sa = np.abs(gabor_transform(fa, phase).values)
        assert np.max(np.abs(Sa[8:, :] - S0[:-8, :])) < 1e-10

    def test_modulation_covariance(self):
        # |G(M_b f)|(x, y) = |Gf|(x, y - b); b = 0.5 is 8 cells at spacing 1/16
        sig_geom = box_geometry((513,), -8.0, 8.0)
        phase = box_geometry((65, 65), -2.0, 2.0)
        S0 = np.abs(gabor_transform(make_gaussian(1, sig_geom), phase).values)
        fb = make_analytic(shifted_gaussian_spec((0.0,), (0.5,)), sig_geom)
        Sb = np.abs(gabor_transform(fb, phase).values)
        assert np.max(np.abs(Sb[:, 8:] - S0[:, :-8])) < 1e-10


class TestFftPath:
    @pytest.mark.parametrize(
        "spec",
        [
            gaussian_spec(1),
            shifted_gaussian_spec((0.5,), (-0.25,)),
            two_bump_spec((-2.0,), (0.0,), (2.0,), (1.0,), sign=-1),
        ],
    )
    def test_agrees_with_direct_path(self, spec):
        sig_geom = lattice_signal_geometry()
        phase = box_geometry((33, 65), (-1.0, -2.0), (1.0, 2.0))  # y spacing 1/16
        f = make_analytic(spec, sig_geom)
        direct = gabor_transform(f, phase)
        fast = gabor_transform_fft(f, phase)
        assert sup_err(fast.values, direct.values) < 1e-12

    def test_agrees_with_closed_form(self):
        sig_geom = lattice_signal_geometry()
        phase = box_geometry((65, 129), (-2.0, -4.0), (2.0, 4.0))
        f = make_gaussian(1, sig_geom)
        fast = gabor_transform_fft(f, phase)
        exact = analytic_gabor_transform(gaussian_spec(1), phase)
        assert sup_err(fast.values, exact.values) < 1e-8

    def test_hermite_route_agreement(self):
        # no closed form here, so the two quadrature routes check each other
        sig_geom = lattice_signal_geometry()
        phase = box_geometry((17, 33), (-1.0, -1.0), (1.0, 1.0))
        f = hermite_gaussian(3, sig_geom)
        direct = gabor_transform(f, phase)
        fast = gabor_transform_fft(f, phase)
        assert sup_err(fast.values, direct.values) < 1e-12

    def test_two_dimensional_agreement(self):
        # 64 samples, dt = 1/8: lattice spacing 1/8; y spacing 1/4 sits on it
        sig_geom = box_geometry((64, 64), -4.0, 4.0 - 1.0 / 8.0)
        phase = box_geometry((5, 9, 5, 9), (-1.0, -1.0, -1.0, -1.0), (1.0, 1.0, 1.0, 1.0))
        spec = shifted_gaussian_spec((0.25, -0.5), (0.0, 0.5))
        f = make_analytic(spec, sig_geom)
        direct = gabor_transform(f, phase)
        fast = gabor_transform_fft(f, phase)
        exact = analytic_gabor_transform(spec, phase)
        assert sup_err(fast.values, direct.values) < 1e-12
        assert sup_err(fast.values, exact.values) < 1e-8

    def test_off_lattice_y_rejected(self):
        f = make_gaussian(1, lattice_signal_geometry())
        phase = box_geometry((5, 5), (-1.0, -0.2), (1.0, 0.2))  # y spacing 0.1
        with pytest.raises(ValueError, match="lattice"):
            gabor_transform_fft(f, phase)

    def test_beyond_nyquist_rejected(self):
        f = make_gaussian(1, lattice_signal_geometry())
        # on-lattice but above the n//2 = 256 bin (Nyquist y = 16)
        phase = GridGeometry(extents=(3, 2), spacing=(0.5, 0.5), origin=(-0.5, 16.5))
        with pytest.raises(ValueError, match="Nyquist"):
            gabor_transform_fft(f, phase)

    def test_zero_signal_gives_zero_field(self):
        from gaborstab.grids import SignalGrid

        f = SignalGrid(lattice_signal_geometry(), np.zeros(512))
        F = gabor_transform_fft(f, box_geometry((5, 5), -1.0, 1.0))
        assert np.all(F.values == 0.0)

    def test_rank_mismatch(self):
        f = make_gaussian(1, lattice_signal_geometry())
        with pytest.raises(ValueError):
            gabor_transform_fft(f, box_geometry((5,), -1.0, 1.0))


class TestRiemannSum:
    @pytest.mark.filterwarnings("ignore:signal does not decay")
    @pytest.mark.parametrize("transform", [gabor_transform, gabor_transform_fft])
    def test_matches_brute_force_sum(self, transform):
        # every axis has its own extent, so a swapped axis order or reshape
        # cannot pass; n*dt = 3 on both signal axes puts y spacing 1/3 on the
        # FFT lattice, and nonzero origins exercise the origin phase
        rng = np.random.default_rng(4)
        sig_geom = GridGeometry(extents=(12, 10), spacing=(0.25, 0.3), origin=(0.7, -1.1))
        phase = GridGeometry(extents=(3, 5, 4, 6), spacing=(0.4, 1.0 / 3.0, 0.5, 1.0 / 3.0),
                             origin=(1.0, -2.0 / 3.0, -0.8, -4.0 / 3.0))
        f = SignalGrid(sig_geom, rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10)))
        t1, t2 = np.meshgrid(sig_geom.axis_coordinates(0), sig_geom.axis_coordinates(1),
                             indexing="ij")
        x1, y1, x2, y2 = (phase.axis_coordinates(a) for a in range(4))
        brute = np.empty(phase.extents, np.complex128)
        for i in range(x1.size):
            for j in range(y1.size):
                for k in range(x2.size):
                    for m in range(y2.size):
                        kernel = (np.exp(-np.pi * ((t1 - x1[i]) ** 2 + (t2 - x2[k]) ** 2))
                                  * np.exp(-2j * np.pi * (t1 * y1[j] + t2 * y2[m])))
                        brute[i, j, k, m] = np.sum(f.values * kernel) * sig_geom.cell_volume
        assert sup_err(transform(f, phase).values, brute) < 1e-13


class TestSpectrogram:
    def test_gaussian_argmax_at_origin(self):
        phase = box_geometry((129, 129), -4.0, 4.0)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        S = spectrogram(F)
        assert S.argmax_index == (64, 64)
        assert S.argmax_location == (0.0, 0.0)
        assert S.values.max() == pytest.approx(2.0 ** -0.5, rel=1e-12)

    def test_tie_breaks_to_first_row_major_index(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        F = PhaseSpaceGrid(geom, np.ones((4, 4)))
        S = spectrogram(F)
        assert S.argmax_index == (0, 0)

    def test_zero_field(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        S = spectrogram(PhaseSpaceGrid(geom, np.zeros((4, 4))))
        assert S.argmax_index == (0, 0)
        assert np.all(S.values == 0.0)

    def test_argmax_consistency_enforced(self):
        geom = box_geometry((3, 3), -1.0, 1.0)
        vals = np.zeros((3, 3))
        vals[1, 1] = 1.0
        with pytest.raises(ValueError):
            Spectrogram(geometry=geom, values=vals, argmax_index=(0, 0),
                        argmax_location=(-1.0, -1.0))


class TestModulationNorm:
    def test_gaussian_l2(self):
        phase = box_geometry((193, 193), -6.0, 6.0)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        assert modulation_norm(F, 2.0) == pytest.approx(2.0 ** -0.5, rel=1e-12)

    def test_gaussian_l1(self):
        phase = box_geometry((193, 193), -6.0, 6.0)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        assert modulation_norm(F, 1.0) == pytest.approx(2.0 ** 0.5, rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        geom = box_geometry((8, 8), -1.0, 1.0)
        vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        vals[0, :] = vals[-1, :] = vals[:, 0] = vals[:, -1] = 0.0
        F = PhaseSpaceGrid(geom, vals)
        for p in (1.0, 1.4, 2.0, 3.0):
            assert modulation_norm(F, p) * 2.5 == pytest.approx(
                modulation_norm(PhaseSpaceGrid(geom, 2.5 * vals), p), rel=1e-13)

    def test_mask_halves_symmetric_mass(self):
        phase = box_geometry((193, 193), -6.0, 6.0)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        mask = np.zeros((193, 193), dtype=bool)
        mask[:96, :] = True  # open half plane x < 0
        half = modulation_norm(F, 1.0, mask=mask)
        mask_rest = ~mask
        other = modulation_norm(F, 1.0, mask=mask_rest)
        total = modulation_norm(F, 1.0)
        assert half + other == pytest.approx(total, rel=1e-13)
        assert half < other  # the x = 0 line sits in the complement

    def test_rejects_p_below_one(self):
        phase = box_geometry((9, 9), -4.0, 4.0)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        with pytest.raises(AdmissibilityError):
            modulation_norm(F, 0.5)

    def test_warns_when_support_leaks(self):
        phase = box_geometry((9, 9), -1.0, 1.0)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        with pytest.warns(UserWarning, match="boundary"):
            modulation_norm(F, 2.0)

    def test_zero_field_norm(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        assert modulation_norm(PhaseSpaceGrid(geom, np.zeros((4, 4))), 2.0) == 0.0


class TestEntireLift:
    def _lift(self, a=0.2, b=0.2, half=3.0, n=97):
        phase = box_geometry((n, n), -half, half)
        F = analytic_gabor_transform(shifted_gaussian_spec((a,), (b,)), phase)
        return entire_lift(F)

    def test_identity_error_tiny(self):
        lift = self._lift()
        assert lift.identity_max_rel_error() < 1e-12

    def test_identity_check_has_teeth(self):
        lift = self._lift()
        bad = EntireLift(base=lift.base,
                         lifted=PhaseSpaceGrid(lift.geometry, lift.lifted.values * 1.01))
        assert bad.identity_max_rel_error() > 5e-3

    def test_centered_gaussian_lifts_to_constant_modulus(self):
        phase = box_geometry((49, 49), -1.5, 1.5)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        lift = entire_lift(F)
        mods = np.abs(lift.lifted.values)
        assert np.allclose(mods, 2.0 ** -0.5, rtol=1e-12)

    def test_rejects_asymmetric_y_axis(self):
        geom = GridGeometry(extents=(9, 9), spacing=(0.25, 0.25), origin=(-1.0, -0.75))
        F = PhaseSpaceGrid(geom, np.ones((9, 9)))
        with pytest.raises(ValueError, match="symmetric"):
            entire_lift(F)

    def test_gradient_identity_small_on_lift(self):
        phase = box_geometry((193, 193), -3.0, 3.0)  # spacing 1/32
        F = analytic_gabor_transform(shifted_gaussian_spec((0.2,), (0.2,)), phase)
        report = gradient_identity_report(entire_lift(F))
        assert report.samples_checked > 1000
        assert report.max_rel_error < 1e-4

    def test_gradient_identity_fails_off_lift(self):
        # the identity needs the lift; the raw transform violates it
        phase = box_geometry((193, 193), -3.0, 3.0)
        F = analytic_gabor_transform(shifted_gaussian_spec((0.2,), (0.2,)), phase)
        fake = EntireLift(base=F, lifted=F)
        report = gradient_identity_report(fake)
        assert report.max_rel_error > 1e-2

    def test_wirtinger_residual_small(self):
        phase = box_geometry((193, 193), -3.0, 3.0)
        F = analytic_gabor_transform(shifted_gaussian_spec((0.2,), (0.2,)), phase)
        assert wirtinger_residual(entire_lift(F)) < 1e-3

    def test_wirtinger_residual_large_for_antiholomorphic(self):
        # the lift of a shifted bump is a nonconstant exponential; its
        # conjugate is antiholomorphic and the residual must flag it
        phase = box_geometry((49, 49), -1.5, 1.5)
        F = analytic_gabor_transform(shifted_gaussian_spec((0.4,), (0.3,)), phase)
        lift = entire_lift(F)
        conj = EntireLift(base=F, lifted=PhaseSpaceGrid(lift.geometry,
                                                        np.conj(lift.lifted.values)))
        assert wirtinger_residual(conj) > 0.1


class TestRouteIndependence:
    def test_paths_not_shortcircuited(self):
        # the two quadrature routes must stay distinct implementations:
        # direct handles off-lattice y grids that the FFT path refuses
        f = make_gaussian(1, lattice_signal_geometry())
        off = box_geometry((5, 5), (-1.0, -0.2), (1.0, 0.2))
        F = gabor_transform(f, off)  # fine
        assert np.max(np.abs(F.values)) > 0.1
        with pytest.raises(ValueError):
            gabor_transform_fft(f, off)


class TestPinnedLiftValues:
    """Exact float64 values of the lift and its holomorphy diagnostics.

    The y-reflection, the factor e^{pi |z|^2 / 2} and the holomorphy sample
    set are each shared by two of these functions, and no benchmark
    fingerprint reaches them: the lift in the benchmark's CLI chain has no
    included cell within its radii.
    """

    @pytest.fixture(scope="class")
    def lift(self):
        phase = box_geometry((65, 65), -2.0, 2.0)
        F = analytic_gabor_transform(shifted_gaussian_spec((0.3,), (0.2,)), phase)
        return entire_lift(F)

    def test_lift_samples(self, lift):
        vals = lift.lifted.values
        assert vals[10, 20] == 0.04735632885220524 - 0.24825056957082642j
        assert vals[32, 32] == 0.5662902006675803 + 0.10802563319374034j
        assert vals[60, 5] == 8.268193975508275 - 2.579213850710102j

    def test_identity_max_rel_error(self, lift):
        assert lift.identity_max_rel_error() == 5.340987192092645e-16

    def test_gradient_identity_report(self, lift):
        report = gradient_identity_report(lift)
        assert (report.max_rel_error, report.samples_checked) == (0.0004794469647746443, 3969)

    def test_wirtinger_residual(self, lift):
        assert wirtinger_residual(lift) == 0.0009461792545879092

    def test_diagnostics_skip_cells_below_the_level(self):
        # The lift of f1 - f2 vanishes inside the box: one interior cell is
        # below HOLOMORPHY_LEVEL, and the cells next to it set the maxima.
        phase = box_geometry((65, 65), -2.0, 2.0)
        spec = two_bump_spec((-1.0,), (0.0,), (1.0,), (0.5,), sign=-1)
        lift = entire_lift(analytic_gabor_transform(spec, phase))
        report = gradient_identity_report(lift)
        assert (report.max_rel_error, report.samples_checked) == (0.7598838432651329, 3968)
        assert wirtinger_residual(lift) == 0.38786021665738696
