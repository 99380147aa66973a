"""Sampled Gabor transform (direct and FFT paths), spectrograms, entire lift."""

import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gaborstab import fdiff, gabor
from gaborstab.gabor import (
    ARGMAX_TIE_TOL,
    Spectrogram,
    entire_lift,
    gabor_transform,
    gabor_transform_fft,
    gradient_identity_report,
    spectrogram,
)
from gaborstab.grids import GridGeometry, PhaseSpaceGrid, SignalGrid, box_geometry
from gaborstab.signals import (
    analytic_gabor_transform,
    gaussian_spec,
    hermite_gaussian,
    make_analytic,
    shifted_gaussian_spec,
    two_bump_spec,
)


def lattice_signal_geometry():
    # 512 samples, dt = 1/32, n*dt = 16: FFT frequency lattice spacing 1/16
    return box_geometry((512,), -8.0, 8.0 - 1.0 / 32.0)


def sup_err(A, B):
    scale = max(float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    return float(np.max(np.abs(A - B))) / scale


def lift_identity_error(F, lift):
    """Max relative deviation of |G| from |Gf(x, -y)| e^{pi |z|^2 / 2}, lift G of Gf = F."""
    geom = lift.geometry
    reflected = np.flip(F.values, axis=tuple(range(1, geom.rank, 2)))
    expected = np.abs(reflected) * np.exp(np.pi * geom.distance_sq() / 2.0)
    got = np.abs(lift.values)
    denom = np.maximum(expected, np.max(expected) * 1e-300 + np.finfo(float).tiny)
    rel = np.where(expected == 0.0, got, np.abs(got - expected) / denom)
    return float(np.max(rel))


def antiholomorphic_residual(lift):
    """Max of |d/d(conj z) G| / |G| over the samples gradient_identity_report checks."""
    geom = lift.geometry
    G = lift.values
    mod = np.abs(G)
    mask = fdiff.interior_mask(geom) & (mod > gabor.HOLOMORPHY_LEVEL * mod.max())
    grads = fdiff.gradient(G, geom)
    anti = [0.5 * (grads[2 * a] + 1j * grads[2 * a + 1]) for a in range(lift.dimension)]
    res = fdiff.gradient_norm(anti)
    ratio = np.where(mask, res / np.where(mod == 0.0, 1.0, mod), 0.0)
    return float(np.max(ratio)) if mask.any() else 0.0


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
        f = make_analytic(gaussian_spec(1), box_geometry((65,), -4.0, 4.0))
        with pytest.raises(ValueError):
            gabor_transform(f, box_geometry((5, 5, 5, 5), -1.0, 1.0))

    def test_warns_on_truncated_signal(self):
        f = make_analytic(gaussian_spec(1), box_geometry((17,), -1.0, 1.0))
        with pytest.warns(UserWarning, match="boundary"):
            gabor_transform(f, box_geometry((5, 5), -1.0, 1.0))

    def test_time_shift_covariance(self):
        # |G(T_a f)|(x, y) = |Gf|(x - a, y); a = 0.5 is 8 cells at spacing 1/16
        sig_geom = box_geometry((513,), -8.0, 8.0)
        phase = box_geometry((65, 65), -2.0, 2.0)
        S0 = np.abs(gabor_transform(make_analytic(gaussian_spec(1), sig_geom), phase).values)
        fa = make_analytic(shifted_gaussian_spec((0.5,), (0.0,)), sig_geom)
        Sa = np.abs(gabor_transform(fa, phase).values)
        assert np.max(np.abs(Sa[8:, :] - S0[:-8, :])) < 1e-10

    def test_modulation_covariance(self):
        # |G(M_b f)|(x, y) = |Gf|(x, y - b); b = 0.5 is 8 cells at spacing 1/16
        sig_geom = box_geometry((513,), -8.0, 8.0)
        phase = box_geometry((65, 65), -2.0, 2.0)
        S0 = np.abs(gabor_transform(make_analytic(gaussian_spec(1), sig_geom), phase).values)
        fb = make_analytic(shifted_gaussian_spec((0.0,), (0.5,)), sig_geom)
        Sb = np.abs(gabor_transform(fb, phase).values)
        assert np.max(np.abs(Sb[:, 8:] - S0[:, :-8])) < 1e-10


def out_of_place_transform(f, phase_geometry, axis_contraction):
    """The separable Riemann sum through the package's axis contractions, as it
    was before the cell volume was applied in place: the scaled field is a
    second full array."""
    g = f.values
    for a in range(f.dimension):
        contract = axis_contraction(f.geometry, a, phase_geometry.axis_coordinates(2 * a + 1))
        t = f.geometry.axis_coordinates(a)
        x = phase_geometry.axis_coordinates(2 * a)
        g = contract(np.exp(-np.pi * (t[None, :] - x[:, None]) ** 2))(g)
    return g * f.geometry.cell_volume


def per_window_transform(f, phase_geometry, window_contraction):
    """The separable Riemann sum with a loop over the window positions of
    every axis, as both paths computed it before the direct one folded the
    window into its Fourier factor.  window_contraction(geometry, a, y) maps
    a windowed array whose axis 0 is t_a to one with a trailing y_a axis."""
    g = f.values
    for a in range(f.dimension):
        contract = window_contraction(f.geometry, a, phase_geometry.axis_coordinates(2 * a + 1))
        t = f.geometry.axis_coordinates(a)
        x = phase_geometry.axis_coordinates(2 * a)
        windows = np.exp(-np.pi * (t[None, :] - x[:, None]) ** 2)
        row = (t.size,) + (1,) * (g.ndim - 1)
        out = np.empty(g.shape[1:] + phase_geometry.extents[2 * a:2 * a + 2], np.complex128)
        for ix in range(x.size):
            out[..., ix, :] = contract(g * windows[ix].reshape(row))
        g = out
    return g * f.geometry.cell_volume


def fourier_window_contraction(geometry, a, y):
    fourier = np.exp(-2j * np.pi * np.outer(geometry.axis_coordinates(a), y))
    return lambda w: np.tensordot(w, fourier, axes=([0], [0]))


def reduced_phase_window_contraction(geometry, a, y):
    """fourier_window_contraction with the factor e^{-2 pi i frac(t y)}, t y
    reduced mod 1 to [-1/2, 1/2]."""
    ty = np.outer(geometry.axis_coordinates(a), y)
    fourier = np.exp(-2j * np.pi * (ty - np.round(ty)))
    return lambda w: np.tensordot(w, fourier, axes=([0], [0]))


def exact_phase_window_contraction(geometry, a, y):
    """reduced_phase_window_contraction, whose phases are exact: every
    product t y is checked to be exact in float64 against the exact
    rational product."""
    t = geometry.axis_coordinates(a)
    ty = np.outer(t, y)
    assert all(Fraction(p) == Fraction(ti) * Fraction(yj)
               for ti, row in zip(t.tolist(), ty.tolist()) for yj, p in zip(y.tolist(), row))
    return reduced_phase_window_contraction(geometry, a, y)


def assert_within_4_eps_of_the_peak(got, want):
    peak = float(np.max(np.abs(want)))
    assert peak > 0.0
    assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * peak


def fft_window_contraction(geometry, a, y):
    k = gabor._fft_frequency_indices(y, geometry.extents[a], geometry.spacing[a])
    origin_phase = np.exp(-2j * np.pi * geometry.origin[a] * y)
    return lambda w: np.moveaxis(np.fft.fft(w, axis=0)[k], 0, -1) * origin_phase


def fold_step(signal_geometry, phase_geometry, a):
    """The FFT path's fold step m on signal axis a."""
    k = gabor._fft_frequency_indices(phase_geometry.axis_coordinates(2 * a + 1),
                                     signal_geometry.extents[a], signal_geometry.spacing[a])
    return gabor._fold_step(k, signal_geometry.extents[a])


def direct_fold_step(signal_geometry, phase_geometry, a):
    """The direct path's fold step m on signal axis a (1: no fold)."""
    n = signal_geometry.extents[a]
    y = phase_geometry.axis_coordinates(2 * a + 1)
    return gabor._fold_step(y * (n * signal_geometry.spacing[a]), n)


class TestInPlaceScaling:
    """Both transform paths against the out-of-place scaling, bit for bit."""

    CASES = {
        "d1": (box_geometry((512,), -8.0, 8.0 - 1.0 / 32.0),
               box_geometry((33, 65), (-1.5, -2.0), (1.5, 2.0)),
               two_bump_spec((-1.0,), (0.0,), (1.0,), (0.5,), sign=-1)),
        "d2": (box_geometry((64, 64), -4.0, 4.0 - 1.0 / 8.0),
               box_geometry((5, 9, 7, 9), -1.0, 1.0),
               shifted_gaussian_spec((0.25, -0.5), (0.0, 0.5))),
        # (x_1, y_1) extents 1 x 1: axis 1 is contracted as one row, (n, 1).
        # The signal rows t_1 = -16, 0, 16 leave the Gaussian 0 (underflow)
        # on the outer two, and e^{-2 pi i t_1 y_1} = 1 at t_1 = 0, so
        # axis 0 sums one term and every step keeps the per-window bits.
        "d2-one-row": (box_geometry((3, 64), (-16.0, -4.0), (16.0, 4.0 - 1.0 / 8.0)),
                       GridGeometry((1, 1, 7, 17), (1.0, 1.0, 1.0 / 3.0, 1.0 / 8.0),
                                    (0.25, 1.0 / 48.0, -1.0, -1.0)),
                       shifted_gaussian_spec((0.25, -0.5), (0.0, 0.5))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("transform, contraction", [
        (gabor_transform, gabor._fourier_contraction),
        (gabor_transform_fft, gabor._fft_contraction),
    ], ids=["direct", "fft"])
    def test_equals_the_out_of_place_transform(self, case, transform, contraction):
        sig_geom, phase, spec = self.CASES[case]
        f = make_analytic(spec, sig_geom)
        got = transform(f, phase).values
        want = out_of_place_transform(f, phase, contraction)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def random_tapered_signal(rng):
    """A random complex signal on a small random 2-d grid, tapered by a
    Gaussian so it decays below 1e-12 of its peak at the boundary."""
    extents = tuple(int(n) for n in rng.integers(9, 24, 2))
    geom = box_geometry(extents, -4.0, 4.0)
    t1, t2 = geom.coordinate_arrays()
    values = (rng.standard_normal(extents) + 1j * rng.standard_normal(extents)) \
        * np.exp(-np.pi * (t1 ** 2 + t2 ** 2))
    phase = box_geometry(tuple(int(n) for n in rng.integers(3, 10, 4)),
                         tuple(rng.uniform(-2.0, -0.5, 4)), tuple(rng.uniform(0.5, 2.0, 4)))
    return SignalGrid(geom, values), phase


class TestContractionShapes:
    """Both paths share one lattice fold: per block, one batched product
    adds the windowed segments onto the y lattice, and a finisher contracts
    the sums.  The direct path folds any several rows and finishes with a
    GEMM at t y reduced mod 1: at a fold step m = 1 (y off the lattice or
    one bin apart) it computes the reduced-phase per-window loop's terms.
    A single row it windows at every x and contracts in one batched product
    with the per-window loop's bits.  The FFT path folds every row and
    finishes with an L-point FFT: at a lattice step of one bin it computes
    the per-window loop's terms."""

    # case -> (signal grid, phase grid, signal); the fold step m of each
    # signal axis in the comment.
    FOLDED = {
        # m = 4 on both axes: cli-chain's d = 2 gabor step, and report-d2's
        # grid and signal f at T = 3.
        "cli-chain-d2": (box_geometry((128, 128), -8.0, 7.875),
                         box_geometry((33,) * 4, -4.0, 4.0),
                         two_bump_spec((-1.5, 0.0), (0.0, 0.0), (1.5, 0.0), (0.0, 0.0),
                                       sign=1)),
        # m = 2 on both axes.
        "d2": TestInPlaceScaling.CASES["d2"],
    }

    # case -> phase grid on the "d2" signal grid (lattice 1/8) where the
    # direct path folds at m = 1.
    UNFOLDED = {
        "half-bin-off": GridGeometry((5, 9, 7, 9), (0.5, 0.25, 1.0 / 3.0, 0.25),
                                     (-1.0, -1.0 + 1.0 / 16.0, -1.0, -1.0 + 1.0 / 16.0)),
        # On the lattice for the FFT path, which allows 1e-8 lattice units.
        "1e-9-off": GridGeometry((5, 9, 7, 9), (0.5, 0.25, 1.0 / 3.0, 0.25),
                                 (-1.0, -1.0 + 1e-9 / 8.0, -1.0, -1.0 + 1e-9 / 8.0)),
        # y step 1/(n dt) = 1/8, one bin: m = 1.
        "unit-step": box_geometry((5, 17, 7, 17), -1.0, 1.0),
    }

    @pytest.mark.parametrize("case", ["random-1", "random-2"])
    def test_folded_gemm_is_within_4_eps_of_the_per_window_loop(self, case):
        f, phase = random_tapered_signal(np.random.default_rng(int(case[-1])))
        got = gabor_transform(f, phase).values
        want = per_window_transform(f, phase, fourier_window_contraction)
        peak = float(np.max(np.abs(want)))
        assert peak > 0.0
        assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * peak

    @pytest.mark.parametrize("case, m", [("cli-chain-d2", 4), ("d2", 2)],
                             ids=["cli-chain-d2", "d2"])
    def test_lattice_fold_is_within_4_eps_of_the_exact_phase_loop(self, case, m):
        sig_geom, phase, spec = self.FOLDED[case]
        f = make_analytic(spec, sig_geom)
        assert [direct_fold_step(f.geometry, phase, a) for a in range(f.dimension)] == [m, m]
        assert_within_4_eps_of_the_peak(
            gabor_transform(f, phase).values,
            per_window_transform(f, phase, exact_phase_window_contraction))

    @pytest.mark.parametrize("case", sorted(UNFOLDED) + ["random-1", "random-2", "random-3"])
    def test_unit_step_fold_equals_the_reduced_phase_loop(self, case):
        if case in self.UNFOLDED:
            sig_geom, _, spec = self.FOLDED["d2"]
            f, phase = make_analytic(spec, sig_geom), self.UNFOLDED[case]
        else:
            f, phase = random_tapered_signal(np.random.default_rng(int(case[-1])))
        assert all(direct_fold_step(f.geometry, phase, a) == 1 for a in range(f.dimension))
        got = gabor_transform(f, phase).values
        want = per_window_transform(f, phase, reduced_phase_window_contraction)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("case", sorted(FOLDED))
    def test_folded_fft_is_within_4_eps_of_the_per_window_loop(self, case):
        sig_geom, phase, spec = self.FOLDED[case]
        f = make_analytic(spec, sig_geom)
        assert all(fold_step(f.geometry, phase, a) > 1 for a in range(f.dimension))
        got = gabor_transform_fft(f, phase).values
        want = per_window_transform(f, phase, fft_window_contraction)
        peak = float(np.max(np.abs(want)))
        assert peak > 0.0
        assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * peak

    @pytest.mark.parametrize("transform, window_contraction, case", [
        (gabor_transform, fourier_window_contraction, "d1"),
        (gabor_transform_fft, fft_window_contraction, "d1"),
        (gabor_transform_fft, fft_window_contraction, "d2-unit-step"),
        (gabor_transform, fourier_window_contraction, "d2-one-row"),
        (gabor_transform_fft, fft_window_contraction, "d2-one-row"),
    ], ids=["direct-d1", "fft-d1", "fft-d2-unit-step", "direct-d2-one-row", "fft-d2-one-row"])
    def test_per_window_paths_are_unchanged(self, transform, window_contraction, case):
        if case == "d2-unit-step":
            # y step 1/(n dt) = 1/8 on both axes: m = 1, no fold.
            sig_geom = box_geometry((64, 64), -4.0, 4.0 - 1.0 / 8.0)
            phase = box_geometry((5, 17, 7, 17), -1.0, 1.0)
            spec = shifted_gaussian_spec((0.25, -0.5), (0.0, 0.5))
        else:
            sig_geom, phase, spec = TestInPlaceScaling.CASES[case]
        f = make_analytic(spec, sig_geom)
        assert all(fold_step(f.geometry, phase, a) == 1 for a in range(f.dimension))
        got = transform(f, phase).values
        want = per_window_transform(f, phase, window_contraction)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestFoldStep:
    """m, the largest divisor of n and of every y bin index of an axis."""

    @pytest.mark.parametrize("bins, m", [([0, 2, 6], 2), ([0, 3], 1), ([0], 8), ([4], 4)])
    def test_on_an_8_point_lattice(self, bins, m):
        assert gabor._fold_step(np.array(bins), 8) == m

    def test_a_lone_y_0_folds_onto_one_sample(self):
        # L = n / m = 1: the FFT of one sample is the windowed row's sum.
        sig_geom = lattice_signal_geometry()
        phase = GridGeometry((5, 1), (0.5, 1.0), (-1.0, 0.0))
        assert sig_geom.extents[0] // fold_step(sig_geom, phase, 0) == 1
        f = make_analytic(shifted_gaussian_spec((0.5,), (-0.25,)), sig_geom)
        fast = gabor_transform_fft(f, phase)
        assert sup_err(fast.values, gabor_transform(f, phase).values) < 1e-12

    @pytest.mark.parametrize("y0, step, ny, m", [
        (-4.0, 0.25, 33, 4), (-1.0, 0.125, 17, 2), (-1.0, 1.0 / 16.0, 33, 1), (0.0, 1.0, 1, 128),
        (-1.0 + 1.0 / 32.0, 0.125, 17, 1), (-1.0 + 1e-9 / 16.0, 0.125, 17, 1),
    ], ids=["report-d2", "two-bins", "one-bin", "lone-y-0", "half-bin-off", "1e-9-off"])
    def test_direct_fold_step(self, y0, step, ny, m):
        # 128 samples at dt = 1/8: the lattice is 1/16, and y0 = -4 and -1
        # are bins -64 and -16.  Off the lattice the direct path does not fold.
        sig_geom = box_geometry((128,), -8.0, 7.875)
        phase = GridGeometry((3, ny), (1.0, step), (-1.0, y0))
        assert direct_fold_step(sig_geom, phase, 0) == m

    def test_bins_come_from_the_y_samples(self):
        # n dt = 16: y = -1/2, 0, 1/8 sit on bins 504, 0 and 2 of 512.
        y = np.array([-0.5, 0.0, 0.125])
        k = gabor._fft_frequency_indices(y, 512, 1.0 / 32.0)
        assert k.tolist() == [504, 0, 2] and gabor._fold_step(k, 512) == 2


class TestConsumedSlabs:
    """The slabs a consume callback gets against the whole-grid transforms,
    at 7-row slabs that divide no row count here."""

    # case -> (signal grid, phase grid, signal, rows per slab)
    CASES = {
        "d1": (box_geometry((512,), -8.0, 8.0 - 1.0 / 32.0),
               box_geometry((33, 65), (-1.5, -2.0), (1.5, 2.0)),
               two_bump_spec((-1.0,), (0.0,), (1.0,), (0.5,), sign=-1), [1]),
        # 5 x 9 = 45 rows: six slabs of 7 and a tail of 3.
        "d2": (box_geometry((64, 64), -4.0, 4.0 - 1.0 / 8.0),
               box_geometry((5, 9, 7, 9), -1.0, 1.0),
               shifted_gaussian_spec((0.25, -0.5), (0.0, 0.5)), [7] * 6 + [3]),
        # 3 x 5 = 15 rows: a one-row tail, which joins the slab before it.
        "d2-tail": (box_geometry((64, 64), -4.0, 4.0 - 1.0 / 8.0),
                    box_geometry((3, 5, 7, 9), -1.0, 1.0),
                    two_bump_spec((-0.5, 0.0), (0.0, 0.0), (0.5, 0.0), (0.0, 0.0), sign=1),
                    [7, 8]),
        # x_1 = y_1 = 1: one row, contracted per window as a whole grid is.
        "d2-one-row": (box_geometry((64, 64), -4.0, 4.0 - 1.0 / 8.0),
                       GridGeometry((1, 1, 7, 9), (1.0, 1.0, 1.0 / 3.0, 0.25),
                                    (0.25, 0.0, -1.0, -1.0)),
                       shifted_gaussian_spec((0.25, -0.5), (0.0, 0.5)), [1]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("transform", [gabor_transform, gabor_transform_fft])
    def test_slabs_concatenate_to_the_transform(self, monkeypatch, case, transform):
        monkeypatch.setattr(gabor, "SLAB_ROWS", 7)
        sig_geom, phase, spec, rows = self.CASES[case]
        f = make_analytic(spec, sig_geom)
        slabs = transform(f, phase, consume=list)
        assert [s.shape for s in slabs] == [(n,) + phase.extents[-2:] for n in rows]
        got = np.concatenate([s.reshape(-1) for s in slabs]).reshape(phase.extents)
        want = transform(f, phase).values
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_zero_signal_gives_zero_slabs(self, monkeypatch):
        monkeypatch.setattr(gabor, "SLAB_ROWS", 7)
        phase = box_geometry((5, 9, 7, 9), -1.0, 1.0)
        f = SignalGrid(box_geometry((16, 16), -4.0, 4.0), np.zeros((16, 16)))
        slabs = gabor_transform(f, phase, consume=list)
        assert sum(s.shape[0] for s in slabs) == 45
        assert all(np.all(s == 0.0) for s in slabs)

    def test_errors_and_warnings_come_before_consume(self):
        f = make_analytic(gaussian_spec(1), lattice_signal_geometry())
        consumed = []
        with pytest.raises(ValueError, match="rank"):
            gabor_transform_fft(f, box_geometry((5, 5, 5, 5), -1.0, 1.0), consume=consumed.append)
        with pytest.raises(ValueError, match="lattice"):
            gabor_transform_fft(f, box_geometry((5, 7), -1.0, 1.0), consume=consumed.append)
        assert consumed == []
        truncated = make_analytic(gaussian_spec(1), box_geometry((17,), -1.0, 1.0))
        with pytest.warns(UserWarning, match="boundary") as record:
            gabor_transform(truncated, box_geometry((5, 5), -1.0, 1.0),
                            consume=consumed.append)
        assert record[0].filename == __file__
        assert len(consumed) == 1

    @pytest.mark.parametrize("phase, match", [
        (box_geometry((5, 7), -1.0, 1.0), "off the FFT frequency lattice"),
        (GridGeometry((3, 2), (0.5, 0.5), (-0.5, 16.5)), "Nyquist"),
    ], ids=["off-lattice", "past-nyquist"])
    def test_a_zero_signal_meets_the_same_checks(self, phase, match):
        geom = lattice_signal_geometry()
        consumed, messages = [], []
        for f in (make_analytic(gaussian_spec(1), geom), SignalGrid(geom, np.zeros(512))):
            with pytest.raises(ValueError, match=match) as error:
                gabor_transform_fft(f, phase, consume=consumed.append)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert consumed == []


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
        f = make_analytic(gaussian_spec(1), sig_geom)
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
        f = make_analytic(gaussian_spec(1), lattice_signal_geometry())
        phase = box_geometry((5, 5), (-1.0, -0.2), (1.0, 0.2))  # y spacing 0.1
        with pytest.raises(ValueError, match="lattice"):
            gabor_transform_fft(f, phase)

    def test_beyond_nyquist_rejected(self):
        f = make_analytic(gaussian_spec(1), lattice_signal_geometry())
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
        f = make_analytic(gaussian_spec(1), lattice_signal_geometry())
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

    def test_peak_is_not_a_constructor_argument(self):
        geom = box_geometry((3, 3), -1.0, 1.0)
        vals = np.zeros((3, 3))
        vals[1, 1] = 1.0
        with pytest.raises(TypeError):
            Spectrogram(geometry=geom, values=vals, argmax_index=(1, 1),
                        argmax_location=(99.0, -7.0))
        S = Spectrogram(geom, vals)
        assert (S.argmax_index, S.argmax_location) == ((1, 1), (0.0, 0.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_constructor_derives_the_first_peak_within_the_tolerance(self, seed):
        # Random fields with planted near-ties of the maximum M: one ulp
        # either side, and just inside and just outside ARGMAX_TIE_TOL.
        rng = np.random.default_rng(seed)
        extents = (7, 6) if seed % 2 == 0 else (4, 3, 5, 4)
        geom = GridGeometry(extents, tuple(rng.uniform(0.1, 2.0, len(extents))),
                            tuple(rng.uniform(-3.0, 3.0, len(extents))))
        vals = rng.random(extents)
        top = 1.0 + rng.random()
        planted = [np.nextafter(top, 0.0), top, np.nextafter(top, np.inf),
                   top * (1.0 - 0.5 * ARGMAX_TIE_TOL), top * (1.0 - 2.0 * ARGMAX_TIE_TOL)]
        cells = rng.choice(vals.size, size=len(planted), replace=False)
        vals.flat[cells] = planted
        level = (1.0 - ARGMAX_TIE_TOL) * vals.max()
        want = next(i for i in np.ndindex(*extents) if vals[i] >= level)
        S = Spectrogram(geom, vals)
        assert S.argmax_index == want
        assert S.argmax_location == geom.index_coordinates(want)
        assert S.argmax_index == spectrogram(PhaseSpaceGrid(geom, vals)).argmax_index

    @staticmethod
    def two_peaks(later):
        vals = np.zeros((4, 4))
        vals[1, 0] = 0.5
        vals[2, 3] = later
        return PhaseSpaceGrid(box_geometry((4, 4), -1.0, 1.0), vals)

    @pytest.mark.parametrize("later, index", [
        (np.nextafter(0.5, 1.0), (1, 0)),       # one ulp higher: a tie
        (0.5 * (1.0 + 1e-11), (2, 3)),          # beyond ARGMAX_TIE_TOL
    ])
    def test_later_peak_wins_only_beyond_the_tie_tolerance(self, later, index):
        assert spectrogram(self.two_peaks(later)).argmax_index == index

    def test_nan_field_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            spectrogram(self.two_peaks(np.nan))

    def test_symmetric_d2_pair_z0_survives_one_ulp_perturbations(self):
        # The bumps of f_1 + f_2 at x_1 = -1.5 and +1.5 tie up to rounding;
        # the first in row-major order is z0 whatever the last bits say.
        phase = box_geometry((33, 9, 9, 9), (-4.0, -1.0, -1.0, -1.0), (4.0, 1.0, 1.0, 1.0))
        spec = two_bump_spec((-1.5, 0.0), (0.0, 0.0), (1.5, 0.0), (0.0, 0.0), sign=1)
        mod = np.abs(analytic_gabor_transform(spec, phase).values)
        lo, hi = (10, 4, 4, 4), (22, 4, 4, 4)
        assert mod[hi] == pytest.approx(mod[lo], rel=1e-15)
        # The worst case for a plain argmax: the later peak one ulp above.
        worst = mod.copy()
        worst[lo], worst[hi] = np.nextafter(mod[lo], 0.0), np.nextafter(mod[lo], 1.0)
        fields = [mod, worst]
        for seed in range(6):
            up = np.random.default_rng(seed).random(mod.shape) < 0.5
            fields.append(np.nextafter(mod, np.where(up, np.inf, 0.0)))
        for field in fields:
            S = spectrogram(PhaseSpaceGrid(phase, field))
            assert S.argmax_location == (-1.5, 0.0, 0.0, 0.0)


class TestFirstPeak:
    """FirstPeak fed in row-major pieces gives the cell Spectrogram takes
    from the whole field."""

    @staticmethod
    def fed(values, cuts):
        peak = gabor.FirstPeak()
        for piece in np.split(values.reshape(-1), cuts):
            peak.feed(piece)
        return peak.cell()

    @pytest.mark.parametrize("seed", range(6))
    def test_any_cut_gives_the_whole_field_peak(self, seed):
        rng = np.random.default_rng(seed)
        geom = box_geometry((6, 5, 4, 7), -1.0, 1.0)
        vals = rng.random(geom.extents)
        top = 1.0 + rng.random()
        # A chain of values one ulp apart within the tolerance of top, which
        # the maximum top * (1 + tol / 2) leaves behind, and a value just
        # outside the tolerance.
        chain = [top * (1.0 - 0.9 * ARGMAX_TIE_TOL)]
        for _ in range(6):
            chain.append(np.nextafter(chain[-1], np.inf))
        planted = chain + [top, top * (1.0 + 0.5 * ARGMAX_TIE_TOL),
                           top * (1.0 - 2.0 * ARGMAX_TIE_TOL)]
        cells = rng.choice(vals.size, size=len(planted), replace=False)
        vals.flat[cells] = planted
        want = np.ravel_multi_index(Spectrogram(geom, vals).argmax_index, geom.extents)
        for cuts in ([], sorted(rng.choice(np.arange(1, vals.size), 9, replace=False)),
                     list(range(1, vals.size)), list(range(7, vals.size, 7))):
            assert self.fed(vals, cuts) == (want, vals.flat[want])

    def test_a_later_maximum_leaves_the_first_cell_still_within_it(self):
        # The maximum arrives last and lifts the level past cell 1 but not
        # past cell 2, which is under cell 1's level when it is fed: the
        # first cell within the final level is 2 however the field is cut.
        tol = ARGMAX_TIE_TOL
        vals = np.array([0.5, 1.0, 1.0 + 0.6 * tol, 0.3, 1.0 + 1.2 * tol, 1.0 + 0.9 * tol])
        for cuts in ([], [1], [2], [3], [4], [5], [1, 3], [2, 4], list(range(1, 6))):
            assert self.fed(vals, cuts) == (2, vals[2])

    @pytest.mark.parametrize("later", [np.nextafter(0.5, 1.0), 0.5 * (1.0 + 0.5e-12)])
    def test_near_tie_across_a_seam_picks_the_first_cell(self, later):
        vals = np.zeros(14)
        vals[6], vals[7] = 0.5, later
        # The seam sits between the two cells: the first piece ends on 0.5.
        assert self.fed(vals, [7]) == (6, 0.5)
        vals[7] = 0.5 * (1.0 + 2e-12)
        assert self.fed(vals, [7]) == (7, vals[7])

    def test_chunks_of_a_constant_field(self):
        peak = gabor.FirstPeak()
        peak.feed(np.ones(3 * gabor.FirstPeak._CHUNK + 5))
        assert peak.cell() == (0, 1.0)

    def test_nan_rejected_in_any_piece(self):
        peak = gabor.FirstPeak()
        peak.feed(np.array([1.0, 2.0]))
        peak.feed(np.array([np.nan]))
        peak.feed(np.array([3.0]))
        with pytest.raises(ValueError, match="NaN"):
            peak.cell()


class TestModulationNorm:
    """L^p norms of the closed-form transform of the unit Gaussian on a grid."""

    @staticmethod
    def lp_norm(F, p):
        return float(np.sum(np.abs(F.values) ** p) * F.geometry.cell_volume) ** (1.0 / p)

    def test_gaussian_l2(self):
        phase = box_geometry((193, 193), -6.0, 6.0)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        assert self.lp_norm(F, 2.0) == pytest.approx(2.0 ** -0.5, rel=1e-12)

    def test_gaussian_l1(self):
        phase = box_geometry((193, 193), -6.0, 6.0)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        assert self.lp_norm(F, 1.0) == pytest.approx(2.0 ** 0.5, rel=1e-12)


class TestEntireLift:
    def _transform(self, a=0.2, b=0.2, half=3.0, n=97):
        phase = box_geometry((n, n), -half, half)
        return analytic_gabor_transform(shifted_gaussian_spec((a,), (b,)), phase)

    def test_identity_error_tiny(self):
        F = self._transform()
        assert lift_identity_error(F, entire_lift(F)) < 1e-12

    def test_identity_check_has_teeth(self):
        F = self._transform()
        lift = entire_lift(F)
        bad = PhaseSpaceGrid(lift.geometry, lift.values * 1.01)
        assert lift_identity_error(F, bad) > 5e-3

    def test_centered_gaussian_lifts_to_constant_modulus(self):
        phase = box_geometry((49, 49), -1.5, 1.5)
        F = analytic_gabor_transform(gaussian_spec(1), phase)
        lift = entire_lift(F)
        mods = np.abs(lift.values)
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
        report = gradient_identity_report(F)
        assert report.max_rel_error > 1e-2

    def test_wirtinger_residual_small(self):
        phase = box_geometry((193, 193), -3.0, 3.0)
        F = analytic_gabor_transform(shifted_gaussian_spec((0.2,), (0.2,)), phase)
        assert antiholomorphic_residual(entire_lift(F)) < 1e-3

    def test_wirtinger_residual_large_for_antiholomorphic(self):
        # the lift of a shifted bump is a nonconstant exponential; its
        # conjugate is antiholomorphic and the residual must flag it
        phase = box_geometry((49, 49), -1.5, 1.5)
        F = analytic_gabor_transform(shifted_gaussian_spec((0.4,), (0.3,)), phase)
        lift = entire_lift(F)
        conj = PhaseSpaceGrid(lift.geometry, np.conj(lift.values))
        assert antiholomorphic_residual(conj) > 0.1


class TestRouteIndependence:
    def test_paths_not_shortcircuited(self):
        # the two quadrature routes must stay distinct implementations:
        # direct handles off-lattice y grids that the FFT path refuses
        f = make_analytic(gaussian_spec(1), lattice_signal_geometry())
        off = box_geometry((5, 5), (-1.0, -0.2), (1.0, 0.2))
        F = gabor_transform(f, off)  # fine
        assert np.max(np.abs(F.values)) > 0.1
        with pytest.raises(ValueError):
            gabor_transform_fft(f, off)


class TestPinnedLiftValues:
    """Exact float64 values of the lift and its holomorphy diagnostics.

    No benchmark fingerprint reaches them: the lift in the benchmark's CLI
    chain has no included cell within its radii.
    """

    @pytest.fixture(scope="class")
    def transform(self):
        phase = box_geometry((65, 65), -2.0, 2.0)
        return analytic_gabor_transform(shifted_gaussian_spec((0.3,), (0.2,)), phase)

    @pytest.fixture(scope="class")
    def lift(self, transform):
        return entire_lift(transform)

    def test_lift_samples(self, lift):
        vals = lift.values
        assert vals[10, 20] == 0.04735632885220524 - 0.24825056957082642j
        assert vals[32, 32] == 0.5662902006675803 + 0.10802563319374034j
        assert vals[60, 5] == 8.268193975508275 - 2.579213850710102j

    def test_identity_max_rel_error(self, transform, lift):
        assert lift_identity_error(transform, lift) == 5.340987192092645e-16

    def test_gradient_identity_report(self, lift):
        report = gradient_identity_report(lift)
        assert (report.max_rel_error, report.samples_checked) == (0.0004794469647746443, 3969)

    def test_wirtinger_residual(self, lift):
        assert antiholomorphic_residual(lift) == 0.0009461792545879092

    def test_diagnostics_skip_cells_below_the_level(self):
        # The lift of f1 - f2 vanishes inside the box: one interior cell is
        # below HOLOMORPHY_LEVEL, and the cells next to it set the maxima.
        phase = box_geometry((65, 65), -2.0, 2.0)
        spec = two_bump_spec((-1.0,), (0.0,), (1.0,), (0.5,), sign=-1)
        lift = entire_lift(analytic_gabor_transform(spec, phase))
        report = gradient_identity_report(lift)
        assert (report.max_rel_error, report.samples_checked) == (0.7598838432651329, 3968)
        assert antiholomorphic_residual(lift) == 0.38786021665738696


class TestReadmeSession:
    def test_minimal_session_prints_the_origin_and_the_peak(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("A minimal session:", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        location, peak = capsys.readouterr().out.strip().rsplit(" ", 1)
        assert location == "(0.0, 0.0)"
        assert float(peak) == pytest.approx(2.0 ** -0.5, rel=1e-12)
