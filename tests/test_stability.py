"""Phase alignment, norm terms, noise model, and stability report assembly."""

import contextlib
import functools
import json
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from gaborstab import fdiff, gabor
from gaborstab.entire import max_admissible_p
from gaborstab.errors import AdmissibilityError
from gaborstab.gabor import Spectrogram, gabor_transform, spectrogram
from gaborstab.grids import (MAX_GRID_CELLS, DomainPartition, PhaseSpaceGrid, SignalGrid,
                             box_geometry)
from gaborstab.signals import (
    analytic_gabor_transform,
    gaussian_spec,
    make_analytic,
    two_bump_spec,
)
from gaborstab.stability import (
    COARSE_SCAN_POINTS,
    DEFAULT_CHEEGER_COARSEN,
    GOLDEN_TOL,
    SCAN_HEAVY_LEVEL,
    NoiseSpec,
    PackedField,
    PhaseAlignment,
    _assemble_terms,
    _brent_minimize,
    _scan,
    _weight_and_superset,
    _whole,
    _wrap_angle,
    align_phase_global,
    align_phase_multicomponent,
    check_admissible,
    cheeger_route_terms,
    dnorm,
    instability_signal_geometry,
    instability_sweep,
    logderiv_term,
    make_instability_pair,
    min_report_q,
    noise_band_limited,
    noise_gaussian_bump,
    sobolev_diff_norm,
    sobolev_diff_pieces,
    stability_report,
    sweep_phase_geometry,
    weighted_lq_diff_norm,
)


def gaussian_field(n=129, half=4.0):
    geom = box_geometry((n, n), -half, half)
    return analytic_gabor_transform(gaussian_spec(1), geom)


def zero_spectrogram_like(S):
    return spectrogram(PhaseSpaceGrid(S.geometry, np.zeros(S.geometry.extents)))


def on_cells(S1, S2, mask=None):
    """S1 and S2 packed at the cells of mask (every cell for None), and the MaskCells."""
    cells = fdiff.MaskCells(S1.geometry, mask)
    return cells.pack(S1.values), cells.pack(S2.values), cells


def packed_field(F, mask):
    """F held at the True cells of mask, as a report packs it."""
    return PackedField(F.geometry, mask, F.values[mask])


SCAN_THETAS = 2.0 * math.pi * np.arange(COARSE_SCAN_POINTS) / COARSE_SCAN_POINTS


def full_scan_alignment(F1, F2, p, mask=None):
    """The search as it stood before the certified scan: the objective over
    all of Omega at each of the 64 scan angles, then Brent from the argmin."""
    if mask is None:
        sel1, sel2 = F1.values.ravel(), F2.values.ravel()
    else:
        sel1, sel2 = F1.values[mask], F2.values[mask]
    vol = F1.geometry.cell_volume
    diff = np.empty_like(sel1)
    mag = np.empty(sel1.shape)

    def objective(theta):
        np.multiply(np.exp(1j * theta), sel1, out=diff)
        np.subtract(sel2, diff, out=diff)
        np.abs(diff, out=mag)
        return float(np.sum(mag if p == 1.0 else mag ** p) * vol) ** (1.0 / p)

    coarse = np.array([objective(t) for t in SCAN_THETAS])
    k = int(np.argmin(coarse))
    step = 2.0 * math.pi / COARSE_SCAN_POINTS
    delta, residual, calls = _brent_minimize(
        lambda offset: objective(_wrap_angle(SCAN_THETAS[k] + offset)),
        -step, step, 0.0, float(coarse[k]), GOLDEN_TOL)
    return PhaseAlignment(theta_star=_wrap_angle(SCAN_THETAS[k] + delta), residual=residual,
                          method="search", evaluations=COARSE_SCAN_POINTS + calls)


def counted_scan(F1, F2, p):
    """_scan over the whole grid with a power sum that logs the size of each pass.

    Returns the scan values and the sizes of the passes in order.
    """
    sel1, sel2 = F1.values.ravel(), F2.values.ravel()
    vol = F1.geometry.cell_volume
    sizes = []

    def power_sum(theta, a1, a2):
        sizes.append(a1.size)
        return float(np.sum(np.abs(a2 - np.exp(1j * theta) * a1) ** p) * vol)

    def objective(theta):
        return power_sum(theta, sel1, sel2) ** (1.0 / p)

    return _scan(power_sum, objective, sel1, sel2, p, vol, SCAN_THETAS), sizes


def heavy_tailed_pair(seed, shape=(40, 45)):
    """Amplitudes log-uniform over six decades: over a quarter of the cells
    are light, and at p = 1 their bound is loose enough that several angles
    survive."""
    rng = np.random.default_rng(seed)
    geom = box_geometry(shape, -1.0, 1.0)
    amp = 10.0 ** rng.uniform(-6.0, 0.0, (2,) + shape)
    v = amp * np.exp(2j * np.pi * rng.random((2,) + shape))
    return PhaseSpaceGrid(geom, v[0]), PhaseSpaceGrid(geom, v[1])


def half_flipped_pair(seed, n=24, pad=6):
    """F2 = F1 on one half and -F1 on the other, with the same values on
    both halves in another order, so J(0) and J(pi) agree to a few ulp.
    pad rows of zeros on both grids are light cells whose bound is 0."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((n // 2, n)) + 1j * rng.standard_normal((n // 2, n))
    v1 = np.concatenate([half, half[::-1, ::-1], np.zeros((pad, n))])
    sign = np.ones((n + pad, 1))
    sign[n // 2:n] = -1.0
    geom = box_geometry((n + pad, n), -1.0, 1.0)
    return PhaseSpaceGrid(geom, v1), PhaseSpaceGrid(geom, sign * v1)


def random_pair(seed, shape):
    rng = np.random.default_rng(seed)
    geom = box_geometry(shape, -1.0, 1.0)
    v = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
    return PhaseSpaceGrid(geom, v[0]), PhaseSpaceGrid(geom, v[1])


def random_mask(shape, seed):
    mask = np.random.default_rng(seed).random(shape) < 0.6
    mask.flat[0] = True
    return mask


class TestAdmissibility:
    def test_report_exponent_boundaries(self):
        assert max_admissible_p(1) == pytest.approx(2.0)
        assert max_admissible_p(2) == pytest.approx(4.0 / 3.0)
        assert min_report_q(1.0, 1) == pytest.approx(2.0)
        assert min_report_q(1.2, 1) == pytest.approx(3.0)

    @pytest.mark.parametrize("p,q,d", [
        (1.0, 2.5, 1), (1.0, 3.0, 1), (1.2, 3.5, 1), (1.5, 6.5, 1),
        (1.25, 25.0, 2),
    ])
    def test_admissible_pairs(self, p, q, d):
        check_admissible(p, q, d)

    @pytest.mark.parametrize("p,q,d", [
        (2.0, 2.0, 1),        # p at the open upper endpoint
        (0.9, 3.0, 1),        # p below 1
        (1.0, 2.0, 1),        # q at the open lower endpoint
        (1.2, 2.9, 1),        # q below the threshold
        (1.0, math.inf, 1),   # q must be finite
        (4.0 / 3.0, 50.0, 2),
        (1.3, 20.0, 2),
        (1.0, 3.0, 0),
    ])
    def test_inadmissible_pairs(self, p, q, d):
        with pytest.raises(AdmissibilityError):
            check_admissible(p, q, d)


class TestPhaseAlignment:
    def _pair(self, theta0, seed=0, n=12):
        rng = np.random.default_rng(seed)
        geom = box_geometry((n, n), -1.0, 1.0)
        v1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        F1 = PhaseSpaceGrid(geom, v1)
        F2 = PhaseSpaceGrid(geom, np.exp(1j * theta0) * v1)
        return F1, F2

    @pytest.mark.parametrize("p", [2.0, 1.5, 1.0])
    @pytest.mark.parametrize("theta0", [0.0, 1.0, np.pi, 5.5])
    def test_recovers_exact_phase(self, p, theta0):
        F1, F2 = self._pair(theta0)
        res = align_phase_global(F1, F2, p)
        assert abs(res.theta_star - theta0) < 1e-7
        scale = float(np.max(np.abs(F1.values)))
        assert res.residual < 1e-7 * scale

    def test_closed_form_and_search_agree(self):
        rng = np.random.default_rng(42)
        geom = box_geometry((10, 10), -1.0, 1.0)
        F1 = PhaseSpaceGrid(geom, rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
        F2 = PhaseSpaceGrid(geom, rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
        closed = align_phase_global(F1, F2, 2.0)
        search = align_phase_global(F1, F2, 2.0, force_search=True)
        assert closed.method == "closed-form"
        assert search.method == "search"
        assert abs(closed.residual - search.residual) < 1e-8 * closed.residual

    def test_search_matches_dense_scan(self):
        # independent oracle: |u - e^{i t} v|^p summed over a dense theta grid
        rng = np.random.default_rng(3)
        geom = box_geometry((8, 8), -1.0, 1.0)
        v1 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        v2 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        F1 = PhaseSpaceGrid(geom, v1)
        F2 = PhaseSpaceGrid(geom, v2)
        p = 1.5
        got = align_phase_global(F1, F2, p)
        thetas = 2.0 * np.pi * np.arange(100001) / 100001
        diffs = np.abs(v2.reshape(-1, 1) - np.exp(1j * thetas) * v1.reshape(-1, 1))
        sums = np.sum(diffs ** p, axis=0) * geom.cell_volume
        scan_min = float(np.min(sums) ** (1.0 / p))
        assert got.residual <= scan_min + 1e-9
        assert abs(got.residual - scan_min) < 1e-6

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_brent_refinement_matches_million_point_scan(self, p):
        rng = np.random.default_rng(11)
        geom = box_geometry((8, 8), -1.0, 1.0)
        v1 = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))).ravel()
        v2 = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))).ravel()
        got = align_phase_global(PhaseSpaceGrid(geom, v1.reshape(8, 8)),
                                 PhaseSpaceGrid(geom, v2.reshape(8, 8)), p)
        thetas = 2.0 * np.pi * np.arange(10 ** 6) / 10 ** 6
        sums = np.concatenate([
            np.sum(np.abs(v2[:, None] - np.exp(1j * chunk) * v1[:, None]) ** p, axis=0)
            for chunk in np.split(thetas, 20)]) * geom.cell_volume
        best = int(np.argmin(sums))
        scan_min = float(sums[best] ** (1.0 / p))
        assert got.residual <= scan_min + 1e-8
        gap = abs(got.theta_star - thetas[best])
        assert min(gap, 2.0 * np.pi - gap) <= 2.0 * np.pi / 10 ** 6
        assert got.method == "search"
        assert COARSE_SCAN_POINTS < got.evaluations <= COARSE_SCAN_POINTS + 25

    def test_minimum_on_a_scan_point_is_returned_exactly(self):
        # F2 = -F1: the minimum sits on the scan point theta = pi, where the
        # objective has a corner; the search returns that point itself.
        F1, F2, _ = self._random_pair()
        res = align_phase_global(F1, PhaseSpaceGrid(F1.geometry, -F1.values), 1.0)
        assert res.theta_star == math.pi
        assert res.residual < 1e-14

    def test_closed_form_makes_no_objective_calls(self):
        F1, F2 = self._pair(1.0)
        assert align_phase_global(F1, F2, 2.0).evaluations == 0

    def _random_pair(self, shape=(31, 37), seed=7):
        # more than 128 cells, so numpy's pairwise summation splits the sum
        rng = np.random.default_rng(seed)
        geom = box_geometry(shape, -1.0, 1.0)
        v1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return PhaseSpaceGrid(geom, v1), PhaseSpaceGrid(geom, v2), rng

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_search_residual_is_full_grid_formula_bit_for_bit(self, p, masked):
        F1, F2, rng = self._random_pair()
        mask = rng.random(F1.geometry.extents) < 0.4 if masked else None
        got = align_phase_global(F1, F2, p, mask)
        mag = np.abs(F2.values - np.exp(1j * got.theta_star) * F1.values)
        if mask is not None:
            mag = mag[mask]
        reference = float(np.sum(mag ** p) * F1.geometry.cell_volume) ** (1.0 / p)
        assert got.residual == reference

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_full_mask_equals_no_mask_bit_for_bit(self, p):
        F1, F2, _ = self._random_pair()
        full = align_phase_global(F1, F2, p, np.ones(F1.geometry.extents, bool))
        none = align_phase_global(F1, F2, p)
        assert (full.residual, full.theta_star) == (none.residual, none.theta_star)

    def test_zero_inner_product_defaults_to_unit_factor(self):
        geom = box_geometry((2, 2), 0.0, 1.0)
        F1 = PhaseSpaceGrid(geom, np.array([[1.0, 0.0], [0.0, 0.0]]))
        F2 = PhaseSpaceGrid(geom, np.array([[0.0, 1.0], [0.0, 0.0]]))
        res = align_phase_global(F1, F2, 2.0)
        assert res.theta_star == 0.0

    def test_theta_stays_in_principal_range(self):
        for theta0 in (-1e-9, 2.0 * np.pi - 1e-12, 7.0):
            F1, F2 = self._pair(theta0)
            res = align_phase_global(F1, F2, 2.0)
            assert 0.0 <= res.theta_star < 2.0 * np.pi

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_a_partition_is_not_a_mask(self, p):
        # Callers pass partition.active; the partition itself is refused,
        # not read as one cell.
        F1, F2, _ = self._random_pair()
        partition = DomainPartition.split_along_axis(F1.geometry, 0, 0.0)
        with pytest.raises(ValueError, match="mask shape"):
            align_phase_global(F1, F2, p, partition)
        assert (align_phase_global(F1, F2, p, partition.active)
                == align_phase_global(F1, F2, p))

    def test_mask_restricts_comparison(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        v1 = np.ones((4, 4), complex)
        v2 = np.ones((4, 4), complex)
        v2[2:, :] = 17.0  # differs only outside the mask
        mask = np.zeros((4, 4), bool)
        mask[:2, :] = True
        res = align_phase_global(PhaseSpaceGrid(geom, v1), PhaseSpaceGrid(geom, v2),
                                 2.0, mask=mask)
        assert res.residual == pytest.approx(0.0, abs=1e-14)

    def test_geometry_mismatch_rejected(self):
        F1 = PhaseSpaceGrid(box_geometry((4, 4), -1.0, 1.0), np.ones((4, 4)))
        F2 = PhaseSpaceGrid(box_geometry((4, 4), -2.0, 2.0), np.ones((4, 4)))
        with pytest.raises(ValueError):
            align_phase_global(F1, F2, 2.0)

    def test_p_below_one_rejected(self):
        F1, F2 = self._pair(0.5)
        with pytest.raises(AdmissibilityError):
            align_phase_global(F1, F2, 0.5)


class TestCertifiedScan:
    CASES = {
        "random": lambda seed: random_pair(seed, (31, 37)),
        "heavy-tailed": heavy_tailed_pair,
        "half-flipped": half_flipped_pair,
        "tiny": lambda seed: random_pair(seed, (2, 3)),
    }

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_the_full_scan(self, case, seed, p, masked):
        F1, F2 = self.CASES[case](seed)
        mask = random_mask(F1.geometry.extents, seed) if masked else None
        assert align_phase_global(F1, F2, p, mask) == full_scan_alignment(F1, F2, p, mask)

    @pytest.mark.parametrize("p,ties", [(1.0, (0, 32)), (1.5, (0, 32)), (3.0, (16, 48))])
    def test_half_flipped_candidates_tie_and_are_both_evaluated(self, p, ties):
        # J(theta) = S (|2 sin(theta/2)|^p + |2 cos(theta/2)|^p): least at
        # 0 and pi for p < 2, at pi/2 and 3 pi/2 for p > 2.
        F1, F2 = half_flipped_pair(0)
        coarse, _ = counted_scan(F1, F2, p)
        assert np.flatnonzero(np.isfinite(coarse)).tolist() == list(ties)
        first, second = coarse[list(ties)]
        assert abs(first - second) <= 8.0 * np.finfo(float).eps * first

    def test_heavy_tailed_amplitudes_leave_several_candidates(self):
        F1, F2 = heavy_tailed_pair(0)
        amp = np.abs(F1.values) + np.abs(F2.values)
        assert np.mean(amp < SCAN_HEAVY_LEVEL * amp.max()) > 0.25
        coarse, sizes = counted_scan(F1, F2, 1.0)
        assert 2 <= np.isfinite(coarse).sum() < COARSE_SCAN_POINTS
        assert sizes.count(F1.values.size) == np.isfinite(coarse).sum()

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_bound_counts_both_fields_as_heavy(self, p):
        # F2 = e^{0.3i} F1 on the left bump plus a bump of its own on the
        # right, where F1 is ~1e-70.  Both bumps are heavy, the light cells
        # carry almost nothing, and only the angles next to 0.3 survive.
        geom = box_geometry((48, 64), -4.0, 4.0)
        F1 = PhaseSpaceGrid(geom, np.exp(-np.pi * geom.distance_sq((-2.0, 0.0))) + 0j)
        right = np.exp(-np.pi * geom.distance_sq((2.0, 0.0)))
        F2 = PhaseSpaceGrid(geom, np.exp(0.3j) * F1.values + right)
        coarse, sizes = counted_scan(F1, F2, p)
        assert sizes.count(F1.values.size) == np.isfinite(coarse).sum() <= 3
        assert int(np.argmin(coarse)) == 3  # 3 * 2 pi / 64 = 0.29
        assert align_phase_global(F1, F2, p) == full_scan_alignment(F1, F2, p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_all_heavy_grid_is_scanned_once(self, p):
        F1, F2 = random_pair(1, (2, 3))
        coarse, sizes = counted_scan(F1, F2, p)
        assert sizes == [6] * COARSE_SCAN_POINTS
        assert np.isfinite(coarse).all()

    def test_empty_omega_returns_zero_without_evaluations(self):
        F1, F2 = random_pair(2, (6, 7))
        res = align_phase_global(F1, F2, 1.5, np.zeros((6, 7), bool))
        assert res == PhaseAlignment(theta_star=0.0, residual=0.0, method="search",
                                     evaluations=0)

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_nan_cell_gives_nan_at_zero(self, p):
        F1, F2 = random_pair(3, (6, 7))
        F1.values[2, 3] = np.nan
        res = align_phase_global(F1, F2, p)
        want = full_scan_alignment(F1, F2, p)
        assert res.theta_star == want.theta_star == 0.0
        assert math.isnan(res.residual) and math.isnan(want.residual)
        assert res.evaluations == want.evaluations


class TestMulticomponent:
    def test_single_component_equals_global(self):
        rng = np.random.default_rng(1)
        geom = box_geometry((8, 8), -1.0, 1.0)
        F1 = PhaseSpaceGrid(geom, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        F2 = PhaseSpaceGrid(geom, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        part = DomainPartition(geom, np.ones((8, 8), np.int64))
        multi = align_phase_multicomponent(F1, F2, 2.0, part)
        single = align_phase_global(F1, F2, 2.0, mask=np.ones((8, 8), bool))
        assert len(multi.alignments) == 1
        assert multi.total_residual == pytest.approx(single.residual, abs=1e-14)

    def test_opposite_signs_resolved_componentwise(self):
        rng = np.random.default_rng(2)
        geom = box_geometry((8, 8), -1.0, 1.0)
        v1 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        v2 = v1.copy()
        v2[4:, :] *= -1.0  # e^{i pi} on the right half
        part = DomainPartition.split_along_axis(geom, axis=0, threshold=0.0)
        multi = align_phase_multicomponent(PhaseSpaceGrid(geom, v1),
                                           PhaseSpaceGrid(geom, v2), 2.0, part)
        thetas = [a.theta_star for a in multi.alignments]
        assert thetas[0] == pytest.approx(0.0, abs=1e-12)
        assert thetas[1] == pytest.approx(np.pi, abs=1e-12)
        assert multi.total_residual < 1e-12

    def test_empty_component_rejected(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        labels = np.zeros((4, 4), np.int64)
        labels[0, 0] = 1
        labels[3, 3] = 3  # component 2 is empty
        part = DomainPartition(geom, labels)
        F = PhaseSpaceGrid(geom, np.ones((4, 4)))
        with pytest.raises(ValueError, match="empty"):
            align_phase_multicomponent(F, F, 2.0, part)

    def test_shape_mismatch_rejected(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        other = box_geometry((6, 6), -1.0, 1.0)
        part = DomainPartition(other, np.ones((6, 6), np.int64))
        F = PhaseSpaceGrid(geom, np.ones((4, 4)))
        with pytest.raises(ValueError):
            align_phase_multicomponent(F, F, 2.0, part)

    def test_partition_on_another_grid_with_the_same_extents_rejected(self):
        # Refused, not applied by index to another box.
        geom = box_geometry((4, 4), -1.0, 1.0)
        part = DomainPartition.split_along_axis(box_geometry((4, 4), -2.0, 2.0), 0, 0.0)
        F = PhaseSpaceGrid(geom, np.ones((4, 4)))
        with pytest.raises(ValueError, match="partition must live on the phase-space grid"):
            align_phase_multicomponent(F, F, 2.0, part)


class TestPackedAlignment:
    """A PackedField pair aligns exactly as the full grids it was packed from."""

    @staticmethod
    def _case(seed, shape=(40, 45)):
        """A pair, a random Omega and a three-component partition that reaches outside it."""
        F1, F2 = (heavy_tailed_pair if seed % 2 == 0 else random_pair)(seed, shape)
        rng = np.random.default_rng(seed + 100)
        omega = rng.random(shape) < 0.5
        labels = rng.integers(1, 4, shape) * (rng.random(shape) < 0.4)
        labels[0, :3] = [1, 2, 3]
        part = DomainPartition(F1.geometry, labels)
        assert np.any(part.active & ~omega)
        return F1, F2, omega, part

    @staticmethod
    def _packed(F1, F2, mask):
        return packed_field(F1, mask), packed_field(F2, mask)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p, force", [(1.0, False), (1.5, False), (2.0, False),
                                          (2.0, True)])
    def test_packed_pair_equals_full_grids(self, seed, p, force):
        F1, F2, omega, part = self._case(seed)
        P1, P2 = self._packed(F1, F2, omega)
        assert (align_phase_global(P1, P2, p, force_search=force)
                == align_phase_global(F1, F2, p, mask=omega, force_search=force))
        keep = omega | part.active
        Q1, Q2 = self._packed(F1, F2, keep)
        for mask in (None, omega, part.active, part.component(2)):
            full_mask = keep if mask is None else mask
            assert (align_phase_global(Q1, Q2, p, mask=mask, force_search=force)
                    == align_phase_global(F1, F2, p, mask=full_mask, force_search=force))
        assert (align_phase_multicomponent(Q1, Q2, p, part)
                == align_phase_multicomponent(F1, F2, p, part))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_mask_none_holds_every_cell(self, p):
        F1, F2 = heavy_tailed_pair(0)
        P1, P2 = (PackedField(F.geometry, None, F.values.ravel()) for F in (F1, F2))
        assert align_phase_global(P1, P2, p) == align_phase_global(F1, F2, p)
        mask = np.ones(F1.geometry.extents, bool)
        assert align_phase_global(P1, P2, p, mask=mask) == align_phase_global(F1, F2, p)

    def test_mask_outside_the_held_cells_rejected(self):
        F1, F2, omega, part = self._case(0)
        P1, P2 = self._packed(F1, F2, omega)
        with pytest.raises(ValueError, match="does not hold"):
            align_phase_global(P1, P2, 1.0, mask=part.active)
        with pytest.raises(ValueError, match="does not hold"):
            align_phase_multicomponent(P1, P2, 2.0, part)

    def test_pair_must_hold_the_same_cells(self):
        F1, F2, omega, part = self._case(1)
        with pytest.raises(ValueError, match="same cells"):
            align_phase_global(packed_field(F1, omega),
                               packed_field(F2, omega | part.active), 1.0)
        with pytest.raises(ValueError, match="same cells"):
            align_phase_global(packed_field(F1, omega), F2, 2.0, mask=omega)


class TestNormTerms:
    # closed forms for the centered Gaussian spectrogram 2^{-1/2} e^{-pi r^2 / 2}

    @staticmethod
    def value_exact(p):
        return 2.0 ** -0.5 * (2.0 / p) ** (1.0 / p)

    @staticmethod
    def grad_exact(p):
        return (2.0 ** (-p / 2.0) * np.pi ** p * np.pi * math.gamma(p / 2.0 + 1.0)
                * (2.0 / (p * np.pi)) ** (p / 2.0 + 1.0)) ** (1.0 / p)

    @pytest.mark.parametrize("p", [1.0, 1.3, 2.0])
    def test_sobolev_pieces_against_closed_forms(self, p):
        S1 = spectrogram(gaussian_field())
        s1, s0, cells = on_cells(S1, zero_spectrogram_like(S1))
        value, grad = sobolev_diff_pieces(s1, s0, p, cells)
        assert value == pytest.approx(self.value_exact(p), rel=1e-10)
        assert grad == pytest.approx(self.grad_exact(p), rel=5e-3)
        assert sobolev_diff_norm(s1, s0, p, cells) == pytest.approx(value + grad)

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("p", [1.0, 1.5, 5.0])
    def test_value_piece_is_full_grid_formula_bit_for_bit(self, p, masked):
        # 61 x 67 cells, so numpy's pairwise summation splits the sum
        rng = np.random.default_rng(11)
        geom = box_geometry((61, 67), -1.0, 1.0)
        S1, S2 = (spectrogram(PhaseSpaceGrid(geom, rng.standard_normal(geom.extents)
                                             + 1j * rng.standard_normal(geom.extents)))
                  for _ in range(2))
        mask = rng.random(geom.extents) < 0.4 if masked else None
        s1, s2, cells = on_cells(S1, S2, mask)
        value, _ = sobolev_diff_pieces(s1, s2, p, cells)
        mag = np.abs(S1.values - S2.values)
        if mask is not None:
            mag = mag[mask]
        assert value == float(np.sum(mag ** p) * geom.cell_volume) ** (1.0 / p)

    # The norm terms evaluate on the packed mask cells; each must equal its
    # full-grid formula (differentiate, weight and mask the whole grid) bit
    # for bit.  61 x 67 cells, so numpy's pairwise summation splits the sums.

    @staticmethod
    def full_grid_lp(values, geom, p, mask):
        mag = np.abs(values)
        if mask is not None:
            mag = mag[mask]
        return float(np.sum(mag ** p) * geom.cell_volume) ** (1.0 / p)

    @staticmethod
    def full_grid_gradient_norm(values, geom, mask):
        """|grad| of the stencil on the cells of mask (all for None), 0 elsewhere."""
        cells = fdiff.MaskCells(geom, mask)
        out = np.zeros(geom.extents)
        np.put(out, cells.flat_index, fdiff.gradient_norm(cells.derivatives(cells.pack(values))))
        return out

    @staticmethod
    def random_case(masked, seed=11):
        rng = np.random.default_rng(seed)
        geom = box_geometry((61, 67), -1.0, 1.0)
        S1, S2 = (spectrogram(PhaseSpaceGrid(geom, rng.standard_normal(geom.extents)
                                             + 1j * rng.standard_normal(geom.extents)))
                  for _ in range(2))
        mask = rng.random(geom.extents) < 0.4 if masked else None
        return geom, S1, S2, mask

    @staticmethod
    def full_grid_weight(geom, z0):
        r2 = np.zeros(geom.extents)
        for c, z in zip(geom.coordinate_arrays(), z0):
            r2 = r2 + (c - z) ** 2
        return 1.0 + r2 ** (geom.rank // 2 + 1)

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_gradient_piece_is_full_grid_formula_bit_for_bit(self, p, masked):
        geom, S1, S2, mask = self.random_case(masked)
        s1, s2, cells = on_cells(S1, S2, mask)
        _, grad = sobolev_diff_pieces(s1, s2, p, cells)
        full = self.full_grid_gradient_norm(S1.values - S2.values, geom, mask)
        assert grad == self.full_grid_lp(full, geom, p, mask)

    # Each shape-weight term is also taken in blocks of 7 cells, whose seams
    # fall inside rows, before anything else computes the same weights: a
    # freed array of them could otherwise fill a cell the blocks miss.

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("q", [1.0, 3.5])
    def test_weighted_norm_is_full_grid_formula_bit_for_bit(self, monkeypatch, q, masked):
        geom, S1, S2, mask = self.random_case(masked)
        s1, s2, cells = on_cells(S1, S2, mask)
        z0 = (0.25, -0.5)
        with monkeypatch.context() as m:
            m.setattr(fdiff, "STENCIL_BLOCK", 7)
            blocked = weighted_lq_diff_norm(s1, s2, q, z0, cells)
        got = weighted_lq_diff_norm(s1, s2, q, z0, cells)
        weight = self.full_grid_weight(geom, z0)
        assert got == blocked == self.full_grid_lp(weight * (S1.values - S2.values), geom, q, mask)

    def logderiv_full_grid(self, S1, S2, p, base):
        """logderiv_term by its full-grid formula on the cells of base, with
        the exclusion level taken from the maximum of S1 over those cells."""
        geom = S1.geometry
        included = base & (S1.values > 1e-12 * S1.values[base].max())
        grad = self.full_grid_gradient_norm(S1.values, geom, included)
        field = np.zeros(geom.extents)
        field[included] = (grad[included] / S1.values[included]
                           * (S1.values - S2.values)[included])
        excluded = float(S1.values[base & ~included].sum()) / float(S1.values[base].sum())
        return self.full_grid_lp(field, geom, p, included), excluded, included

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_logderiv_is_full_grid_formula_bit_for_bit(self, monkeypatch, p, masked):
        geom, S1, S2, mask = self.random_case(masked)
        # push some cells below the exclusion threshold
        vals = S1.values.copy()
        vals[::7, ::5] = 1e-14 * vals.max()
        S1 = spectrogram(PhaseSpaceGrid(geom, vals))
        monkeypatch.setattr(fdiff, "STENCIL_BLOCK", 7)
        s1, s2, cells = on_cells(S1, S2, mask)
        got = logderiv_term(s1, s2, p, cells)
        base = np.ones(geom.extents, bool) if mask is None else mask
        value, excluded, included = self.logderiv_full_grid(S1, S2, p, base)
        assert 0 < included.sum() < base.sum()
        assert (got.value, got.excluded_mass_fraction) == (value, excluded)

    def test_logderiv_peak_is_the_maximum_over_the_cells(self):
        # The mask leaves out the global peak, 1e3 against moduli of order
        # one on the cells.  Cells at 1e-11 sit above 1e-12 of the maximum
        # over the cells and below 1e-12 of the global one: they are
        # included, and the term differs from one with the global peak.
        geom, S1, S2, mask = self.random_case(True)
        vals = S1.values.copy()
        vals[::7, ::5] = 1e-11
        vals.flat[np.flatnonzero(~mask)[0]] = 1e3
        S1 = spectrogram(PhaseSpaceGrid(geom, vals))
        s1, s2, cells = on_cells(S1, S2, mask)
        got = logderiv_term(s1, s2, 1.5, cells)
        value, excluded, included = self.logderiv_full_grid(S1, S2, 1.5, mask)
        assert (got.value, got.excluded_mass_fraction) == (value, excluded)
        assert np.array_equal(included, mask) and excluded == 0.0
        # The global peak would have left out the cells at 1e-11.
        global_rule = mask & (S1.values > 1e-12 * S1.values.max())
        assert 0 < global_rule.sum() < mask.sum()
        t1, t2, kept = on_cells(S1, S2, global_rule)
        assert logderiv_term(t1, t2, 1.5, kept).value != got.value

    @pytest.mark.parametrize("masked", [True, False])
    def test_dnorm_is_full_grid_formula_bit_for_bit(self, monkeypatch, masked):
        geom, S1, S2, mask = self.random_case(masked)
        field = S1.values - S2.values
        cells = fdiff.MaskCells(geom, mask)
        z0 = (-0.5, 0.125)
        with monkeypatch.context() as m:
            m.setattr(fdiff, "STENCIL_BLOCK", 7)
            blocked = dnorm(cells.pack(field), 1.2, 3.5, z0, cells)
        got = dnorm(cells.pack(field), 1.2, 3.5, z0, cells)
        grad = self.full_grid_gradient_norm(field, geom, mask)
        weight = self.full_grid_weight(geom, z0)
        assert got == blocked == (self.full_grid_lp(field, geom, 1.2, mask)
                                  + self.full_grid_lp(grad, geom, 1.2, mask)
                                  + self.full_grid_lp(weight * field, geom, 3.5, mask))

    def test_masked_dnorm_pinned(self):
        # The exact float64 value: the shape weight is shared with
        # weighted_lq_diff_norm, and no benchmark fingerprint covers dnorm.
        geom = box_geometry((33, 33), -2.0, 2.0)
        r2 = geom.distance_sq()
        x, y = geom.coordinate_arrays()
        field = np.exp(-r2) * (1.0 + 0.5 * np.cos(3.0 * x) * np.sin(2.0 * y))
        cells = fdiff.MaskCells(geom, r2 <= 2.5)
        assert dnorm(cells.pack(field), 1.2, 3.5, (0.25, -0.5), cells) == 8.919627322007907

    def test_shared_mask_cells_give_fresh_cells_results(self):
        # A report passes one MaskCells to every term, whose neighbor tables
        # are built on first use and kept.
        geom, S1, S2, mask = self.random_case(True)
        s1, s2, shared = on_cells(S1, S2, mask)
        z0 = (0.25, -0.5)
        terms = (lambda c: sobolev_diff_pieces(s1, s2, 1.5, c),
                 lambda c: weighted_lq_diff_norm(s1, s2, 3.5, z0, c),
                 lambda c: logderiv_term(s1, s2, 1.5, c),
                 lambda c: dnorm(s1 - s2, 1.2, 3.5, z0, c))
        for term in terms:
            assert term(shared) == term(fdiff.MaskCells(geom, mask))

    def test_sobolev_zero_for_identical_fields(self):
        S1 = spectrogram(gaussian_field(n=33))
        s1, _, cells = on_cells(S1, S1)
        assert sobolev_diff_norm(s1, s1, 1.5, cells) == 0.0

    def test_weighted_norm_against_moment_formula(self):
        # integral of (1 + r^4)^3 (2^{-1/2} e^{-pi r^2/2})^3 via Gaussian moments
        S1 = spectrogram(gaussian_field(n=257, half=8.0))
        s1, s0, cells = on_cells(S1, zero_spectrogram_like(S1))
        got = weighted_lq_diff_norm(s1, s0, 3.0, (0.0, 0.0), cells)
        a = 3.0 * np.pi / 2.0
        integral = 2.0 ** -1.5 * np.pi * (
            1.0 / a + 3.0 * math.factorial(2) / a ** 3
            + 3.0 * math.factorial(4) / a ** 5 + math.factorial(6) / a ** 7)
        assert got == pytest.approx(integral ** (1.0 / 3.0), rel=1e-10)

    def test_weighted_norm_rejects_q_below_one(self):
        S1 = spectrogram(gaussian_field(n=33))
        s1, s0, cells = on_cells(S1, zero_spectrogram_like(S1))
        with pytest.raises(AdmissibilityError):
            weighted_lq_diff_norm(s1, s0, 0.5, (0.0, 0.0), cells)

    def test_weighted_norm_z0_shape_checked(self):
        S1 = spectrogram(gaussian_field(n=33))
        s1, _, cells = on_cells(S1, S1)
        with pytest.raises(ValueError):
            weighted_lq_diff_norm(s1, s1, 3.0, (0.0,), cells)

    def test_logderiv_gaussian_equals_gradient_piece(self):
        # with S2 = 0 the quotient collapses: (grad S / S) (S - 0) = |grad S|
        S1 = spectrogram(gaussian_field())
        s1, s0, cells = on_cells(S1, zero_spectrogram_like(S1))
        for p in (1.0, 2.0):
            term = logderiv_term(s1, s0, p, cells)
            assert term.value == pytest.approx(self.grad_exact(p), rel=5e-3)
            assert 0.0 < term.excluded_mass_fraction < 1e-10

    def test_logderiv_zero_reference_rejected(self):
        S1 = spectrogram(gaussian_field(n=33))
        s0, s1, cells = on_cells(zero_spectrogram_like(S1), S1)
        with pytest.raises(ValueError, match="identically zero"):
            logderiv_term(s0, s1, 1.0, cells)

    def test_packed_values_need_their_cells(self):
        # Values of another length, a full grid among them, are refused.
        geom, S1, S2, mask = self.random_case(True)
        s1, s2, cells = on_cells(S1, S2, mask)
        z0 = (0.0, 0.0)
        terms = (lambda a, b: sobolev_diff_pieces(a, b, 1.0, cells),
                 lambda a, b: sobolev_diff_norm(a, b, 1.0, cells),
                 lambda a, b: weighted_lq_diff_norm(a, b, 3.0, z0, cells),
                 lambda a, b: logderiv_term(a, b, 1.0, cells),
                 lambda a, b: dnorm(a - b, 1.2, 3.5, z0, cells))
        for term in terms:
            for a, b in ((s1[:-1], s2[:-1]), (S1.values, S2.values)):
                with pytest.raises(ValueError, match="value array shape"):
                    term(a, b)
        with pytest.raises(ValueError, match="value array shape"):
            sobolev_diff_pieces(s1, s2[:-1], 1.0, cells)

    def test_dnorm_homogeneity_and_gate(self):
        rng = np.random.default_rng(8)
        cells = fdiff.MaskCells(box_geometry((16, 16), -2.0, 2.0))
        field = cells.pack(rng.standard_normal((16, 16)))
        base = dnorm(field, 1.2, 3.5, (0.0, 0.0), cells)
        scaled = dnorm(4.0 * field, 1.2, 3.5, (0.0, 0.0), cells)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)
        with pytest.raises(AdmissibilityError):
            dnorm(field, 2.0, 3.0, (0.0, 0.0), cells)
        with pytest.raises(ValueError):
            dnorm(field[:8], 1.2, 3.5, (0.0, 0.0), cells)


class TestNoise:
    def test_gaussian_bump_peak(self):
        geom = box_geometry((33, 33), -2.0, 2.0)
        noise = noise_gaussian_bump(geom, amplitude=0.03, width=0.5, center=(0.5, -0.5))
        assert noise.values.max() == pytest.approx(0.03)
        idx = np.unravel_index(np.argmax(noise.values), noise.values.shape)
        assert geom.index_coordinates(idx) == (0.5, -0.5)

    def test_gaussian_bump_rejects_bad_width(self):
        geom = box_geometry((9, 9), -1.0, 1.0)
        with pytest.raises(ValueError):
            noise_gaussian_bump(geom, 0.1, 0.0)

    def test_band_limited_is_seed_deterministic(self):
        geom = box_geometry((32, 32), -2.0, 2.0)
        n1 = noise_band_limited(geom, 0.01, cutoff=4, seed=123)
        n2 = noise_band_limited(geom, 0.01, cutoff=4, seed=123)
        n3 = noise_band_limited(geom, 0.01, cutoff=4, seed=124)
        assert np.array_equal(n1.values, n2.values)
        assert not np.array_equal(n1.values, n3.values)

    def test_band_limited_peak_and_cutoff(self):
        geom = box_geometry((32, 32), -2.0, 2.0)
        noise = noise_band_limited(geom, 0.05, cutoff=4, seed=7)
        assert np.abs(noise.values).max() == pytest.approx(0.05)
        spec = np.fft.fftn(noise.values)
        freq = np.abs(np.fft.fftfreq(32) * 32)
        high = freq > 4
        assert np.max(np.abs(spec[high, :])) < 1e-12 * np.max(np.abs(spec))
        assert np.max(np.abs(spec[:, high])) < 1e-12 * np.max(np.abs(spec))

    def test_band_limited_rejects_bad_cutoff(self):
        geom = box_geometry((9, 9), -1.0, 1.0)
        with pytest.raises(ValueError):
            noise_band_limited(geom, 0.1, cutoff=0, seed=1)

    def test_noise_spec_validation(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        with pytest.raises(ValueError):
            NoiseSpec(values=np.full((4, 4), np.nan), geometry=geom)
        with pytest.raises(ValueError):
            NoiseSpec(values=np.ones((3, 3)), geometry=geom)


class TestInstabilityPair:
    def test_pair_is_sum_and_difference(self):
        geom = box_geometry((513,), -8.0, 8.0)
        f_plus, f_minus = make_instability_pair(1, 6.0, geom)
        plus = make_analytic(two_bump_spec((-3.0,), (0.0,), (3.0,), (0.0,), sign=+1), geom)
        minus = make_analytic(two_bump_spec((-3.0,), (0.0,), (3.0,), (0.0,), sign=-1), geom)
        assert np.array_equal(f_plus.values, plus.values)
        assert np.array_equal(f_minus.values, minus.values)

    def test_grid_too_small_rejected(self):
        geom = box_geometry((513,), -8.0, 8.0)
        with pytest.raises(ValueError, match="boundary"):
            make_instability_pair(1, 12.0, geom)

    def test_bad_arguments(self):
        geom = box_geometry((65,), -8.0, 8.0)
        with pytest.raises(ValueError):
            make_instability_pair(1, 0.0, geom)
        with pytest.raises(ValueError):
            make_instability_pair(2, 4.0, geom)

    def test_separated_pair_spectrogram_gap(self):
        # at T = 6 the spectrograms of f_plus and f_minus are numerically
        # indistinguishable at the 1e-10 scale in the squared modulus
        pg = sweep_phase_geometry(6.0)
        plus = analytic_gabor_transform(
            two_bump_spec((-3.0,), (0.0,), (3.0,), (0.0,), sign=+1), pg)
        minus = analytic_gabor_transform(
            two_bump_spec((-3.0,), (0.0,), (3.0,), (0.0,), sign=-1), pg)
        gap_sq = np.max(np.abs(np.abs(plus.values) ** 2 - np.abs(minus.values) ** 2))
        assert gap_sq == pytest.approx(2.0 * np.exp(-np.pi * 9.0), rel=1e-6)
        assert gap_sq < 1e-10
        # while the aligned L^2 distance is the parallelogram constant sqrt 2
        mask = np.abs(plus.values) >= 1e-9 * np.abs(plus.values).max()
        res = align_phase_global(plus, minus, 2.0, mask=mask)
        assert res.residual == pytest.approx(math.sqrt(2.0), rel=1e-9)


class TestCheegerRoute:
    def _fields(self):
        geom = box_geometry((65, 65), -4.0, 4.0)
        F1 = analytic_gabor_transform(gaussian_spec(1), geom)
        v2 = F1.values * (1.0 + 0.01 * np.exp(-((geom.coordinate_arrays()[0]) ** 2)))
        F2 = PhaseSpaceGrid(geom, v2)
        mask = np.abs(F1.values) >= 1e-9 * np.abs(F1.values).max()
        return F1, F2, mask

    def test_rhs_assembly(self):
        F1, F2, mask = self._fields()
        chk = cheeger_route_terms(F1, F2, 1.0, mask, h=1.4)
        expected = chk.value_term + 2.0 ** 4.5 / 1.4 * (chk.gradient_term + chk.logderiv.value)
        assert chk.rhs == pytest.approx(expected, rel=1e-15)
        assert chk.h == 1.4
        assert chk.slack == pytest.approx(chk.lhs / chk.rhs)

    def test_h_zero_gives_infinite_rhs(self):
        F1, F2, mask = self._fields()
        chk = cheeger_route_terms(F1, F2, 1.0, mask, h=0.0)
        assert math.isinf(chk.rhs)
        assert chk.slack == 0.0 if chk.lhs == 0 else chk.slack == pytest.approx(0.0)

    def test_p_range_gate(self):
        F1, F2, mask = self._fields()
        with pytest.raises(AdmissibilityError):
            cheeger_route_terms(F1, F2, 2.5, mask, h=1.0)
        with pytest.raises(ValueError):
            cheeger_route_terms(F1, F2, 1.5, mask, h=-1.0)


@pytest.fixture(scope="module")
def report():
    geom = box_geometry((449,), -7.0, 7.0)
    f, g = make_instability_pair(1, 4.0, geom)
    pg = sweep_phase_geometry(4.0)
    part = DomainPartition.split_along_axis(pg, axis=0, threshold=0.0)
    noise = noise_gaussian_bump(pg, amplitude=0.001, width=1.0)
    return stability_report(f, g, p=1.0, q=3.0, partition=part, noise=noise,
                            phase_geometry=pg)


class TestStabilityReport:

    def test_term_consistency(self, report):
        assert report.sobolev_term == pytest.approx(
            report.value_term + report.gradient_term, rel=1e-14)
        assert report.ratio == pytest.approx(
            report.lhs / report.rhs_weighted_shape, rel=1e-14)
        # invert the shape factor: the h inside the report is h_upper here
        implied = 1.0 / (report.rhs_weighted_shape / (report.sobolev_term
                                                      + report.weighted_term) - 1.0)
        assert report.h_oracle is None
        assert implied == pytest.approx(report.h_upper, rel=1e-9)
        assert report.rhs_cheeger_route == pytest.approx(
            report.value_term + 2.0 ** 4.5 / report.h_upper
            * (report.gradient_term + report.logderiv_term), rel=1e-9)

    def test_geometry_and_peak_facts(self, report):
        assert report.d == 1
        assert not report.disconnected
        assert abs(report.z0[0]) == pytest.approx(2.0)
        assert report.z0[1] == 0.0
        assert report.lhs > 2.0  # two disjoint bumps stay far apart in L^1

    def test_multicomponent_rescue(self, report):
        assert len(report.component_residuals) == 2
        assert report.multicomponent_residual < 0.01 * report.lhs

    def test_noise_block(self, report):
        assert report.noise_epsilon > 0
        assert report.noise_gamma_dnorm > 0
        implied = 1.0 / (report.rhs_weighted_shape / (report.sobolev_term
                                                      + report.weighted_term) - 1.0)
        expected = (1.0 + 1.0 / implied) * (report.noise_epsilon + report.noise_gamma_dnorm)
        assert report.noise_bound == pytest.approx(expected, rel=1e-9)

    def test_to_dict_keys(self, report):
        out = report.to_dict()
        required = {"p", "q", "d", "lhs", "h_upper", "fiedler_value", "disconnected",
                    "z0", "value_term", "gradient_term", "sobolev_term",
                    "weighted_term", "logderiv_term", "logderiv_excluded_mass",
                    "rhs_cheeger_route", "rhs_weighted_shape", "ratio",
                    "component_residuals", "multicomponent_residual",
                    "noise_epsilon", "noise_gamma_dnorm", "noise_bound"}
        assert required <= set(out)

    def test_admissibility_gate_runs_first(self):
        geom = box_geometry((65,), -4.0, 4.0)
        f = make_analytic(gaussian_spec(1), geom)
        with pytest.raises(AdmissibilityError):
            stability_report(f, f, p=2.0, q=2.0)

    def test_d2_report_defaults_to_the_17_to_the_4_box(self):
        f, g, _, _ = _report_case(2)
        on_box = stability_report(f, g, 1.0, 5.0,
                                  phase_geometry=box_geometry((17,) * 4, -4.0, 4.0))
        assert stability_report(f, g, 1.0, 5.0).to_dict() == on_box.to_dict()

    def test_signal_geometry_mismatch(self):
        f = make_analytic(gaussian_spec(1), box_geometry((65,), -4.0, 4.0))
        g = make_analytic(gaussian_spec(1), box_geometry((65,), -5.0, 5.0))
        with pytest.raises(ValueError):
            stability_report(f, g, p=1.0, q=3.0)

    def test_zero_reference_rejected(self):
        from gaborstab.grids import SignalGrid

        geom = box_geometry((65,), -4.0, 4.0)
        zero = SignalGrid(geom, np.zeros(65))
        g = make_analytic(gaussian_spec(1), geom)
        with pytest.raises(ValueError, match="zero spectrogram"):
            stability_report(zero, g, p=1.0, q=3.0,
                             phase_geometry=box_geometry((33, 33), -2.0, 2.0))

    def test_noise_geometry_must_match(self):
        geom = box_geometry((129,), -4.0, 4.0)
        f = make_analytic(gaussian_spec(1), geom)
        noise = noise_gaussian_bump(box_geometry((33, 33), -2.0, 2.0), 0.01, 1.0)
        with pytest.raises(ValueError, match="noise"):
            stability_report(f, f, p=1.0, q=3.0, noise=noise)

    @pytest.mark.parametrize("bad", ["noise", "partition", "partition-same-extents",
                                     "empty-component", "coarsen"])
    def test_arguments_refused_before_any_transform(self, monkeypatch, bad):
        from gaborstab import stability

        calls = []
        transform = stability.gabor_transform

        def counting(*args, **kwargs):
            calls.append(args)
            return transform(*args, **kwargs)

        monkeypatch.setattr(stability, "gabor_transform", counting)
        f, g, pg, _ = _report_case(1)
        other = box_geometry((17, 17), -3.0, 3.0)
        # A split of a +-2 box at x = 1, applied by index, would cut this
        # +-3 box at x = 1.5.
        same_extents = box_geometry(pg.extents, -2.0, 2.0)
        arguments, message = {
            "noise": ({"noise": noise_gaussian_bump(other, 0.01, 1.0)}, "noise"),
            "partition": ({"partition": DomainPartition.split_along_axis(other, 0, 0.0)},
                          "partition must live on the phase-space grid"),
            "partition-same-extents": (
                {"partition": DomainPartition.split_along_axis(same_extents, 0, 1.0)},
                "partition must live on the phase-space grid"),
            # Labels 2 and 0 only: component 1 is empty.
            "empty-component": ({"partition": DomainPartition(pg, np.full(pg.extents, 2))},
                                "partition component 1 is empty"),
            "coarsen": ({"cheeger_coarsen": 0}, "coarsening factor"),
        }[bad]
        with pytest.raises(ValueError, match=message):
            stability_report(f, g, 1.0, 3.0, phase_geometry=pg, **arguments)
        assert calls == []


class TestStreamedReport:
    """A report streams both transforms in slabs; its every term equals a
    run on one whole slab, and the full-grid formulas, bit for bit."""

    @staticmethod
    def _case(d):
        """The instability pair with a partition and band-limited noise.  At
        d = 2 the phase grid has 15 x 15 = 225 rows of (x_1, y_1): in slabs of
        7 rows there are 31 seams, and the one-row tail (225 = 32 * 7 + 1)
        joins the last slab."""
        if d == 1:
            f, g, pg, part = _report_case(1)
        else:
            sg, pg = box_geometry((48, 48), -6.0, 5.75), box_geometry((15, 15, 9, 9), -4.0, 4.0)
            f, g = make_instability_pair(2, 2.0, sg)
            part = DomainPartition.split_along_axis(pg, axis=0, threshold=0.0)
        return f, g, pg, part, noise_band_limited(pg, 0.001, 3, seed=5)

    @pytest.mark.parametrize("d", [1, 2])
    def test_seven_row_slabs_equal_one_slab(self, monkeypatch, d):
        f, g, pg, part, noise = self._case(d)

        def report(rows):
            with monkeypatch.context() as m:
                m.setattr(gabor, "SLAB_ROWS", rows)
                return stability_report(f, g, 1.0, 3.0 if d == 1 else 5.0, partition=part,
                                        noise=noise, phase_geometry=pg).to_dict()

        whole = report(10 ** 6)
        assert report(7) == whole
        assert set(whole) >= {"multicomponent_residual", "noise_epsilon"}

    @pytest.mark.parametrize("d", [1, 2])
    def test_report_is_the_per_term_formula_bit_for_bit(self, d):
        # Every term from whole transforms and full-grid spectrograms, one
        # public function at a time.
        from gaborstab.cheeger import sweep_cut_cheeger, weight_from_spectrogram

        f, g, pg, part, noise = self._case(d)
        p, q = 1.0, 3.0 if d == 1 else 5.0
        report = stability_report(f, g, p, q, partition=part, noise=noise, phase_geometry=pg)
        F1, F2 = gabor_transform(f, pg), gabor_transform(g, pg)
        S1, S2 = spectrogram(F1), spectrogram(F2)
        omega = S1.values >= 1e-9 * float(S1.values.max())
        est = sweep_cut_cheeger(weight_from_spectrogram(S1, power=p).coarsen(2))
        multi = align_phase_multicomponent(F1, F2, p, part)
        s1, s2, cells = on_cells(S1, S2, omega)
        value, grad = sobolev_diff_pieces(s1, s2, p, cells)
        ld = logderiv_term(s1, s2, p, cells)
        z0 = S1.argmax_location
        gamma = dnorm(cells.pack(noise.values), p, q, z0, cells)
        assert report.lhs == align_phase_global(F1, F2, p, mask=omega).residual
        assert (report.h_upper, report.fiedler_value) == (est.h_upper, est.fiedler_value)
        assert report.component_residuals == tuple(a.residual for a in multi.alignments)
        assert (report.value_term, report.gradient_term) == (value, grad)
        assert (report.logderiv_term, report.logderiv_excluded_mass) == (
            ld.value, ld.excluded_mass_fraction)
        assert report.weighted_term == weighted_lq_diff_norm(s1, s2, q, z0, cells)
        assert report.noise_gamma_dnorm == gamma
        assert report.noise_epsilon == dnorm(cells.pack(S1.values + noise.values - S2.values),
                                             p, q, z0, cells)


def _in_pieces(values, cuts):
    """A transform call taking consume, as gabor_transform does, that hands
    values on in row-major pieces cut at the flat indices cuts."""
    return lambda consume: consume(iter(np.split(np.ravel(values), cuts)))


class TestStreamedWeight:
    """A report's Gf stage, _weight_and_superset, gives the coarse weight,
    z0 and Omega of the full-grid path
    weight_from_spectrogram(Spectrogram(pg, |F|), p).coarsen(k) bit for bit,
    and raises each of its errors, with its message, before Gg's transform."""

    @staticmethod
    def _reference(pg, modulus, p, k):
        from gaborstab.cheeger import weight_from_spectrogram

        S = Spectrogram(pg, modulus)
        fine = weight_from_spectrogram(S, power=p)
        return S.argmax_location, fine.mask, fine.coarsen(k)

    @staticmethod
    def _assert_same(got, want):
        (z0, omega, _, w, _), (z0_ref, omega_ref, w_ref) = got, want
        assert z0 == z0_ref
        assert np.array_equal(omega, omega_ref)
        assert w.geometry == w_ref.geometry
        assert np.array_equal(w.mask, w_ref.mask)
        assert w.values.tobytes() == w_ref.values.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.5])
    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_the_full_grid_weight(self, monkeypatch, d, p, k):
        # At d = 2, 13^4 cells: an axis-0 row is 169 rows of (x_1, y_1, x_2),
        # so slabs of 5 rows straddle the bands of k axis-0 rows, and k = 2
        # and 3 trim a trailing cell per axis.  A d = 1 transform is one slab.
        f, _, pg, part = _report_case(d)
        monkeypatch.setattr(gabor, "SLAB_ROWS", 5)
        F = gabor_transform(f, pg).values
        extra = part.active.ravel()
        got = gabor_transform(
            f, pg, consume=lambda slabs: _weight_and_superset(slabs, pg, p, k, extra))
        self._assert_same(got, self._reference(pg, np.abs(F), p, k))
        _, omega, held, _, pieces = got
        assert np.all(held >= (omega.ravel() | extra))
        assert np.array_equal(np.concatenate(pieces), F.ravel()[held])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pieces_cut_anywhere(self, k):
        # Pieces from 1 cell to more than a band of k axis-0 rows (210 cells
        # each), cut inside rows, inside bands, on a band's last cell and on
        # its seam.  One cell sits exactly on Omega's threshold.
        pg = box_geometry((8, 7, 6, 5), -2.0, 2.0)
        rng = np.random.default_rng(k)
        F = rng.standard_normal(pg.extents) + 1j * rng.standard_normal(pg.extents)
        F.flat[5] = 1e-9 * np.abs(F).max()
        band = 210 * k
        cuts = sorted({1, 3, 6, band - 1, band, band + 209, 2 * band - 1, 2 * band + 1})
        got = _in_pieces(F, cuts)(lambda slabs: _weight_and_superset(slabs, pg, 2.5, k, None))
        self._assert_same(got, self._reference(pg, np.abs(F), 2.5, k))

    def test_tied_peaks_in_two_slabs_give_the_first(self):
        # Two bumps whose peaks tie up to rounding, the later one 1e-13
        # higher, in slabs far apart: z0 is the first peak, as the
        # spectrogram's argmax rule gives it.
        pg = box_geometry((13,) * 4, -6.0, 6.0)
        x1, _, x2, _ = pg.coordinate_arrays()
        bump = lambda c, h: h * np.exp(-np.pi * ((x1 - c) ** 2 + x2 ** 2))
        modulus = np.broadcast_to(bump(-3.0, 1.0) + bump(3.0, 1.0 + 1e-13), pg.extents).copy()
        cuts = np.arange(208, pg.num_cells, 208)
        got = _in_pieces(modulus.astype(complex), cuts)(
            lambda slabs: _weight_and_superset(slabs, pg, 1.0, 2, None))
        want = self._reference(pg, modulus, 1.0, 2)
        self._assert_same(got, want)
        assert want[0][0] == pg.axis_coordinates(0)[np.argmin(abs(pg.axis_coordinates(0) + 3.0))]
        assert np.unravel_index(np.argmax(modulus), pg.extents)[0] > pg.extents[0] // 2

    @staticmethod
    def _bump(pg, height=1.0):
        coords = pg.coordinate_arrays()
        return height * np.exp(-np.pi * sum(c ** 2 for c in coords) / 4.0) + 0j

    @pytest.mark.parametrize("case", ["nan", "nan-in-zero", "zero", "inf", "power-overflow",
                                      "one-cell", "zero-mass", "too-small"])
    def test_every_check_raises_before_gg(self, case):
        pg = box_geometry((13,) * 4, -6.0, 6.0)
        F, p, k = self._bump(pg), 1.0, 2
        if case.startswith("nan"):
            if case == "nan-in-zero":  # NaN comes before the zero check
                F[...] = 0.0
            F.flat[pg.num_cells // 2 + 7] = np.nan
            message = "spectrogram has no maximum: it holds NaN"
        elif case == "zero":
            F = None
            message = "f has a zero spectrogram; the weight w = |Gf|^p is degenerate"
        elif case in ("inf", "power-overflow"):
            # In the last cell, which the coarse grid trims: only the fine
            # weight's check sees it, and it comes before the count of
            # active cells (here 1).
            F.flat[-1], p = (np.inf, p) if case == "inf" else (1e200, 2.5)
            message = "weights must be finite and nonnegative"
        elif case == "one-cell":
            F[...] = 0.0
            F.flat[pg.num_cells // 2] = 1.0
            message = "need at least 2 active cells"
        elif case == "zero-mass":
            # Two active cells in one block: the coarse grid alone would
            # refuse its single active cell instead.
            F[...] = 0.0
            F.flat[:2], p = 1e-150, 2.5
            message = "total active mass must be positive"
        else:
            k = 14
            message = "grid too small to coarsen by 14"
        gg = []
        if F is None:  # an all-zero f, through its transform
            zero = SignalGrid(box_geometry((24, 24), -6.0, 5.5), np.zeros((24, 24)))
            transform_f = functools.partial(gabor_transform, zero, pg)
        else:
            transform_f = _in_pieces(F, np.arange(208, pg.num_cells, 208))
        transforms = [transform_f, lambda consume: gg.append(consume)]
        with np.errstate(over="ignore"), pytest.raises(ValueError) as got:
            _assemble_terms(transforms, pg, p, 5.0, None, None, k)
        assert str(got.value) == message
        assert gg == []
        # The full-grid path raises the same error (the zero check is the report's).
        if F is not None:
            with np.errstate(over="ignore"), pytest.raises(ValueError, match=re.escape(message)):
                self._reference(pg, np.abs(F), p, k)


class TestInstabilitySweep:
    def test_sweep_monotonicity(self):
        rows = instability_sweep([2.0, 3.0])
        assert rows[0].h > rows[1].h
        assert rows[0].ratio < rows[1].ratio
        assert rows[0].lhs == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-2)

    def test_sweep_admissibility_gate(self):
        with pytest.raises(AdmissibilityError):
            instability_sweep([2.0], p=2.0, q=2.0)

    def test_sweep_row_is_the_per_term_formula_bit_for_bit(self):
        # The row read off the assembled report equals the terms computed
        # one by one: closed forms -> Omega -> alignment -> norm terms.
        from gaborstab.cheeger import sweep_cut_cheeger, weight_from_spectrogram

        T, spacing = 3.0, 1.0 / 8.0
        (row,) = instability_sweep([T], p=1.0, q=3.0, spacing=spacing)
        pg = sweep_phase_geometry(T, spacing)
        F1, F2 = (analytic_gabor_transform(
            two_bump_spec((-T / 2.0,), (0.0,), (T / 2.0,), (0.0,), sign=s), pg)
            for s in (+1, -1))
        S1, S2 = spectrogram(F1), spectrogram(F2)
        mask = S1.values >= 1e-9 * float(S1.values.max())
        lhs = align_phase_global(F1, F2, 1.0, mask=mask).residual
        h = sweep_cut_cheeger(weight_from_spectrogram(S1, power=1.0).coarsen(2)).h
        s1, s2, cells = on_cells(S1, S2, mask)
        sobolev = sobolev_diff_norm(s1, s2, 1.0, cells)
        weighted = weighted_lq_diff_norm(s1, s2, 3.0, S1.argmax_location, cells)
        assert (row.T, row.h, row.lhs, row.sobolev, row.weighted) == (
            T, h, lhs, sobolev, weighted)
        assert row.ratio == lhs / (sobolev + weighted)

    @pytest.mark.parametrize("spacing", [0.0, -0.125, math.nan])
    def test_sweep_rejects_a_nonpositive_spacing(self, spacing):
        with pytest.raises(ValueError, match="spacing must be positive"):
            instability_sweep([2.0], spacing=spacing)

    @pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan])
    def test_sweep_geometry_rejects_a_nonfinite_T(self, T):
        with pytest.raises(ValueError, match="must be finite"):
            sweep_phase_geometry(T)
        with pytest.raises(ValueError, match="must be finite"):
            instability_signal_geometry(T)

    @pytest.mark.parametrize("T", [1e5, 1e308])
    def test_sweep_geometry_over_the_cell_limit_rejected(self, T):
        with pytest.raises(ValueError, match=f"over the limit of {MAX_GRID_CELLS} cells"):
            sweep_phase_geometry(T)

    def test_sweep_sizes_every_grid_before_the_first_row(self, monkeypatch):
        from gaborstab import stability

        def unreachable(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(stability, "_assemble_terms", unreachable)
        with pytest.raises(ValueError, match="1600129 x 129 samples"):
            instability_sweep([2.0, 1e5])

    def test_signal_geometry_is_the_default_pair_box(self):
        sg = instability_signal_geometry(2.0)
        assert sg == box_geometry((int(round(12.0 * 32)) + 1,), -6.0, 6.0)
        with pytest.raises(ValueError, match="over the limit"):
            instability_signal_geometry(1e7)

    def test_pair_rejects_a_nonfinite_T(self):
        sg = box_geometry((65,), -8.0, 8.0)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                make_instability_pair(1, T, sg)

    def test_sweep_geometry_covers_bumps(self):
        pg = sweep_phase_geometry(6.0)
        assert pg.origin == (-7.0, -4.0)
        assert pg.axis_upper(0) == pytest.approx(7.0)
        assert pg.axis_upper(1) == pytest.approx(4.0)


def _largest_live_block() -> int:
    """Bytes of the largest traced block alive now that gaborstab code allocated."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*gaborstab*", all_frames=True)])
    return max((trace.size for trace in snapshot.traces), default=0)


@contextlib.contextmanager
def tracing():
    """tracemalloc on (with tracebacks deep enough for numpy's Python
    wrappers) for the block, and off after it unless it was on before."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start(16)
    try:
        yield
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _report_case(d):
    """The instability pair at T = 2, a phase grid on which Omega is a part of
    the cells, and a partition of two components on the low end of the last
    axis, with cells inside and outside Omega."""
    if d == 1:
        sg, pg = box_geometry((257,), -6.0, 6.0), box_geometry((33, 33), -3.0, 3.0)
    else:
        sg, pg = box_geometry((48, 48), -6.0, 5.75), box_geometry((13,) * 4, -6.0, 6.0)
    coords = pg.coordinate_arrays()
    lower = np.broadcast_to(coords[-1] < (-2.5 if d == 1 else -3.5), pg.extents)
    left = np.broadcast_to(coords[0] < 0.0, pg.extents)
    part = DomainPartition(pg, np.where(lower, np.where(left, 1, 2), 0))
    return make_instability_pair(d, 2.0, sg) + (pg, part)


class TestFieldLifetime:
    """A report holds no full complex phase grid and no full |Gf| or |Gg|:
    both transforms reach it slab by slab, and Gf's moduli go straight into
    the coarse Cheeger weight's block sums.  (A d = 1 transform, or a closed
    form, is one slab.)"""

    @staticmethod
    def _watch_transforms(monkeypatch, module, name):
        """Weak references to the values of every grid module.name returns."""
        refs = []
        transform = getattr(module, name)

        def recording(*args):
            F = transform(*args)
            refs.append(weakref.ref(F.values))
            return F

        monkeypatch.setattr(module, name, recording)
        return refs

    @staticmethod
    def _watch_slabs(monkeypatch, on_slab=None):
        """Per call of stability.gabor_transform, weak references to the slabs
        it hands to its consumer; on_slab(slab) runs as each is handed on."""
        from gaborstab import stability

        calls = []
        transform = stability.gabor_transform

        def watching(f, pg, *, consume):
            refs = []
            calls.append(refs)

            def watched(slabs):
                for slab in slabs:
                    refs.append(weakref.ref(slab))
                    if on_slab is not None:
                        on_slab(slab)
                    yield slab
                    del slab

            return transform(f, pg, consume=lambda slabs: consume(watched(slabs)))

        monkeypatch.setattr(stability, "gabor_transform", watching)
        return calls

    @staticmethod
    def _at(monkeypatch, name, record):
        """Run record() at the start of every call of stability.<name>."""
        from gaborstab import stability

        step = getattr(stability, name)

        def checking(*args, **kwargs):
            record()
            return step(*args, **kwargs)

        monkeypatch.setattr(stability, name, checking)

    @staticmethod
    def _slabs_alive(calls):
        """(transforms called, slabs still alive)."""
        return len(calls), sum(ref() is not None for refs in calls for ref in refs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_report_frees_both_transforms_before_the_norm_terms(self, monkeypatch, d):
        f, g, pg, part = _report_case(d)
        monkeypatch.setattr(gabor, "SLAB_ROWS", 16)
        calls = self._watch_slabs(monkeypatch)
        live = []
        self._at(monkeypatch, "sobolev_diff_pieces",
                 lambda: live.append(self._slabs_alive(calls)))
        report = stability_report(f, g, 1.0, 5.0 if d == 2 else 3.0, partition=part,
                                  phase_geometry=pg)
        assert live == [(2, 0)]
        # 169 rows of (x_1, y_1) at d = 2: ten slabs of 16 rows and one of 9.
        assert [len(refs) for refs in calls] == ([1, 1] if d == 1 else [11, 11])
        assert len(report.component_residuals) == 2

    def test_sweep_frees_both_transforms_of_each_row(self, monkeypatch):
        from gaborstab import signals

        refs = self._watch_transforms(monkeypatch, signals, "analytic_gabor_transform")
        live = []
        self._at(monkeypatch, "sobolev_diff_pieces",
                 lambda: live.append((len(refs), sum(r() is not None for r in refs))))
        instability_sweep([2.0, 3.0], spacing=1.0 / 8.0)
        assert live == [(2, 0), (4, 0)]

    @pytest.mark.parametrize("d", [1, 2])
    def test_report_holds_no_full_transform_in_the_solve_or_the_alignment(self, monkeypatch, d):
        f, g, pg, part = _report_case(d)
        monkeypatch.setattr(gabor, "SLAB_ROWS", 16)
        calls = self._watch_slabs(monkeypatch)
        solve, align = [], []
        self._at(monkeypatch, "sweep_cut_cheeger", lambda: solve.append(self._slabs_alive(calls)))
        self._at(monkeypatch, "align_phase_global", lambda: align.append(self._slabs_alive(calls)))
        stability_report(f, g, 1.0, 5.0 if d == 2 else 3.0, partition=part, phase_geometry=pg)
        assert solve == [(1, 0)]
        assert align == [(2, 0)] * 3

    def test_sweep_holds_no_full_transform_in_the_solve_or_the_alignment(self, monkeypatch):
        from gaborstab import signals

        refs = self._watch_transforms(monkeypatch, signals, "analytic_gabor_transform")
        solve, align = [], []

        def alive():
            return len(refs), sum(r() is not None for r in refs)

        self._at(monkeypatch, "sweep_cut_cheeger", lambda: solve.append(alive()))
        self._at(monkeypatch, "align_phase_global", lambda: align.append(alive()))
        instability_sweep([2.0, 3.0], spacing=1.0 / 8.0)
        assert solve == [(1, 0), (3, 0)]
        assert align == [(2, 0), (4, 0)]

    def test_report_allocates_no_full_complex_grid_and_no_full_gg(self, monkeypatch):
        # The largest live block gaborstab allocated, at every slab of both
        # transforms and at the start of the solve, the alignment and the
        # first norm term.  A full complex grid is 16 bytes per phase cell
        # and a full |Gf| or |Gg| 8; the packed fields stay under 8 because
        # Omega and the partition hold under half of the cells.
        f, g, pg, part = _report_case(2)
        n = pg.num_cells
        S = np.abs(gabor_transform(f, pg).values)
        keep = (S >= 1e-9 * S.max()) | part.active
        assert 0.0 < keep.mean() < 0.5
        del S
        monkeypatch.setattr(gabor, "SLAB_ROWS", 16)
        stages = []
        calls = self._watch_slabs(monkeypatch, lambda slab: stages.append(
            (f"slab of G{'fg'[len(calls) - 1]}", slab.size, _largest_live_block())))
        for name in ("sweep_cut_cheeger", "align_phase_global", "sobolev_diff_pieces"):
            self._at(monkeypatch, name,
                     lambda name=name: stages.append((name, 0, _largest_live_block())))
        with tracing():
            stability_report(f, g, 1.0, 5.0, partition=part, phase_geometry=pg)
        assert [s[0] for s in stages] == (["slab of Gf"] * 11 + ["sweep_cut_cheeger"]
                                          + ["slab of Gg"] * 11 + ["align_phase_global"] * 3
                                          + ["sobolev_diff_pieces"])
        assert all(size < n for _, size, _ in stages)
        # At no stage, Gf's stream included, does a block reach one float
        # per phase cell: no full |Gf| is filled.
        assert all(block < 8 * n for _, _, block in stages)

    def test_report_traced_peak_per_phase_cell(self, monkeypatch):
        # The traced peak of a d = 2 report with a partition and noise, in
        # bytes per phase cell, leaving out the Cheeger solve: its Krylov
        # basis is reserved whole by np.empty and touched one row per step,
        # and its size follows the coarse graph, not the fields.  Slabs of
        # 16 rows and stencil blocks of 1,024 cells keep the per-slab and
        # per-block temporaries small against the fields on this grid.
        # numpy reports its buffers to tracemalloc, so the figure repeats
        # exactly.  It read 53.5 with Gf and Gg transformed whole and both
        # spectrograms held whole, and 38.8 with both transforms streamed
        # and every norm term on the packed moduli.  With Gf streamed into
        # the coarse Cheeger weight and the scan's amplitudes dropped before
        # its bound passes it reads 37.7; the stages before the solve fell
        # from 28.8 to 21.6.  The peak is in the global alignment, after the
        # solve.  A full complex grid is 16.
        from gaborstab import stability

        f, g, pg, part = _report_case(2)
        noise = noise_gaussian_bump(pg, amplitude=0.001, width=1.0)
        monkeypatch.setattr(gabor, "SLAB_ROWS", 16)
        monkeypatch.setattr(fdiff, "STENCIL_BLOCK", 1024)
        solve = stability.sweep_cut_cheeger
        peaks = []

        def solve_untraced(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            try:
                return solve(*args, **kwargs)
            finally:
                tracemalloc.reset_peak()

        monkeypatch.setattr(stability, "sweep_cut_cheeger", solve_untraced)
        with tracing():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            stability_report(f, g, 1.0, 5.0, partition=part, noise=noise, phase_geometry=pg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        assert (max(peaks) - base) / pg.num_cells <= 40.0

    def test_norm_terms_traced_peak_per_omega_cell(self, monkeypatch):
        # The three norm terms of the Cheeger route and the weighted shape on
        # |Gf| and |Gg| packed on Omega, as a report passes them, with the
        # neighbor flags and the position map of Omega built on first use.
        # Stencil blocks of 1,024 cells keep the per-block temporaries small
        # against Omega (21,281 of 83,521 cells).  numpy reports its buffers
        # to tracemalloc, so the figure repeats exactly: 47.9 bytes per Omega
        # cell, of which 15.7 are the int32 position map and 8 the neighbor
        # flags.  The full-grid |Gf| and |Gg| that the terms read before
        # were 31.4 bytes per Omega cell on their own, and a full float grid
        # made inside the terms would add as much.
        pg = box_geometry((17,) * 4, -4.0, 4.0)
        F1, F2 = (analytic_gabor_transform(
            two_bump_spec((-1.5, 0.0), (0.0, 0.0), (1.5, 0.0), (0.0, 0.0), sign=s), pg)
            for s in (+1, -1))
        S1 = spectrogram(F1)
        omega = S1.values >= 1e-9 * S1.values.max()
        s1, s2 = np.abs(F1.values[omega]), np.abs(F2.values[omega])
        z0 = S1.argmax_location
        del F1, F2, S1
        monkeypatch.setattr(fdiff, "STENCIL_BLOCK", 1024)
        cells = fdiff.MaskCells(pg, omega)
        with tracing():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sobolev_diff_pieces(s1, s2, 1.0, cells)
            logderiv_term(s1, s2, 1.0, cells)
            weighted_lq_diff_norm(s1, s2, 5.0, z0, cells)
            peak = tracemalloc.get_traced_memory()[1] - base
        assert peak / np.count_nonzero(omega) <= 50.0


class TestOneUlpTransforms:
    """report-d2's pinned scalars against three seeded draws of an
    independent +-1 ulp on every real and imaginary part of its two
    transforms: each stays within the references' rtol of the unperturbed
    run."""

    REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"

    @staticmethod
    def nudged(F, rng):
        values = np.empty_like(F.values)
        for part in ("real", "imag"):
            x = getattr(F.values, part)
            setattr(values, part, np.nextafter(x, np.where(rng.random(x.shape) < 0.5,
                                                           np.inf, -np.inf)))
        return PhaseSpaceGrid(F.geometry, values)

    def test_pinned_scalars_within_1e_9(self):
        pinned = json.loads(self.REFERENCES.read_text(encoding="utf-8"))["report-d2"]
        f, g = make_instability_pair(2, 3.0, box_geometry((128, 128), -8.0, 7.875))
        pg = box_geometry((33,) * 4, -4.0, 4.0)
        F, G = gabor_transform(f, pg), gabor_transform(g, pg)

        def scalars(grids):
            transforms = [_whole(lambda F=F: F) for F in grids]
            report = _assemble_terms(transforms, pg, 1.0, 5.0, None, None,
                                     DEFAULT_CHEEGER_COARSEN).to_dict()
            return {key: report[key] for key in pinned}

        base = scalars([F, G])
        for seed in range(3):
            rng = np.random.default_rng(seed)
            got = scalars([self.nudged(F, rng), self.nudged(G, rng)])
            for key, value in base.items():
                assert got[key] == pytest.approx(value, rel=1e-9, abs=0.0), key


SWEEP_PINNED = sorted(json.loads(TestOneUlpTransforms.REFERENCES.read_text(encoding="utf-8"))
                      ["sweep-d1"])
# The pinned keys that move past the references' rtol, with their measured
# relative moves in the three draws.  The value and gradient pieces of
# sobolev are differences of nearly equal spectrograms, |Gf+| - |Gf-|, which
# cancel at T = 6 (ROADMAP item 3).
SWEEP_MOVES_PAST_RTOL = {"T6.sobolev": "4.1e-9, 4.1e-9 and 4.1e-9"}


@functools.lru_cache(maxsize=1)
def _sweep_moves() -> dict[str, list[float]]:
    """Relative move of every pinned sweep-d1 scalar in each of three seeded
    draws of an independent +-1 ulp on every real and imaginary part of each
    row's two closed-form transforms, against the unperturbed sweep."""
    from gaborstab import signals

    def scalars():
        rows = instability_sweep([2.0, 3.0, 4.0, 5.0, 6.0], p=1.0, q=3.0, spacing=1.0 / 32.0)
        return {f"T{i + 2}.{key}": getattr(row, key) for i, row in enumerate(rows)
                for key in ("h", "lhs", "sobolev", "weighted", "ratio")}

    base = scalars()
    closed_form = signals.analytic_gabor_transform
    moves = {key: [] for key in SWEEP_PINNED}
    for seed in range(3):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(signals, "analytic_gabor_transform",
                      lambda spec, pg: TestOneUlpTransforms.nudged(closed_form(spec, pg), rng))
            got = scalars()
        for key, row in moves.items():
            row.append(abs(got[key] - base[key]) / abs(base[key]))
    return moves


class TestOneUlpSweep:
    """sweep-d1's pinned scalars against three seeded draws of an independent
    +-1 ulp on each row's two closed-form transforms (the sweep reruns
    _assemble_terms on them): a key that stays within the references' rtol
    of the unperturbed run is a gate, a key that moves past it a strict
    xfail that names its moves.  The four sweeps take about 6 s."""

    @pytest.mark.parametrize("key", [
        pytest.param(key, marks=pytest.mark.xfail(
            strict=True, reason=f"moved {SWEEP_MOVES_PAST_RTOL[key]} relative"))
        if key in SWEEP_MOVES_PAST_RTOL else key
        for key in SWEEP_PINNED])
    def test_pinned_scalar_within_1e_9(self, key):
        assert max(_sweep_moves()[key]) <= 1e-9

