"""Invariants checked over random inputs with hypothesis.

Examples are derandomized and the example database is off, so every run
draws the same inputs; counts stay small to keep the suite fast.
"""

import math
import os
import tempfile

import numpy as np
import pytest

from gaborstab.cheeger import (ORACLE_CELL_LIMIT, WeightGrid, exhaustive_cheeger_oracle,
                               sweep_cut_cheeger)
from gaborstab.gabor import gabor_transform, gabor_transform_fft
from gaborstab.grids import (GridGeometry, PhaseSpaceGrid, SignalGrid, box_geometry, read_grid,
                             write_grid)
from gaborstab.signals import make_analytic, two_bump_spec
from gaborstab.stability import align_phase_global

from test_stability import full_scan_alignment

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.tuples(st.integers(2, 7), st.integers(2, 7)),
       p=st.floats(1.0, 3.0),
       phi=st.floats(0.0, 2.0 * math.pi),
       masked=st.booleans())
def test_aligned_residual_invariant_under_global_phase(seed, shape, p, phi, masked):
    rng = np.random.default_rng(seed)
    geom = box_geometry(shape, -1.0, 1.0)
    v1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = None
    if masked:
        mask = rng.random(shape) < 0.6
        mask.flat[0] = True
    F1 = PhaseSpaceGrid(geom, v1)
    base = align_phase_global(F1, PhaseSpaceGrid(geom, v2), p, mask)
    turned = align_phase_global(F1, PhaseSpaceGrid(geom, np.exp(1j * phi) * v2), p, mask)
    assert turned.residual == pytest.approx(base.residual, rel=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.tuples(st.integers(2, 24), st.integers(2, 24)),
       p=st.sampled_from([1.0, 1.5, 3.0]) | st.floats(1.0, 4.0),
       decades=st.integers(0, 12),
       zero_rows=st.integers(0, 3),
       aligned=st.booleans(),
       masked=st.booleans())
def test_certified_scan_equals_the_full_scan(seed, shape, p, decades, zero_rows, aligned,
                                              masked):
    # Amplitudes log-uniform over `decades` decades and rows of zeros on
    # both fields give from none to most of the cells light.  An aligned
    # pair is F2 = e^{i a} F1 on the cells above the median amplitude and
    # e^{i b} F1 below it, so the light cells pull towards another angle.
    rng = np.random.default_rng(seed)
    amp = 10.0 ** rng.uniform(-decades, 0.0, (2,) + shape)
    v = amp * np.exp(2j * np.pi * rng.random((2,) + shape))
    if aligned:
        a, b = np.exp(2j * np.pi * rng.random(2))
        v[1] = np.where(amp[0] >= np.median(amp[0]), a, b) * v[0]
    v[:, :zero_rows] = 0.0
    geom = box_geometry(shape, -1.0, 1.0)
    mask = rng.random(shape) < 0.7 if masked else None
    F1, F2 = PhaseSpaceGrid(geom, v[0]), PhaseSpaceGrid(geom, v[1])
    assert align_phase_global(F1, F2, p, mask) == full_scan_alignment(F1, F2, p, mask)


def _lattice_case(rng, d):
    """A random complex signal and a phase box with y on its FFT lattice."""
    n = [int(rng.integers(8, 40 if d == 1 else 16)) for _ in range(d)]
    dt = [float(rng.choice([0.125, 0.25, 0.5])) for _ in range(d)]
    sig_geom = GridGeometry(extents=tuple(n), spacing=tuple(dt),
                            origin=tuple(rng.uniform(-3.0, 1.0, d)))
    extents, spacing, origin = [], [], []
    for a in range(d):
        lattice = 1.0 / (n[a] * dt[a])
        step = int(rng.integers(1, 3))
        ny = int(rng.integers(2, n[a] // (2 * step) + 2))
        k0 = int(rng.integers(-(n[a] // 2), n[a] // 2 - step * (ny - 1) + 1))
        extents += [int(rng.integers(2, 8)), ny]
        spacing += [float(rng.uniform(0.1, 1.0)), step * lattice]
        origin += [float(rng.uniform(-2.0, 2.0)), k0 * lattice]
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SignalGrid(sig_geom, values), GridGeometry(tuple(extents), tuple(spacing), tuple(origin))


@pytest.mark.filterwarnings("ignore:signal does not decay")
@pytest.mark.parametrize("d", [1, 2])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_fft_path_equals_direct_path_on_lattice_boxes(d, seed):
    f, phase = _lattice_case(np.random.default_rng(seed), d)
    direct = gabor_transform(f, phase).values
    fast = gabor_transform_fft(f, phase).values
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))


def _shifted(shift: int, m: int) -> tuple[slice, slice]:
    """Index ranges (to, from) along an axis of m cells where to = from + shift."""
    return slice(max(shift, 0), m + min(shift, 0)), slice(max(-shift, 0), m - max(shift, 0))


@pytest.mark.parametrize("d", [1, 2])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_shift_covariance_of_the_sampled_transform(d, seed):
    # |G(M_b T_a f)|(x, y) = |Gf|(x - a, y - b) on the overlapping cells.
    # a is k samples of the signal grid and k cells of the phase x axes,
    # which share its spacing; b is l cells of the phase y axes.  f is
    # random inside a zero margin wider than |k| samples, so T_a f's
    # samples are f's rolled by k and both vanish on the boundary.
    rng = np.random.default_rng(seed)
    n, margin = (48, 10) if d == 1 else (16, 4)
    dt = float(rng.choice([0.125, 0.25]))
    sig_geom = GridGeometry((n,) * d, (dt,) * d, tuple(rng.uniform(-3.0, 1.0, d)))
    values = np.zeros((n,) * d, complex)
    inner = (slice(margin, n - margin),) * d
    values[inner] = (rng.standard_normal(values[inner].shape)
                     + 1j * rng.standard_normal(values[inner].shape))
    k = rng.integers(1 - margin, margin, d)
    extents, spacing, origin = [], [], []
    for a in range(d):
        extents += [abs(int(k[a])) + int(rng.integers(2, 6)), int(rng.integers(4, 9))]
        spacing += [dt, float(rng.uniform(0.1, 0.5))]
        origin += [sig_geom.origin[a] + float(rng.uniform(0.0, n * dt / 2.0)),
                   float(rng.uniform(-2.0, 0.0))]
    phase = GridGeometry(tuple(extents), tuple(spacing), tuple(origin))
    l = np.array([int(rng.integers(-(m - 2), m - 1)) for m in extents[1::2]])
    b = l * np.array(spacing[1::2])
    t = np.meshgrid(*(sig_geom.axis_coordinates(a) for a in range(d)), indexing="ij")
    shifted = np.exp(2j * np.pi * sum(bj * tj for bj, tj in zip(b, t))) * np.roll(
        values, tuple(k), axis=tuple(range(d)))
    S0 = np.abs(gabor_transform(SignalGrid(sig_geom, values), phase).values)
    S = np.abs(gabor_transform(SignalGrid(sig_geom, shifted), phase).values)
    to, frm = zip(*(_shifted(int(s), m) for s, m in zip(np.ravel(np.stack([k, l], 1)), extents)))
    assert np.max(np.abs(S[to] - S0[frm])) <= 1e-12 * np.max(S0)


# Signal grid, phase box and bump range per dimension.  The phase box
# reaches 3.5 beyond every bump, where |Gf|^2 has fallen to e^{-pi 3.5^2};
# phase spacing 1/8 (d = 1) and 1/4 (d = 2) sit on the FFT lattice.
MOYAL_CASES = {
    1: (box_geometry((512,), -8.0, 8.0 - 1.0 / 32.0), box_geometry((81, 81), -5.0, 5.0), 1.0),
    2: (box_geometry((128, 128), -4.0, 4.0 - 1.0 / 16.0), box_geometry((33,) * 4, -4.0, 4.0), 0.5),
}


@pytest.mark.parametrize("d", [1, 2])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sign=st.sampled_from([1, -1]))
def test_moyal_identity_on_two_bump_signals(d, seed, sign):
    # ||Gf||^2 over R^{2d} equals 2^{-d/2} ||f||^2
    sig_geom, phase, reach = MOYAL_CASES[d]
    c1, b1, c2, b2 = np.random.default_rng(seed).uniform(-reach, reach, (4, d))
    f = make_analytic(two_bump_spec(c1, b1, c2, b2, sign=sign), sig_geom)
    F = gabor_transform_fft(f, phase)
    lhs = np.sum(np.abs(F.values) ** 2) * phase.cell_volume
    rhs = 2.0 ** (-d / 2.0) * np.sum(np.abs(f.values) ** 2) * sig_geom.cell_volume
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 4), is_complex=st.booleans())
def test_ggr1_round_trip_on_random_geometries(seed, rank, is_complex):
    rng = np.random.default_rng(seed)
    geom = GridGeometry(tuple(int(n) for n in rng.integers(1, 7, rank)),
                        tuple(10.0 ** rng.uniform(-3.0, 2.0, rank)),
                        tuple(rng.uniform(-100.0, 100.0, rank)))
    values = rng.standard_normal(geom.extents)
    if is_complex:
        values = values + 1j * rng.standard_normal(geom.extents)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.ggr")
        write_grid(path, geom, values)
        header = 10 + 24 * rank
        assert os.path.getsize(path) == header + values.size * values.itemsize
        got_geom, got = read_grid(path)
    assert got_geom == geom
    assert got.dtype == values.dtype and np.array_equal(got, values)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 3))
def test_sweep_cut_bounds_the_exhaustive_oracle(seed, rank):
    # positive weights on a full box: every face is an edge, so the weight
    # is connected; masses span four decades
    rng = np.random.default_rng(seed)
    extents = [int(rng.integers(2, ORACLE_CELL_LIMIT + 1))]
    for _ in range(rank - 1):
        room = ORACLE_CELL_LIMIT // math.prod(extents)
        if room < 2:
            break
        extents.append(int(rng.integers(2, room + 1)))
    geom = box_geometry(tuple(extents), 0.0, tuple(rng.uniform(0.5, 3.0, len(extents))))
    w = WeightGrid(geometry=geom, values=10.0 ** rng.uniform(-3.0, 1.0, geom.extents))
    oracle = exhaustive_cheeger_oracle(w)
    # the sweep may pick the optimal cut itself, whose ratio it sums in
    # another order than the oracle: allow rounding, nothing more
    assert sweep_cut_cheeger(w).h_upper >= oracle * (1.0 - 1e-12)
