"""Invariants checked over random inputs with hypothesis.

Examples are derandomized and the example database is off, so every run
draws the same inputs; counts stay small to keep the suite fast.
"""

import math

import numpy as np
import pytest

from gaborstab.gabor import gabor_transform, gabor_transform_fft
from gaborstab.grids import GridGeometry, PhaseSpaceGrid, SignalGrid, box_geometry
from gaborstab.signals import make_analytic, two_bump_spec
from gaborstab.stability import align_phase_global

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
