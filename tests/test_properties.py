"""Invariants checked over random inputs with hypothesis.

Examples are derandomized and the example database is off, so every run
draws the same inputs; counts stay small to keep the suite fast.
"""

import math

import numpy as np
import pytest

from gaborstab.grids import PhaseSpaceGrid, box_geometry
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
