"""Gabor transform with a Gaussian window, spectrograms, and the entire lift.

The transform implemented here is
    Gf(x, y) = int_{R^d} f(t) e^{-pi|t-x|^2} e^{-2 pi i t.y} dt,
discretized as a Riemann sum over the signal grid.  Window and Fourier
factor both split over the d axes, so the sum is taken one signal axis at a
time, in one of two shapes:

- per window: for each window position x_a, the array is multiplied by the
  window row e^{-pi(t_a - x_a)^2} and t_a is contracted in one call, either
  against the Fourier factor e^{-2 pi i t_a y_a} or by an FFT along t_a.
  The FFT path always runs this way, and so does the direct path on a
  single row (every d = 1 signal);
- folded: where the array in front of axis a has several rows (every axis
  of a d = 2 signal), the direct path folds the window into the Fourier
  factor, K[t_a, (x_a, y_a)] = e^{-pi(t_a - x_a)^2} e^{-2 pi i t_a y_a},
  and contracts t_a in one matrix product of the rows against K.  The
  product regroups each term of the sum, so it agrees with the per-window
  one to a few ulp of the peak, not bit for bit.

The contracted axis comes out trailing as (x_a, y_a), so after d axes the
values are already in (x_1, y_1, ..., x_d, y_d) order.  Building the Fourier
factors from the absolute coordinates t = t0 + k*dt bakes in the phase
correction e^{-2 pi i t0 . y} for grids that do not start at the origin.
That product is the single source of phase truth for the whole package.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fdiff
from .errors import AdmissibilityError
from .grids import GridGeometry, PhaseSpaceGrid, SignalGrid, active_mask, grid_array

BOUNDARY_DECAY_TOL = 1e-12
ESSENTIAL_SUPPORT_TOL = 1e-9
# The holomorphy diagnostics skip cells where |G| is at most this fraction
# of its maximum: there the finite-difference ratios are rounding noise.
HOLOMORPHY_LEVEL = 1e-6


def _boundary_max(values: np.ndarray) -> float:
    """Largest modulus on any boundary face of the array."""
    worst = 0.0
    for axis in range(values.ndim):
        idx = [slice(None)] * values.ndim
        idx[axis] = 0
        worst = max(worst, float(np.max(np.abs(values[tuple(idx)]))))
        idx[axis] = values.shape[axis] - 1
        worst = max(worst, float(np.max(np.abs(values[tuple(idx)]))))
    return worst


def _separable_transform(f: SignalGrid, phase_geometry: GridGeometry,
                         axis_contraction) -> PhaseSpaceGrid:
    """The Riemann sum of Gf, one signal axis at a time.

    axis_contraction(signal_geometry, a, y) returns the contraction for
    signal axis a: given the working array, whose axis 0 is t_a, and the
    windows e^{-pi(t_a - x_a)^2} as rows (x_a, t_a), it returns the array
    with t_a replaced by trailing (x_a, y_a) axes.  Axis 0 of the working
    array is always the next signal axis.
    """
    d = f.dimension
    if phase_geometry.rank != 2 * d:
        raise ValueError(
            f"phase geometry rank {phase_geometry.rank} does not match 2 x signal dimension {2 * d}"
        )
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return PhaseSpaceGrid(geometry=phase_geometry,
                              values=np.zeros(phase_geometry.extents, np.complex128))
    if _boundary_max(f.values) > BOUNDARY_DECAY_TOL * peak:
        warnings.warn(
            "signal does not decay below 1e-12 of its peak at the grid boundary; "
            "the transform is truncated", stacklevel=3)

    contractions = [axis_contraction(f.geometry, a, phase_geometry.axis_coordinates(2 * a + 1))
                    for a in range(d)]
    g = f.values
    for a, contract in enumerate(contractions):
        t = f.geometry.axis_coordinates(a)
        x = phase_geometry.axis_coordinates(2 * a)
        g = contract(g, np.exp(-np.pi * (t[None, :] - x[:, None]) ** 2))
    # In place: a scaled copy would hold a second full field.
    g *= f.geometry.cell_volume
    return PhaseSpaceGrid(geometry=phase_geometry, values=g)


def _per_window(g: np.ndarray, windows: np.ndarray, ny: int, contract) -> np.ndarray:
    """Window g at each x_a in turn and contract t_a: contract maps the
    windowed array to one with t_a replaced by a trailing y_a axis."""
    row = (g.shape[0],) + (1,) * (g.ndim - 1)
    out = np.empty(g.shape[1:] + (windows.shape[0], ny), np.complex128)
    for ix in range(windows.shape[0]):
        out[..., ix, :] = contract(g * windows[ix].reshape(row))
    return out


def _fourier_contraction(geometry: GridGeometry, a: int, y: np.ndarray):
    # Fourier factor from absolute coordinates: e^{-2 pi i t y} carries the
    # origin phase correction exactly.
    fourier = np.exp(-2j * np.pi * np.outer(geometry.axis_coordinates(a), y))

    def contract(g: np.ndarray, windows: np.ndarray) -> np.ndarray:
        n = g.shape[0]
        if g.size == n:
            # One row: a vector-matrix product per window position.
            return _per_window(g, windows, y.size,
                               lambda w: np.tensordot(w, fourier, axes=([0], [0])))
        # Several rows: the window folds into the Fourier factor,
        # K[t, (x, y)] = e^{-pi(t - x)^2} e^{-2 pi i t y}, and one GEMM of the
        # rows against K gives (..., x_a, y_a) directly.  The output is
        # allocated before K: in the other order the freed K splits the heap
        # and a report's resident peak rose by about 4 MB more.
        out = np.empty(g.shape[1:] + (windows.shape[0], y.size), np.complex128)
        kernel = (windows.T[:, :, None] * fourier[:, None, :]).reshape(n, -1)
        np.matmul(g.reshape(n, -1).T, kernel, out=out.reshape(-1, kernel.shape[1]))
        return out

    return contract


def gabor_transform(f: SignalGrid, phase_geometry: GridGeometry) -> PhaseSpaceGrid:
    """Sampled Gabor transform of f on a phase-space grid.

    Each signal axis in turn is contracted against its Fourier factor
    e^{-2 pi i t y}, so any y samples are allowed.  A single row (d = 1)
    is windowed at every x sample and contracted in one vector-matrix
    product per sample.  Several rows (every axis of d = 2) are contracted
    in one matrix product against the window folded into the Fourier
    factor, e^{-pi(t - x)^2} e^{-2 pi i t y} as a t by (x, y) matrix; that
    result is within a few ulp of the peak of the per-window one.

    Parameters
    ----------
    f : SignalGrid
        Signal samples; the signal should decay below 1e-12 of its peak at
        the grid boundary (a warning is emitted otherwise).
    phase_geometry : GridGeometry
        Rank 2d grid with axes ordered (x_1, y_1, ..., x_d, y_d).
    """
    return _separable_transform(f, phase_geometry, _fourier_contraction)


def _fft_frequency_indices(y: np.ndarray, n: int, dt: float) -> np.ndarray:
    """Map y samples onto the DFT frequency lattice k / (n dt) of a signal axis."""
    r = y * (n * dt)
    k = np.round(r)
    off = float(np.max(np.abs(r - k)))
    if off > 1e-8 * max(1.0, float(np.max(np.abs(r)))):
        raise ValueError(
            f"y samples are off the FFT frequency lattice by {off:.3e} lattice "
            f"units; they must be integer multiples of 1/(n*dt) = {1.0/(n*dt):.6g}")
    k = k.astype(np.int64)
    if np.any(np.abs(k) > n // 2):
        raise ValueError("y sample beyond the Nyquist frequency of the signal grid")
    return k % n


def _fft_contraction(geometry: GridGeometry, a: int, y: np.ndarray):
    k = _fft_frequency_indices(y, geometry.extents[a], geometry.spacing[a])
    origin_phase = np.exp(-2j * np.pi * geometry.origin[a] * y)
    return lambda g, windows: _per_window(
        g, windows, y.size,
        lambda w: np.moveaxis(np.fft.fft(w, axis=0)[k], 0, -1) * origin_phase)


def gabor_transform_fft(f: SignalGrid, phase_geometry: GridGeometry) -> PhaseSpaceGrid:
    """The same Riemann sum as gabor_transform, evaluated with batched FFTs.

    Each signal axis in turn is windowed at every x sample of that axis and
    transformed by one FFT along that axis.  When every y sample sits on the
    frequency lattice k/(n dt) of the signal axis, picking those bins
    evaluates the sum for all y at once.  The origin phase e^{-2 pi i t0 y}
    is applied afterwards, from the same absolute-coordinate convention as
    the direct path.  Off-lattice y grids are an error, not an
    approximation: use gabor_transform for those.
    """
    return _separable_transform(f, phase_geometry, _fft_contraction)


@dataclass(frozen=True, slots=True)
class Spectrogram:
    """Modulus of a Gabor transform plus the location of its largest sample."""

    geometry: GridGeometry
    values: np.ndarray
    argmax_index: tuple[int, ...]
    argmax_location: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = grid_array(self.values, self.geometry.extents, float, "value array")
        object.__setattr__(self, "values", arr)
        if arr[self.argmax_index] != arr.max():
            raise ValueError("argmax index does not attain the maximum")


def spectrogram(F: PhaseSpaceGrid) -> Spectrogram:
    """Spectrogram |F| with argmax taken at the smallest row-major index on ties."""
    mod = np.abs(F.values)
    flat = int(np.argmax(mod))
    idx = tuple(int(i) for i in np.unravel_index(flat, mod.shape))
    loc = F.geometry.index_coordinates(idx)
    return Spectrogram(geometry=F.geometry, values=mod, argmax_index=idx, argmax_location=loc)


def _check_exponent(value: float, name: str = "p") -> None:
    """Every L^p quadrature needs a finite exponent of at least 1."""
    if not np.isfinite(value) or value < 1.0:
        raise AdmissibilityError(f"{name} = {value} must be finite and >= 1")


def _lp_norm(packed: np.ndarray, geometry: GridGeometry, p: float) -> float:
    """L^p quadrature with cell-volume weights over values already selected."""
    return float(np.sum(np.abs(packed) ** p) * geometry.cell_volume) ** (1.0 / p)


def modulation_norm(F: PhaseSpaceGrid, p: float, mask=None) -> float:
    """Discrete L^p norm of a phase-space field with cell-volume weights."""
    _check_exponent(p)
    mod = np.abs(F.values)
    sel = active_mask(mask, F.geometry.extents)
    peak = float(mod.max())
    if peak > 0.0 and _boundary_max(F.values) > ESSENTIAL_SUPPORT_TOL * peak:
        warnings.warn(
            "field exceeds 1e-9 of its peak at the phase-space boundary; "
            "the norm misses essential support", stacklevel=2)
    return _lp_norm(mod if sel is None else mod[sel], F.geometry, p)


@dataclass(frozen=True, slots=True)
class EntireLift:
    """A Gabor transform together with its entire lift G(z) = Gf(conj z) eta(z).

    eta(z) = e^{pi |z|^2 / 2 - pi i x.y} for z = x + iy; the lifted field
    satisfies |G(z)| = |Gf(x, -y)| e^{pi |z|^2 / 2} sample by sample.
    """

    base: PhaseSpaceGrid
    lifted: PhaseSpaceGrid

    @property
    def geometry(self) -> GridGeometry:
        return self.lifted.geometry

    @property
    def dimension(self) -> int:
        return self.lifted.dimension

    def identity_max_rel_error(self) -> float:
        """Max relative deviation of |lifted| from |base at conjugate| e^{pi|z|^2/2}."""
        expected = np.abs(_reflect_y(self.base)) * _lift_growth(self.geometry)
        got = np.abs(self.lifted.values)
        denom = np.maximum(expected, np.max(expected) * 1e-300 + np.finfo(float).tiny)
        rel = np.abs(got - expected) / denom
        rel = np.where(expected == 0.0, np.abs(got), rel)
        return float(np.max(rel))


def _reflect_y(F: PhaseSpaceGrid) -> np.ndarray:
    """The values of F at (x, -y): an index flip along every y axis."""
    vals = F.values
    for a in range(F.dimension):
        vals = np.flip(vals, axis=2 * a + 1)
    return vals


def _lift_growth(geometry: GridGeometry) -> np.ndarray:
    """The modulus e^{pi |z|^2 / 2} of eta(z) over the grid."""
    return np.exp(np.pi * geometry.distance_sq() / 2.0)


def _check_y_symmetric(geometry: GridGeometry) -> None:
    d = geometry.rank // 2
    for a in range(d):
        axis = 2 * a + 1
        lo = geometry.origin[axis]
        hi = geometry.axis_upper(axis)
        if abs(lo + hi) > 1e-9 * geometry.spacing[axis]:
            raise ValueError(
                f"phase grid y-axis {a} is not symmetric about 0 "
                f"(covers [{lo}, {hi}]); the entire lift needs y -> -y on-grid")


def entire_lift(F: PhaseSpaceGrid) -> EntireLift:
    """Entire lift of a Gabor transform sampled on a y-symmetric phase grid.

    Reflecting y -> -y is an exact index flip on a symmetric grid, so no
    interpolation enters; the result is multiplied by eta(z).
    """
    geom = F.geometry
    _check_y_symmetric(geom)
    coords = geom.coordinate_arrays()
    xy = np.zeros(geom.extents)
    for a in range(F.dimension):
        xy = xy + coords[2 * a] * coords[2 * a + 1]
    eta = _lift_growth(geom) * np.exp(-1j * np.pi * xy)
    lifted = PhaseSpaceGrid(geometry=geom, values=_reflect_y(F) * eta)
    return EntireLift(base=F, lifted=lifted)


@dataclass(frozen=True, slots=True)
class GradientIdentityReport:
    """Pointwise comparison of ||grad|G|||, 2^{-1/2}||grad G|| and |G'|."""

    max_rel_error: float
    samples_checked: int


def _holomorphy_samples(geometry: GridGeometry, mod: np.ndarray) -> np.ndarray:
    """Interior cells, where central differences exist, with |G| > HOLOMORPHY_LEVEL max |G|."""
    return fdiff.interior_mask(geometry) & (mod > HOLOMORPHY_LEVEL * mod.max())


def gradient_identity_report(lift: EntireLift) -> GradientIdentityReport:
    """Check the holomorphic gradient identity on the lifted field.

    Central finite differences only, so the comparison runs on interior
    samples where |G| exceeds HOLOMORPHY_LEVEL times its maximum.
    """
    geom = lift.geometry
    G = lift.lifted.values
    mod = np.abs(G)
    mask = _holomorphy_samples(geom, mod)
    grads_G = fdiff.gradient(G, geom)
    a = fdiff.gradient_norm(fdiff.gradient(mod, geom))
    b = fdiff.gradient_norm(grads_G) / np.sqrt(2.0)
    c = fdiff.gradient_norm(fdiff.wirtinger_components(grads_G))
    scale = np.maximum(np.maximum(a, b), c)
    scale = np.where(scale == 0.0, 1.0, scale)
    spread = np.maximum(np.abs(a - b), np.maximum(np.abs(a - c), np.abs(b - c)))
    rel = np.where(mask, spread / scale, 0.0)
    return GradientIdentityReport(
        max_rel_error=float(np.max(rel)) if mask.any() else 0.0,
        samples_checked=int(mask.sum()))


def wirtinger_residual(lift: EntireLift) -> float:
    """Max of |d/d(conj z) G| / |G| over interior samples with |G| > HOLOMORPHY_LEVEL max |G|.

    Small values certify that the lifted field is holomorphic to finite
    difference accuracy.
    """
    geom = lift.geometry
    G = lift.lifted.values
    mod = np.abs(G)
    mask = _holomorphy_samples(geom, mod)
    anti = fdiff.wirtinger_components(fdiff.gradient(G, geom), conjugate=True)
    res = fdiff.gradient_norm(anti)
    ratio = np.where(mask, res / np.where(mod == 0.0, 1.0, mod), 0.0)
    return float(np.max(ratio)) if mask.any() else 0.0
