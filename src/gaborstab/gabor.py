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

Both transforms can also hand Gf to a consumer a slab of leading rows at a
time (their consume argument), so that a consumer such as the gabor command
writes Gf without ever holding it whole; the slabs carry the whole
transform's bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fdiff
from .grids import GridGeometry, PhaseSpaceGrid, SignalGrid, grid_array

BOUNDARY_DECAY_TOL = 1e-12
# The spectrogram's argmax is the first row-major cell within this relative
# distance of the maximum: peaks that tie up to rounding, such as the two
# bumps of a symmetric pair, then give one z0 whatever their last bits.
ARGMAX_TIE_TOL = 1e-12
# gradient_identity_report skips cells where |G| is at most this fraction
# of its maximum: there the finite-difference ratios are rounding noise.
HOLOMORPHY_LEVEL = 1e-6


def _boundary_max(values: np.ndarray) -> float:
    """Largest modulus on any boundary face of the array."""
    return max(float(np.abs(np.take(values, [0, -1], axis=a)).max()) for a in range(values.ndim))


def _separable_transform(f: SignalGrid, phase_geometry: GridGeometry,
                         axis_contraction, slab_rows: int | None):
    """The Riemann sum of Gf, one signal axis at a time, as an iterator of slabs.

    axis_contraction(signal_geometry, a, y) returns the contraction for
    signal axis a: given the working array, whose axis 0 is t_a, and the
    windows e^{-pi(t_a - x_a)^2} as rows (x_a, t_a), it returns the array
    with t_a replaced by trailing (x_a, y_a) axes.  Axis 0 of the working
    array is always the next signal axis.  Every axis but the last is
    contracted in full, the last one for slab_rows (None: all) leading
    rows at a time, a row being one cell of (x_1, y_1, ..., y_{d-1}); a
    d = 1 signal is one row.  The slabs, shaped (rows, x_d, y_d), are
    Gf in row-major order.  Checks and warnings come before the first slab.
    """
    d = f.dimension
    if phase_geometry.rank != 2 * d:
        raise ValueError(
            f"phase geometry rank {phase_geometry.rank} does not match 2 x signal dimension {2 * d}"
        )
    tail = phase_geometry.extents[-2:]
    rows = phase_geometry.num_cells // (tail[0] * tail[1])
    step = slab_rows or rows
    # A one-row tail joins the slab before it: on one row the folded GEMM
    # becomes a matrix-vector product, whose sums round differently.
    stops = list(range(step, rows - 1, step)) + [rows]
    bounds = list(zip([0] + stops, stops))
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return (np.zeros((stop - start,) + tail, np.complex128) for start, stop in bounds)
    if _boundary_max(f.values) > BOUNDARY_DECAY_TOL * peak:
        warnings.warn(
            "signal does not decay below 1e-12 of its peak at the grid boundary; "
            "the transform is truncated", stacklevel=4)
    contractions = [axis_contraction(f.geometry, a, phase_geometry.axis_coordinates(2 * a + 1))
                    for a in range(d)]

    def windows(a):
        t = f.geometry.axis_coordinates(a)
        x = phase_geometry.axis_coordinates(2 * a)
        return np.exp(-np.pi * (t[None, :] - x[:, None]) ** 2)

    def slabs():
        g = f.values
        for a in range(d - 1):
            g = contractions[a](g, windows(a))
        g = g if d == 1 else g.reshape(g.shape[0], -1)
        last = windows(d - 1)
        for start, stop in bounds:
            slab = contractions[-1](g if d == 1 else g[:, start:stop], last)
            # In place: a scaled copy would hold a second slab.
            slab *= f.geometry.cell_volume
            yield slab.reshape((stop - start,) + tail)
            del slab  # not held while the next slab is computed

    return slabs()


# Leading rows per slab of a consumed transform: 128 rows of a 33^4 field
# are 2.2 MiB, where the whole field is 18.1 MiB.  At least 2, so no slab
# is a single row (see _separable_transform).
SLAB_ROWS = 128


def _transform(f: SignalGrid, phase_geometry: GridGeometry, axis_contraction, consume):
    """The whole PhaseSpaceGrid, or consume's result on its slabs."""
    if consume is not None:
        return consume(_separable_transform(f, phase_geometry, axis_contraction, SLAB_ROWS))
    (values,) = _separable_transform(f, phase_geometry, axis_contraction, None)
    return PhaseSpaceGrid(geometry=phase_geometry, values=values.reshape(phase_geometry.extents))


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


def gabor_transform(f: SignalGrid, phase_geometry: GridGeometry, *, consume=None):
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
    consume : callable, optional
        Called once with an iterator over Gf in slabs of SLAB_ROWS leading
        rows, shaped (rows, x_d, y_d) and in row-major order, instead of
        building the whole grid; its result is returned.  The slabs carry
        the bits of the whole grid, and a d = 1 signal is one slab.
        Argument errors and the boundary warning come before the call.
    """
    return _transform(f, phase_geometry, _fourier_contraction, consume)


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


def gabor_transform_fft(f: SignalGrid, phase_geometry: GridGeometry, *, consume=None):
    """The same Riemann sum as gabor_transform, evaluated with batched FFTs.

    Each signal axis in turn is windowed at every x sample of that axis and
    transformed by one FFT along that axis.  When every y sample sits on the
    frequency lattice k/(n dt) of the signal axis, picking those bins
    evaluates the sum for all y at once.  The origin phase e^{-2 pi i t0 y}
    is applied afterwards, from the same absolute-coordinate convention as
    the direct path.  Off-lattice y grids are an error, not an
    approximation: use gabor_transform for those.  consume works as in
    gabor_transform.
    """
    return _transform(f, phase_geometry, _fft_contraction, consume)


class FirstPeak:
    """The spectrogram's argmax rule over values fed in row-major pieces:
    the first cell within ARGMAX_TIE_TOL of the maximum of all of them.

    Each chunk of a piece keeps its cells within the tolerance of the
    chunk's own maximum that exceed every earlier cell of the chunk: a few
    cells unless many tie.  The first cell within the final level is
    always kept, since the cells before it in its chunk lie below it, so
    the first kept cell within that level is the answer.
    """

    # Cells compared per step: bounds the temporaries on a field of ties.
    _CHUNK = 1 << 16

    def __init__(self):
        self._fed = 0
        self._chunks = []  # (maximum, kept cells, kept values) per chunk

    def feed(self, values) -> None:
        """Take the next row-major piece of the field."""
        flat = np.ravel(values)
        for start in range(0, flat.size, self._CHUNK):
            v = flat[start:start + self._CHUNK]
            # A NaN maximum leaves no cell near it; cell() then refuses it.
            maximum = v.max()
            near = np.flatnonzero(v >= (1.0 - ARGMAX_TIE_TOL) * maximum)
            above = np.ones(near.size, bool)
            above[1:] = v[near[1:]] > np.maximum.accumulate(v[near])[:-1]
            kept = near[above]
            self._chunks.append((maximum, kept + self._fed + start, v[kept]))
        self._fed += flat.size

    def cell(self) -> tuple[int, float]:
        """Row-major index and value of the chosen cell; ValueError if a NaN was fed."""
        maxima, cells, values = zip(*self._chunks)
        maximum = np.max(maxima)
        if np.isnan(maximum):
            raise ValueError("spectrogram has no maximum: it holds NaN")
        cells, values = np.concatenate(cells), np.concatenate(values)
        first = np.argmax(values >= (1.0 - ARGMAX_TIE_TOL) * maximum)
        return int(cells[first]), float(values[first])


@dataclass(frozen=True, slots=True)
class Spectrogram:
    """Modulus of a Gabor transform plus the location of its largest sample.

    The peak is derived from the values by FirstPeak: argmax_index is the
    first row-major cell within ARGMAX_TIE_TOL of the maximum, so a
    rounding tie gives the earlier peak, and argmax_location holds its
    coordinates.
    """

    geometry: GridGeometry
    values: np.ndarray
    argmax_index: tuple[int, ...] = field(init=False)
    argmax_location: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.geometry.rank % 2 != 0:
            raise ValueError("phase-space grids need even rank")
        mod = grid_array(self.values, self.geometry.extents, float, "value array")
        peak = FirstPeak()
        peak.feed(mod)
        index = tuple(int(i) for i in np.unravel_index(peak.cell()[0], mod.shape))
        object.__setattr__(self, "values", mod)
        object.__setattr__(self, "argmax_index", index)
        object.__setattr__(self, "argmax_location", self.geometry.index_coordinates(index))


def spectrogram(F: PhaseSpaceGrid) -> Spectrogram:
    """The spectrogram |F| of a phase-space field."""
    return Spectrogram(F.geometry, np.abs(F.values))


def _check_y_symmetric(geometry: GridGeometry) -> None:
    for axis in range(1, geometry.rank, 2):
        lo, hi = geometry.origin[axis], geometry.axis_upper(axis)
        if abs(lo + hi) > 1e-9 * geometry.spacing[axis]:
            raise ValueError(
                f"phase grid y-axis {axis // 2} is not symmetric about 0 "
                f"(covers [{lo}, {hi}]); the entire lift needs y -> -y on-grid")


def entire_lift(F: PhaseSpaceGrid) -> PhaseSpaceGrid:
    """Entire lift G(z) = Gf(conj z) eta(z) of a Gabor transform on a y-symmetric grid.

    eta(z) = e^{pi |z|^2 / 2 - pi i x.y} for z = x + iy, so
    |G(z)| = |Gf(x, -y)| e^{pi |z|^2 / 2} sample by sample.  Reflecting
    y -> -y is an exact index flip on a symmetric grid, so no interpolation
    enters.
    """
    geom = F.geometry
    _check_y_symmetric(geom)
    coords = geom.coordinate_arrays()
    xy = np.zeros(geom.extents)
    for a in range(F.dimension):
        xy = xy + coords[2 * a] * coords[2 * a + 1]
    eta = np.exp(np.pi * geom.distance_sq() / 2.0) * np.exp(-1j * np.pi * xy)
    # Gf at (x, -y): an index flip along every y axis.
    reflected = np.flip(F.values, axis=tuple(range(1, geom.rank, 2)))
    return PhaseSpaceGrid(geometry=geom, values=reflected * eta)


@dataclass(frozen=True, slots=True)
class GradientIdentityReport:
    """Pointwise comparison of ||grad|G|||, 2^{-1/2}||grad G|| and |G'|."""

    max_rel_error: float
    samples_checked: int


def gradient_identity_report(lift: PhaseSpaceGrid) -> GradientIdentityReport:
    """Check the holomorphic gradient identity on a lifted field (entire_lift).

    Central finite differences only, so the comparison runs on interior
    samples where |G| exceeds HOLOMORPHY_LEVEL times its maximum.
    """
    geom = lift.geometry
    G = lift.values
    mod = np.abs(G)
    mask = fdiff.interior_mask(geom) & (mod > HOLOMORPHY_LEVEL * mod.max())
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
