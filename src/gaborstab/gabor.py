"""Gabor transform with a Gaussian window, spectrograms, and the entire lift.

The transform implemented here is
    Gf(x, y) = int_{R^d} f(t) e^{-pi|t-x|^2} e^{-2 pi i t.y} dt,
discretized as a Riemann sum over the signal grid.  Window and Fourier
factor both split over the d axes, so the sum is taken one signal axis at a
time, in one of two shapes:

- one row (every d = 1 signal on the direct path): the row is multiplied
  by the window e^{-pi(t_a - x_a)^2} of every position x_a, and one
  batched matrix product contracts t_a against e^{-2 pi i t_a y_a}: one
  vector-matrix product per window, the bits of a loop over them;
- the lattice fold (every other contraction): where the y samples of axis
  a sit on every m-th bin of the n-point DFT lattice k/(n dt), m dividing
  n, e^{-2 pi i t_a y_a} repeats on the m segments of length L = n/m of
  t_a, and one batched product adds the windowed segments first (Portnoff
  1980; Sondergaard 2012).  Off the lattice m = 1, one segment.  A GEMM
  against the factor of the first L samples finishes the sums on the
  direct path (several rows), an L-point FFT on the FFT path
  (gabor_transform_fft: any rows).
At m > 1 the fold regroups each term of the sum, so it agrees with the
per-window loop to a few ulp of the peak, not bit for bit; at m = 1 it
computes the loop's terms (at reduced phases on the direct path).

The contracted axis comes out trailing as (x_a, y_a), so after d axes the
values are already in (x_1, y_1, ..., x_d, y_d) order.  Building the Fourier
factors from the absolute coordinates t = t0 + k*dt bakes in the phase
correction e^{-2 pi i t0 . y} for grids that do not start at the origin.
That product is the single source of phase truth for the whole package,
with one exception: every several-row contraction of the direct path takes
its factor at t y reduced mod 1, the same phase, and exact where t y is
(on dyadic grids).

Both transforms can also hand Gf to a consumer a slab of leading rows at a
time (their consume argument), so that a consumer such as the gabor command
writes Gf without ever holding it whole; the slabs carry the whole
transform's bits.
"""

from __future__ import annotations

import math
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


def _blocks(rows: int, step: int) -> list[tuple[int, int]]:
    """(start, stop) of blocks of step rows.  A one-row tail joins the block before
    it: on one row a matrix product becomes a matrix-vector one, rounding differently."""
    stops = list(range(step, rows - 1, step)) + [rows]
    return list(zip([0] + stops, stops))


def _separable_transform(f: SignalGrid, phase_geometry: GridGeometry,
                         axis_contraction, slab_rows: int | None):
    """The Riemann sum of Gf, one signal axis at a time, as an iterator of slabs.

    axis_contraction(signal_geometry, a, y) returns, for signal axis a, a
    function of the windows e^{-pi(t_a - x_a)^2} as rows (x_a, t_a) that
    gives the contraction: given the working array, whose axis 0 is t_a, it
    returns the array with t_a replaced by trailing (x_a, y_a) axes.  What
    a contraction builds from its windows is built once and serves every
    slab.  Axis 0 of the working array is always the next signal axis.
    Every axis but the last is contracted in full, the last one for
    slab_rows (None: all) leading rows at a time, a row being one cell of
    (x_1, y_1, ..., y_{d-1}); a d = 1 signal is one row.  The slabs, shaped
    (rows, x_d, y_d), are Gf in row-major order.  Checks and warnings come
    before the first slab.
    """
    d = f.dimension
    if phase_geometry.rank != 2 * d:
        raise ValueError(
            f"phase geometry rank {phase_geometry.rank} does not match 2 x signal dimension {2 * d}"
        )
    tail = phase_geometry.extents[-2:]
    rows = phase_geometry.num_cells // (tail[0] * tail[1])
    bounds = _blocks(rows, slab_rows or rows)
    peak = float(np.max(np.abs(f.values)))
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
            g = contractions[a](windows(a))(g)
        g = g.reshape(g.shape[0], -1)
        last = contractions[-1](windows(d - 1))
        for start, stop in bounds:
            slab = last(g[:, start:stop])
            # In place: a scaled copy would hold a second slab.
            slab *= f.geometry.cell_volume
            yield slab.reshape((stop - start,) + tail)
            del slab  # not held while the next slab is computed

    return slabs()


# Leading rows per slab of a consumed transform: 128 rows of a 33^4 field
# are 2.2 MiB, where the whole field is 18.1 MiB.  At least 2, so no slab
# is a single row (see _blocks).  256 rows took a stability report's
# resident peak about 2 MB lower, but slowed the gabor command's FFT path,
# then a per-window loop, by a fifth.  It also sets the one block rule of
# the lattice fold: a block's windowed rows of n samples hold no more cells
# than one slab of the output.
SLAB_ROWS = 128


def _transform(f: SignalGrid, phase_geometry: GridGeometry, axis_contraction, consume):
    """The whole PhaseSpaceGrid, or consume's result on its slabs."""
    if consume is not None:
        return consume(_separable_transform(f, phase_geometry, axis_contraction, SLAB_ROWS))
    (values,) = _separable_transform(f, phase_geometry, axis_contraction, None)
    return PhaseSpaceGrid(geometry=phase_geometry, values=values.reshape(phase_geometry.extents))


def _lattice_fold(windows: np.ndarray, m: int, y_size: int, finish):
    """The contraction of an axis whose y samples sit on every m-th bin of
    the n-point DFT lattice: per block, (L, rows, m) @ (L, m, x) adds the m
    windowed segments of length L = n/m, and finish(sums, out) maps the
    (L, rows x) sums onto the block's (rows x, y) output.  A block's
    windowed rows of n samples hold no more cells than one output slab:
    all x of at least two rows, or a run of x of a single row."""
    nx, n = windows.shape
    length = n // m
    # Cast once: a product against real windows casts them on every call.
    segments = windows.reshape(nx, m, length).transpose(2, 1, 0).astype(complex)

    def contract(g: np.ndarray) -> np.ndarray:
        rows = g.reshape(n, -1)
        out = np.empty(g.shape[1:] + (nx, y_size), np.complex128)
        flat = out.reshape(-1, y_size)
        pairs = max(1, min(rows.shape[1], SLAB_ROWS) * nx * y_size // n)
        if rows.shape[1] == 1:
            blocks = [(0, 1, x0, min(x0 + pairs, nx)) for x0 in range(0, nx, pairs)]
        else:
            blocks = [(r0, r1, 0, nx) for r0, r1 in _blocks(rows.shape[1], max(2, pairs // nx))]
        for r0, r1, x0, x1 in blocks:
            part = rows[:, r0:r1].reshape(m, length, -1).transpose(1, 2, 0)
            sums = np.matmul(part, segments[:, :, x0:x1]).reshape(length, -1)
            finish(sums, flat[r0 * nx + x0:(r1 - 1) * nx + x1])
        return out

    return contract


def _fourier_contraction(geometry: GridGeometry, a: int, y: np.ndarray):
    t = geometry.axis_coordinates(a)
    n = t.size
    # Fourier factor from absolute coordinates: e^{-2 pi i t y} carries the
    # origin phase correction exactly.
    fourier = np.exp(-2j * np.pi * np.outer(t, y))
    m = _fold_step(y * (n * geometry.spacing[a]), n)  # 1 unless y is exactly on the lattice

    def with_windows(windows: np.ndarray):
        nx = windows.shape[0]
        fold = None

        def contract(g: np.ndarray) -> np.ndarray:
            nonlocal fold
            if g.size != n:
                # Several rows: the fold, finished by a GEMM against the
                # first L samples' factor at t y reduced mod 1.
                if fold is None:
                    phase = np.outer(t[:n // m], y)
                    reduced = np.exp(-2j * np.pi * (phase - np.round(phase)))
                    fold = _lattice_fold(windows, m, y.size,
                                         lambda sums, out: np.matmul(sums.T, reduced, out=out))
                return fold(g)
            # One row, windowed at every x: the batched product makes a
            # loop's matrix-vector product per window, bit for bit.
            out = np.empty(g.shape[1:] + (nx, y.size), np.complex128)
            np.matmul((g.reshape(1, n) * windows)[:, None, :], fourier,
                      out=out.reshape(nx, 1, y.size))
            return out

        return contract

    return with_windows


def gabor_transform(f: SignalGrid, phase_geometry: GridGeometry, *, consume=None):
    """Sampled Gabor transform of f on a phase-space grid.

    Each signal axis in turn is contracted against its Fourier factor
    e^{-2 pi i t y}, so any y samples are allowed, in one of the two shapes
    of the module docstring: a single row (d = 1) windowed at every x, or
    several rows folded onto the y lattice (m = 1 where y is off it or one
    bin apart) and finished by a GEMM at t y reduced mod 1.  At m = 1 the
    fold equals a per-window loop with reduced phases bit for bit; at m > 1
    it is within a few ulp of the peak.

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


def _fold_step(k: np.ndarray, n: int) -> int:
    """The largest m dividing n and every bin index k: the y samples sit
    on every m-th bin of the n-point DFT lattice.  1 if some k is not integral."""
    return math.gcd(n, *k.astype(np.int64).tolist()) if np.array_equal(k, np.round(k)) else 1


def _fft_contraction(geometry: GridGeometry, a: int, y: np.ndarray):
    n = geometry.extents[a]
    k = _fft_frequency_indices(y, n, geometry.spacing[a])
    m = _fold_step(k, n)
    origin_phase = np.exp(-2j * np.pi * geometry.origin[a] * y)

    def finish(sums, out):
        # Bins k/m of the L-point FFT are bins k of the n-point one.
        np.multiply(np.fft.fft(sums, axis=0)[k // m].T, origin_phase, out=out)

    return lambda windows: _lattice_fold(windows, m, y.size, finish)


def gabor_transform_fft(f: SignalGrid, phase_geometry: GridGeometry, *, consume=None):
    """The same Riemann sum as gabor_transform, evaluated with batched FFTs.

    Every y sample must sit on the frequency lattice k/(n dt) of its signal
    axis.  Off-lattice y grids are an error, not an approximation: use
    gabor_transform for those.  Each signal axis goes through the lattice
    fold, with m the largest common divisor of n and every bin index k, and
    one L-point FFT finishes each block of segment sums: its bins k/m are
    bins k of the n-point FFT.  The origin phase e^{-2 pi i t0 y} is applied
    afterwards, from the same absolute-coordinate convention as the direct
    path.  At m = 1 (a y step of 1/(n dt)) each term is that of a per-window
    n-point FFT, bit for bit; at m > 1 the fold regroups the sum, within a
    few ulp of the peak.  consume works as in gabor_transform.
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
