"""Analytic test signals and their closed-form Gabor transforms.

The generator family is deliberately small: the unit Gaussian, the
time-frequency shifted Gaussian, and two-bump superpositions of shifted
Gaussians.  Each member has a closed-form Gabor transform, which the rest of
the package uses as an independent reference for the sampled transform path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridGeometry, PhaseSpaceGrid, SignalGrid

_VALID_KINDS = ("gaussian", "shifted-gaussian", "two-bump")


def _as_vector(v, d: int, name: str) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (d,):
        raise ValueError(f"{name} must be a length-{d} vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return tuple(float(x) for x in arr)


@dataclass(frozen=True, slots=True)
class AnalyticSignalSpec:
    """Parameters for one analytic test signal.

    kind "gaussian": the unit Gaussian e^{-pi|t|^2}.
    kind "shifted-gaussian": e^{2 pi i b.t} e^{-pi|t-a|^2} with time shift a
    and frequency shift b.
    kind "two-bump": bump1 + sign * bump2 for two shifted Gaussians.  The
    exactly cancelling configuration (identical bumps with sign -1) is
    rejected; identical bumps with sign +1 are allowed and double the signal.
    """

    kind: str
    dimension: int
    center: tuple[float, ...] = ()
    frequency: tuple[float, ...] = ()
    center2: tuple[float, ...] = ()
    frequency2: tuple[float, ...] = ()
    sign: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        d = int(self.dimension)
        if d < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(self, "dimension", d)
        zeros = tuple(0.0 for _ in range(d))
        center = _as_vector(self.center, d, "center") if self.center else zeros
        freq = _as_vector(self.frequency, d, "frequency") if self.frequency else zeros
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "frequency", freq)
        if self.kind == "two-bump":
            if self.sign not in (-1, 1):
                raise ValueError("two-bump sign must be +1 or -1")
            c2 = _as_vector(self.center2, d, "center2") if self.center2 else zeros
            f2 = _as_vector(self.frequency2, d, "frequency2") if self.frequency2 else zeros
            object.__setattr__(self, "center2", c2)
            object.__setattr__(self, "frequency2", f2)
            if self.sign == -1 and c2 == center and f2 == freq:
                raise ValueError("two-bump with sign -1 and identical bumps cancels exactly")
        else:
            object.__setattr__(self, "center2", ())
            object.__setattr__(self, "frequency2", ())
            object.__setattr__(self, "sign", 1)


def gaussian_spec(d: int = 1) -> AnalyticSignalSpec:
    return AnalyticSignalSpec(kind="gaussian", dimension=d)


def shifted_gaussian_spec(center, frequency) -> AnalyticSignalSpec:
    """The dimension is the length of center."""
    return AnalyticSignalSpec(kind="shifted-gaussian",
                              dimension=np.atleast_1d(np.asarray(center, float)).shape[0],
                              center=tuple(np.atleast_1d(center)),
                              frequency=tuple(np.atleast_1d(frequency)))


def two_bump_spec(center1, frequency1, center2, frequency2,
                  sign: int = 1) -> AnalyticSignalSpec:
    """The dimension is the length of center1."""
    return AnalyticSignalSpec(kind="two-bump",
                              dimension=np.atleast_1d(np.asarray(center1, float)).shape[0],
                              center=tuple(np.atleast_1d(center1)),
                              frequency=tuple(np.atleast_1d(frequency1)),
                              center2=tuple(np.atleast_1d(center2)),
                              frequency2=tuple(np.atleast_1d(frequency2)),
                              sign=int(sign))


def _bump_values(geometry: GridGeometry, a, b) -> np.ndarray:
    """Samples of e^{2 pi i b.t} e^{-pi |t-a|^2} on the grid."""
    coords = geometry.coordinate_arrays()
    phase = np.zeros(geometry.extents, dtype=float)
    for axis in range(geometry.rank):
        phase = phase + b[axis] * coords[axis]
    return np.exp(-np.pi * geometry.distance_sq(a)) * np.exp(2j * np.pi * phase)


def make_analytic(spec: AnalyticSignalSpec, geometry: GridGeometry) -> SignalGrid:
    """Sample an analytic signal spec on a grid of matching rank."""
    if geometry.rank != spec.dimension:
        raise ValueError(
            f"geometry rank {geometry.rank} does not match signal dimension {spec.dimension}"
        )
    values = _bump_values(geometry, spec.center, spec.frequency)
    if spec.kind == "two-bump":
        values = values + spec.sign * _bump_values(geometry, spec.center2, spec.frequency2)
    return SignalGrid(geometry=geometry, values=values)


def hermite_gaussian(k: int, geometry: GridGeometry) -> SignalGrid:
    """Hermite function of order k matched to the unit Gaussian window, d = 1.

    H_k(sqrt(2 pi) t) e^{-pi t^2}, normalized to unit discrete L^2 norm.
    """
    if geometry.rank != 1:
        raise ValueError("hermite_gaussian is one-dimensional")
    if k < 0:
        raise ValueError("order must be nonnegative")
    t = geometry.axis_coordinates(0)
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    values = np.polynomial.hermite.hermval(np.sqrt(2 * np.pi) * t, coeffs) * np.exp(-np.pi * t * t)
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * geometry.cell_volume)
    if norm == 0.0:
        raise ValueError("grid too coarse for the requested order")
    return SignalGrid(geometry=geometry, values=(values / norm).astype(np.complex128))


# ---------------------------------------------------------------------------
# Closed-form Gabor transforms.
#
# For one axis, with f(t) = e^{2 pi i b t} e^{-pi (t-a)^2}:
#   Gf(x, y) = 2^{-1/2} e^{-pi((x-a)^2 + (y-b)^2)/2} e^{i pi (a+x)(b-y)}
# and the d-dimensional transform is the product over axes.  Verified against
# adaptive quadrature of the defining integral in the test suite.
# ---------------------------------------------------------------------------


def _bump_transform(geometry: GridGeometry, a, b) -> np.ndarray:
    coords = geometry.coordinate_arrays()
    out = None
    for axis in range(geometry.rank // 2):
        x, y = coords[2 * axis], coords[2 * axis + 1]
        factor = (2.0 ** -0.5) * np.exp(-np.pi * ((x - a[axis]) ** 2 + (y - b[axis]) ** 2) / 2.0)
        factor = factor * np.exp(1j * np.pi * (a[axis] + x) * (b[axis] - y))
        out = factor if out is None else out * factor
    return np.broadcast_to(out, geometry.extents).astype(np.complex128)


def analytic_gabor_transform(spec: AnalyticSignalSpec, phase_geometry: GridGeometry) -> PhaseSpaceGrid:
    """Closed-form Gabor transform of an analytic signal on a phase-space grid."""
    if phase_geometry.rank != 2 * spec.dimension:
        raise ValueError("phase geometry rank must be twice the signal dimension")
    values = _bump_transform(phase_geometry, spec.center, spec.frequency)
    if spec.kind == "two-bump":
        values = values + spec.sign * _bump_transform(phase_geometry, spec.center2, spec.frequency2)
    return PhaseSpaceGrid(geometry=phase_geometry, values=values)
