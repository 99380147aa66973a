"""Analytic test signals and their closed-form Gabor transforms.

A spec is a signed sum of time-frequency shifted Gaussians: the unit
Gaussian, one shifted Gaussian, or the two bumps f1 +- f2 of the
instability pair.  Each has a closed-form Gabor transform, which the rest of
the package uses as an independent reference for the sampled transform path.
Hermite functions are sampled too, without a closed form.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from .grids import GridGeometry, PhaseSpaceGrid, SignalGrid


def _as_vector(v, d: int, name: str) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (d,):
        raise ValueError(f"{name} must be a length-{d} vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return tuple(float(x) for x in arr)


@dataclass(frozen=True, slots=True)
class AnalyticSignalSpec:
    """A signal on R^d as a signed sum of shifted Gaussian terms.

    Each term (sign, center, frequency) is sign * e^{2 pi i b.t} e^{-pi|t-a|^2}
    with time shift a = center and frequency shift b = frequency, and sign
    +1 or -1.  An error names the first term's vectors center and
    frequency, and those of term k > 1 center<k> and frequency<k>.  Terms
    that cancel exactly, such as two identical bumps of opposite sign, are
    rejected; two identical bumps of equal sign double the signal.
    """

    dimension: int
    terms: tuple[tuple[int, tuple[float, ...], tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        d = int(self.dimension)
        if d < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(self, "dimension", d)
        terms, net = [], collections.Counter()
        for k, (sign, center, frequency) in enumerate(self.terms, start=1):
            if sign not in (-1, 1):
                raise ValueError("two-bump sign must be +1 or -1" if len(self.terms) == 2
                                 else "term signs must be +1 or -1")
            suffix = "" if k == 1 else str(k)
            term = (sign, _as_vector(center, d, "center" + suffix),
                    _as_vector(frequency, d, "frequency" + suffix))
            terms.append(term)
            net[term[1:]] += sign
        if not any(net.values()):
            raise ValueError("a signal whose terms sum to zero cancels exactly")
        object.__setattr__(self, "terms", tuple(terms))


def gaussian_spec(d: int = 1) -> AnalyticSignalSpec:
    return AnalyticSignalSpec(d, ((1, (0.0,) * d, (0.0,) * d),))


def shifted_gaussian_spec(center, frequency) -> AnalyticSignalSpec:
    """The dimension is the length of center."""
    return AnalyticSignalSpec(len(np.atleast_1d(center)), ((1, center, frequency),))


def two_bump_spec(center1, frequency1, center2, frequency2,
                  sign: int = 1) -> AnalyticSignalSpec:
    """bump1 + sign * bump2; the dimension is the length of center1."""
    return AnalyticSignalSpec(len(np.atleast_1d(center1)),
                              ((1, center1, frequency1), (int(sign), center2, frequency2)))


def _signed_sum(spec: AnalyticSignalSpec, term, geometry: GridGeometry) -> np.ndarray:
    """The terms' sum, first to last: the first term (negated for sign -1),
    then values + sign * term(geometry, center, frequency) for each later one."""
    (sign, center, frequency), *rest = spec.terms
    values = term(geometry, center, frequency)
    values = values if sign == 1 else -values
    for sign, center, frequency in rest:
        values = values + sign * term(geometry, center, frequency)
    return values


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
    values = _signed_sum(spec, _bump_values, geometry)
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
    # On a +-8 grid the sum of squares overflows from order about 150 and the
    # values do by order 300: that norm is refused, not divided into zeros or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        values = (np.polynomial.hermite.hermval(np.sqrt(2 * np.pi) * t, coeffs)
                  * np.exp(-np.pi * t * t))
        norm = np.sqrt(np.sum(np.abs(values) ** 2) * geometry.cell_volume)
    if not np.isfinite(norm):
        raise ValueError(f"order {k} overflows float64 on this grid")
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
    values = _signed_sum(spec, _bump_transform, phase_geometry)
    return PhaseSpaceGrid(geometry=phase_geometry, values=values)
