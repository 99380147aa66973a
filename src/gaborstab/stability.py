"""Both sides of the Gabor phase-retrieval stability inequalities.

Given a signal pair (f, g), the left-hand side is the globally
phase-aligned distance inf_{|a|=1} ||Gg - a Gf||_{L^p(Omega)}.  Two upper
bounds are assembled from the spectrogram difference:

* the Cheeger route  ||DS||_p + 2^{9/2} h^{-1} (||grad DS||_p + logderiv),
  valid for 1 <= p <= 2, where h is the Cheeger constant of |Gf|^p on Omega;
* the weighted shape  (1 + h^{-1}) (sobolev_term + weighted_term), for
  admissible (p, q) pairs, with the polynomial weight (1 + |z-z0|^{2d+2})
  anchored at the spectrogram maximum z0.

The canonical instability pair f_plus/minus = f_1 +- f_2 (Gaussians
separated by T) drives the T-sweep: the aligned distance stays order one
while every right-hand term collapses with h as the two bumps disconnect.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import fdiff, gabor
from .cheeger import (ACTIVE_THRESHOLD, BlockSums, check_coarsen_factor, check_weight,
                      sweep_cut_cheeger, weight_from_spectrogram)  # noqa: F401, perfbench wraps it
from .entire import check_logderiv_exponent
from .errors import AdmissibilityError
from .gabor import _boundary_max, gabor_transform, spectrogram
from .grids import (DomainPartition, GridGeometry, PhaseSpaceGrid, SignalGrid, active_mask,
                    box_geometry, box_samples, grid_array)
from .signals import AnalyticSignalSpec, make_analytic, two_bump_spec

LOGDERIV_EXCLUSION = 1e-12
COARSE_SCAN_POINTS = 64
SCAN_HEAVY_LEVEL = 1e-3
GOLDEN_TOL = 1e-10
DEFAULT_CHEEGER_COARSEN = 2
SWEEP_SPACING = 1.0 / 16.0


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def min_report_q(p: float, d: int) -> float:
    return p / (1.0 - p * (2.0 * d - 1.0) / (2.0 * d))


def check_admissible(p: float, q: float, d: int) -> None:
    """Validate the (p, q) exponent pair for dimension d.

    Requires 1 <= p < 1 + 1/(2d-1) and q > p / (1 - p (2d-1)/(2d)), finite.
    """
    if d < 1:
        raise AdmissibilityError("dimension must be at least 1")
    check_logderiv_exponent(p, d)
    qmin = min_report_q(p, d)
    if not np.isfinite(q) or q <= qmin:
        raise AdmissibilityError(
            f"q = {q} must be finite and exceed {qmin} for p = {p}, d = {d}")


# ---------------------------------------------------------------------------
# Phase alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PhaseAlignment:
    """Optimal unimodular factor a = e^{i theta_star} and the aligned distance.

    evaluations counts the search's 64 scan angles, bounded or evaluated in
    full, plus its refinement calls (0 for the closed form and for an empty
    Omega).
    """

    theta_star: float
    residual: float
    method: str
    evaluations: int = 0


def _wrap_angle(theta: float) -> float:
    wrapped = float(theta) % (2.0 * math.pi)
    return 0.0 if wrapped >= 2.0 * math.pi else wrapped


def _brent_minimize(f, a: float, b: float, x: float, fx: float,
                    tol: float) -> tuple[float, float, int]:
    """Brent's parabolic minimization of f on [a, b], started from the point x.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5,
    with a purely absolute tolerance.  x must carry the smallest value fx
    known so far.  x only ever moves to a point that is at least as low,
    and for a unimodal f the result (x, fx, calls) has its minimizer within
    tol of x.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    v = w = x
    fv = fw = fx
    d = e = 0.0
    tol1 = 0.5 * tol
    calls = 0
    while abs(x - 0.5 * (a + b)) > tol - 0.5 * (b - a):
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if x + d - a < tol or b - (x + d) < tol:
                    d = tol1 if x < mid else -tol1
        if not parabolic:
            e = (a if x >= mid else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        calls += 1
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, calls


def _scan(power_sum, objective, sel1: np.ndarray, sel2: np.ndarray, p: float,
          vol: float, thetas: np.ndarray) -> np.ndarray:
    """The objective at every scan angle that can hold the scan minimum, +inf elsewhere.

    power_sum(theta, a1, a2) is sum |a2 - e^{i theta} a1|^p vol, and
    objective(theta) is power_sum(theta, sel1, sel2)^(1/p).  Over the heavy
    cells, amp = |s1| + |s2| >= SCAN_HEAVY_LEVEL max(amp), power_sum is a
    lower bound L_j at each angle.  The light cells add at most
    sum (|s1| + |s2|)^p vol at any angle (triangle inequality), so L_j plus
    that sum is an upper bound U_j.  The objective is evaluated wherever
    L_j (1 - 1e-9) > min U (1 + 1e-9) does not hold.  The slack is far above
    the rounding of either sum, and a NaN or inf bound prunes nothing, so
    every angle that ties the minimum is evaluated and np.argmin of the
    result is that of the full scan.  When every cell is heavy, the bound
    passes are the scan.
    """
    amp = np.abs(sel1)
    amp += np.abs(sel2)
    heavy = amp >= SCAN_HEAVY_LEVEL * np.max(amp)
    if heavy.all():
        return np.array([objective(t) for t in thetas])
    light_mass = float(np.sum(amp[~heavy] if p == 1.0 else amp[~heavy] ** p) * vol)
    del amp  # not held through the bound passes
    h1, h2 = sel1[heavy], sel2[heavy]
    lower = np.array([power_sum(t, h1, h2) for t in thetas])
    upper = lower + light_mass
    coarse = np.full(thetas.shape, math.inf)
    for j in np.flatnonzero(~(lower * (1.0 - 1e-9) > np.min(upper) * (1.0 + 1e-9))):
        coarse[j] = objective(thetas[j])
    return coarse


@dataclass(frozen=True, slots=True)
class PackedField:
    """A complex phase-space field held only at the True cells of mask.

    values is the row-major gather F.values[mask]; mask None holds every
    cell.  The alignment reads a field only on Omega, so a report packs
    each transform slab by slab and never holds the full grid.
    """

    geometry: GridGeometry
    mask: np.ndarray | None
    values: np.ndarray

    def select(self, mask: np.ndarray | None) -> np.ndarray:
        """The values at the cells of a full-grid mask, every held cell for None.

        Raises ValueError when the mask reaches a cell that is not held.
        """
        if mask is None:
            return self.values
        held = mask.ravel() if self.mask is None else mask[self.mask]
        if np.count_nonzero(held) != np.count_nonzero(mask):
            raise ValueError("mask reaches cells that the packed field does not hold")
        return self.values if held.all() else self.values[held]


def _held(F: PhaseSpaceGrid | PackedField) -> PackedField:
    return F if isinstance(F, PackedField) else PackedField(F.geometry, None, F.values.ravel())


def align_phase_global(F1: PhaseSpaceGrid | PackedField, F2: PhaseSpaceGrid | PackedField,
                       p: float, mask: np.ndarray | None = None,
                       force_search: bool = False) -> PhaseAlignment:
    """Minimize theta -> ||F2 - e^{i theta} F1||_{L^p(Omega)} over the circle.

    p = 2 has the closed form a* = <F2, F1>/|<F2, F1>| (a* = 1 for a zero
    inner product).  Other p scan 64 equispaced angles, then refine the
    offset from the best scan point over its two neighbouring intervals by
    Brent's parabolic method, to an absolute tolerance of GOLDEN_TOL = 1e-10
    in theta.  The scan is certified (_scan): it evaluates over all of
    Omega only the angles that can hold its minimum, and returns the argmin
    and value of the full 64-point scan.  The refinement starts from the
    scan point and only moves to points at least as low, so a minimum with
    a corner exactly on a scan point (theta = 0 or pi, as for F2 = +-F1 on
    Omega) is returned at that point.  An empty Omega gives theta = 0 and
    residual 0.  force_search runs the search path at p = 2 as well, for
    cross-checking the closed form.

    F1 and F2 may also be PackedFields that hold the same cells; mask None
    then means every held cell, and a mask must lie inside them.  The
    packed values are those of the full grids, so the result is the same
    bit for bit.
    """
    if F1.geometry != F2.geometry:
        raise ValueError("phase-space grids must share one geometry")
    _check_exponent(p)
    geom = F1.geometry
    P1, P2 = _held(F1), _held(F2)
    if P1.mask is not P2.mask and not np.array_equal(P1.mask, P2.mask):
        raise ValueError("packed fields must hold the same cells")
    mask = active_mask(mask, geom.extents)
    sel1, sel2 = P1.select(mask), P2.select(mask)
    vol = geom.cell_volume
    if p == 2.0 and not force_search:
        inner = complex(np.sum(sel2 * np.conj(sel1)) * vol)
        theta = _wrap_angle(np.angle(inner)) if inner != 0 else 0.0
        n1 = float(np.sum(np.abs(sel1) ** 2) * vol)
        n2 = float(np.sum(np.abs(sel2) ** 2) * vol)
        residual_sq = max(n1 + n2 - 2.0 * abs(inner), 0.0)
        return PhaseAlignment(theta_star=theta, residual=math.sqrt(residual_sq),
                              method="closed-form")
    if sel1.size == 0:
        return PhaseAlignment(theta_star=0.0, residual=0.0, method="search")

    # Every pass fills two buffers of the packed size in place (a bound pass
    # their leading parts), which spares it full-grid temporaries.
    diff = np.empty_like(sel1)
    mag = np.empty(sel1.shape)

    def power_sum(theta: float, a1: np.ndarray, a2: np.ndarray) -> float:
        d, m = diff[:a1.size], mag[:a1.size]
        np.multiply(np.exp(1j * theta), a1, out=d)
        np.subtract(a2, d, out=d)
        np.abs(d, out=m)
        return float(np.sum(m if p == 1.0 else m ** p) * vol)

    def objective(theta: float) -> float:
        return power_sum(theta, sel1, sel2) ** (1.0 / p)

    thetas = 2.0 * math.pi * np.arange(COARSE_SCAN_POINTS) / COARSE_SCAN_POINTS
    coarse = _scan(power_sum, objective, sel1, sel2, p, vol, thetas)
    k = int(np.argmin(coarse))
    step = 2.0 * math.pi / COARSE_SCAN_POINTS
    delta, residual, calls = _brent_minimize(
        lambda offset: objective(_wrap_angle(thetas[k] + offset)),
        -step, step, 0.0, float(coarse[k]), GOLDEN_TOL)
    return PhaseAlignment(theta_star=_wrap_angle(thetas[k] + delta), residual=residual,
                          method="search", evaluations=COARSE_SCAN_POINTS + calls)


@dataclass(frozen=True, slots=True)
class MulticomponentAlignment:
    """Independent optimal phases per partition component.

    total_residual is the sum of the component residuals: the aligned
    distance achievable when each subdomain carries its own unimodular
    constant.
    """

    alignments: tuple[PhaseAlignment, ...]
    total_residual: float


def align_phase_multicomponent(F1: PhaseSpaceGrid | PackedField,
                               F2: PhaseSpaceGrid | PackedField, p: float,
                               partition: DomainPartition) -> MulticomponentAlignment:
    """Align the phase independently on every component of the partition.

    Packed fields must hold every active cell of the partition.
    """
    _check_partition(partition, F1.geometry)
    parts = tuple(align_phase_global(F1, F2, p, mask=partition.component(i))
                  for i in range(1, partition.num_components + 1))
    return MulticomponentAlignment(alignments=parts,
                                   total_residual=float(sum(a.residual for a in parts)))


def _check_partition(partition: DomainPartition, geometry: GridGeometry) -> None:
    """A partition must live on the phase-space grid and no component may be empty."""
    if partition.geometry != geometry:
        raise ValueError("partition must live on the phase-space grid")
    sizes = np.bincount(partition.labels.ravel(), minlength=partition.num_components + 1)
    if not sizes[1:].all():
        raise ValueError(f"partition component {int(np.argmin(sizes[1:])) + 1} is empty")


# ---------------------------------------------------------------------------
# Norm terms of the right-hand sides
# ---------------------------------------------------------------------------


def _check_exponent(value: float, name: str = "p") -> None:
    """Every L^p quadrature needs a finite exponent of at least 1."""
    if not np.isfinite(value) or value < 1.0:
        raise AdmissibilityError(f"{name} = {value} must be finite and >= 1")


def _lp_norm(packed: np.ndarray, geometry: GridGeometry, p: float) -> float:
    """L^p quadrature with cell-volume weights over values already selected."""
    return float(np.sum(np.abs(packed) ** p) * geometry.cell_volume) ** (1.0 / p)


def _shape_weight(geometry: GridGeometry, z0, cells: fdiff.MaskCells) -> np.ndarray:
    """The weight 1 + |z - z0|^{2d+2} at the cells.

    The cells are walked fdiff.STENCIL_BLOCK at a time, so the per-axis
    index and coordinate temporaries stay block-sized; every cell gets the
    same operations as in one pass over all of them.
    """
    out = np.empty(cells.flat_index.size)
    for lo in range(0, out.size, fdiff.STENCIL_BLOCK):
        block = slice(lo, lo + fdiff.STENCIL_BLOCK)
        index = np.unravel_index(cells.flat_index[block], geometry.extents)
        out[block] = 1.0 + geometry.distance_sq(z0, index) ** (geometry.rank // 2 + 1)
    return out


def _at_cells(cells: fdiff.MaskCells, *fields: np.ndarray) -> list[np.ndarray]:
    """A norm term's real fields, packed at the cells of Omega in cell order
    (MaskCells.pack packs a full grid), as floats; ValueError for another length."""
    return [cells.packed(np.asarray(v, float)) for v in fields]


def sobolev_diff_pieces(s1: np.ndarray, s2: np.ndarray, p: float,
                        cells: fdiff.MaskCells) -> tuple[float, float]:
    """(value, gradient) L^p norms of the spectrogram difference.

    Gradients are mask-aware central differences, one-sided at the mask
    boundary.
    """
    s1, s2 = _at_cells(cells, s1, s2)
    _check_exponent(p)
    geom = cells.geometry
    return (_lp_norm(s1 - s2, geom, p),
            _lp_norm(cells.difference_gradient_norm(s1, s2), geom, p))


def sobolev_diff_norm(s1: np.ndarray, s2: np.ndarray, p: float, cells: fdiff.MaskCells) -> float:
    """W^{1,p}(Omega) norm of |Gf| - |Gg|: value plus gradient L^p norms."""
    value, grad = sobolev_diff_pieces(s1, s2, p, cells)
    return value + grad


def weighted_lq_diff_norm(s1: np.ndarray, s2: np.ndarray, q: float, z0,
                          cells: fdiff.MaskCells) -> float:
    """L^q norm of (1 + |z - z0|^{2d+2}) (|Gf| - |Gg|) over Omega, for q >= 1."""
    s1, s2 = _at_cells(cells, s1, s2)
    _check_exponent(q, "q")
    geom = cells.geometry
    return _lp_norm(_shape_weight(geom, z0, cells) * (s1 - s2), geom, q)


class LogDerivTerm(NamedTuple):
    value: float
    excluded_mass_fraction: float


def logderiv_term(s1: np.ndarray, s2: np.ndarray, p: float,
                  cells: fdiff.MaskCells) -> LogDerivTerm:
    """L^p norm of (grad |Gf| / |Gf|) (|Gf| - |Gg|) over the included cells.

    Cells with |Gf| below 1e-12 of its maximum over the cells are excluded
    from the quadrature; the fraction of spectrogram mass they carry is
    reported.  Omega holds the maximum of |Gf| over the grid, so on Omega
    the two maxima agree.
    """
    s1, s2 = _at_cells(cells, s1, s2)
    _check_exponent(p)
    geom = cells.geometry
    peak = float(s1.max(initial=0.0))
    if peak <= 0:
        raise ValueError("reference spectrogram is identically zero on the cells")
    keep = s1 > LOGDERIV_EXCLUSION * peak
    total = float(s1.sum())
    excluded_mass = float(s1[~keep].sum())
    if not keep.all():
        # The stencil runs on the included cells only.
        included = np.zeros(geom.extents, bool)
        np.put(included, cells.flat_index[keep], True)
        cells, s1, s2 = fdiff.MaskCells(geom, included), s1[keep], s2[keep]
    value = _lp_norm(cells.gradient_norm(s1) / s1 * (s1 - s2), geom, p)
    fraction = excluded_mass / total if total > 0 else 0.0
    return LogDerivTerm(value=value, excluded_mass_fraction=fraction)


def dnorm(values: np.ndarray, p: float, q: float, z0, cells: fdiff.MaskCells) -> float:
    """Noise-space norm of a packed real field: W^{1,p}(Omega) plus the weighted L^q norm."""
    geometry = cells.geometry
    check_admissible(p, q, geometry.rank // 2)
    (values,) = _at_cells(cells, values)
    weight = _shape_weight(geometry, z0, cells)
    return (_lp_norm(values, geometry, p)
            + _lp_norm(cells.gradient_norm(values), geometry, p)
            + _lp_norm(weight * values, geometry, q))


# ---------------------------------------------------------------------------
# Noise fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NoiseSpec:
    """A smooth real perturbation of the spectrogram on Omega."""

    values: np.ndarray
    geometry: GridGeometry

    def __post_init__(self) -> None:
        vals = grid_array(self.values, self.geometry.extents, float, "noise")
        if not np.all(np.isfinite(vals)):
            raise ValueError("noise values must be finite")
        object.__setattr__(self, "values", vals)


def noise_gaussian_bump(geometry: GridGeometry, amplitude: float, width: float,
                        center=None) -> NoiseSpec:
    """Gaussian bump amplitude * e^{-|z-c|^2 / (2 width^2)}."""
    if width <= 0:
        raise ValueError("width must be positive")
    r2 = geometry.distance_sq(center)
    return NoiseSpec(values=float(amplitude) * np.exp(-r2 / (2.0 * width * width)),
                     geometry=geometry)


def noise_band_limited(geometry: GridGeometry, amplitude: float, cutoff: int,
                       seed: int) -> NoiseSpec:
    """Seeded band-limited noise, peak-normalized to the given amplitude.

    White noise on the grid is low-passed by zeroing all DFT modes with any
    axis frequency index above the cutoff; the result is smooth at grid
    scale and reproducible from the seed.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(geometry.extents)
    spec = np.fft.fftn(white)
    for a in range(geometry.rank):
        freq = np.abs(np.fft.fftfreq(geometry.extents[a], d=1.0) * geometry.extents[a])
        shape = [1] * geometry.rank
        shape[a] = geometry.extents[a]
        spec = spec * (freq.reshape(shape) <= cutoff)
    smooth = np.fft.ifftn(spec).real
    peak = float(np.abs(smooth).max())
    if peak == 0.0:
        raise ValueError("band-limited field vanished; raise the cutoff")
    return NoiseSpec(values=float(amplitude) * smooth / peak, geometry=geometry)


# ---------------------------------------------------------------------------
# Instability construction
# ---------------------------------------------------------------------------


def _instability_specs(T: float, d: int) -> list[AnalyticSignalSpec]:
    """f_plus/minus = f_1 +- f_2: unit Gaussians at -T/2 and +T/2 on axis 0."""
    c1 = (-T / 2.0,) + (0.0,) * (d - 1)
    c2 = (+T / 2.0,) + (0.0,) * (d - 1)
    return [two_bump_spec(c1, (0.0,) * d, c2, (0.0,) * d, sign=s) for s in (+1, -1)]


def make_instability_pair(d: int, T: float, geometry: GridGeometry) -> tuple[SignalGrid, SignalGrid]:
    """f_plus/minus = f_1 +- f_2: unit Gaussians at -T/2 and +T/2 on axis 0.

    The grid must contain both bumps: the samples of either combination on
    the grid boundary must be negligible against the peak.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"separation T must be positive and finite, got {T}")
    f_plus, f_minus = (make_analytic(spec, geometry) for spec in _instability_specs(T, d))
    peak = float(np.abs(f_plus.values).max())
    for grid in (f_plus, f_minus):
        edge = _boundary_max(grid.values)
        if edge > gabor.BOUNDARY_DECAY_TOL * peak:
            raise ValueError(
                f"boundary magnitude {edge:.3e} shows the grid cannot contain "
                f"both bumps at separation T = {T}")
    return f_plus, f_minus


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CheegerRouteCheck:
    """Terms of the meromorphic-quotient stability bound for 1 <= p <= 2.

    rhs = value_term + 2^{9/2} h^{-1} (gradient_term + logderiv value);
    slack = lhs / rhs reports how tight the inequality is.
    """

    lhs: float
    value_term: float
    gradient_term: float
    logderiv: LogDerivTerm
    h: float
    rhs: float

    @property
    def slack(self) -> float:
        return _finite_ratio(self.lhs, self.rhs)


def cheeger_route_terms(F1: PhaseSpaceGrid, F2: PhaseSpaceGrid, p: float,
                        mask: np.ndarray, h: float) -> CheegerRouteCheck:
    """Assemble lhs and the Cheeger-route rhs from transforms and a given h.

    Valid for 1 <= p <= 2 (the Poincare bound range); h should be the
    Cheeger constant of |Gf|^p on Omega, exhaustive when affordable.
    """
    if not (1.0 <= p <= 2.0):
        raise AdmissibilityError(f"the Cheeger-route bound needs 1 <= p <= 2, got {p}")
    if h < 0:
        raise ValueError("h must be nonnegative")
    cells = fdiff.MaskCells(F1.geometry, mask)
    lhs = align_phase_global(F1, F2, p, mask=cells.mask).residual
    s1, s2 = (cells.pack(spectrogram(F).values) for F in (F1, F2))
    return _route_terms(lhs, s1, s2, p, cells, h)


def _route_terms(lhs: float, s1: np.ndarray, s2: np.ndarray, p: float,
                 cells: fdiff.MaskCells, h: float) -> CheegerRouteCheck:
    """The Cheeger-route terms from |Gf|, |Gg| packed on Omega, given the lhs."""
    value, grad = sobolev_diff_pieces(s1, s2, p, cells)
    ld = logderiv_term(s1, s2, p, cells)
    factor = math.inf if h == 0.0 else 2.0 ** 4.5 / h
    return CheegerRouteCheck(lhs=lhs, value_term=value, gradient_term=grad,
                             logderiv=ld, h=h, rhs=value + factor * (grad + ld.value))


@dataclass(frozen=True, slots=True)
class StabilityReport:
    """Every scalar term of the stability comparison for one signal pair."""

    p: float
    q: float
    d: int
    lhs: float
    h_upper: float
    h_oracle: float | None
    fiedler_value: float
    disconnected: bool
    z0: tuple[float, ...]
    value_term: float
    gradient_term: float
    sobolev_term: float
    weighted_term: float
    logderiv_term: float
    logderiv_excluded_mass: float
    rhs_cheeger_route: float
    rhs_weighted_shape: float
    ratio: float
    component_residuals: tuple[float, ...] | None = None
    multicomponent_residual: float | None = None
    noise_epsilon: float | None = None
    noise_gamma_dnorm: float | None = None
    noise_bound: float | None = None

    def to_dict(self) -> dict:
        """The fields as JSON values, leaving out the optional ones that are None."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def default_phase_geometry(d: int) -> GridGeometry:
    """Desk-scale phase-space boxes: [-4, 4]^2 at 1/16 (d=1), [-4, 4]^4 at 1/2."""
    if d == 1:
        return box_geometry((129, 129), -4.0, 4.0)
    if d == 2:
        return box_geometry((17,) * 4, -4.0, 4.0)
    raise ValueError("phase-space grids are desk-scale only for d in {1, 2}")


def _finite_ratio(lhs: float, rhs: float) -> float:
    if math.isinf(rhs):
        return 0.0
    if rhs == 0.0:
        return math.inf if lhs > 0 else 0.0
    return lhs / rhs


def stability_report(f: SignalGrid, g: SignalGrid, p: float, q: float,
                     partition: DomainPartition | None = None,
                     noise: NoiseSpec | None = None,
                     phase_geometry: GridGeometry | None = None,
                     cheeger_coarsen: int = DEFAULT_CHEEGER_COARSEN) -> StabilityReport:
    """Full stability comparison for the signal pair (f, g).

    Computes both transforms on the phase grid (the desk-scale default
    for the signal dimension when none is given) and assembles every term
    from them.
    """
    if f.geometry != g.geometry:
        raise ValueError("signals must share one geometry")
    d = f.geometry.rank
    check_admissible(p, q, d)
    pg = default_phase_geometry(d) if phase_geometry is None else phase_geometry
    return _assemble_terms([functools.partial(gabor_transform, x, pg) for x in (f, g)], pg,
                           p, q, partition, noise, cheeger_coarsen)


def _whole(make):
    """A field that is made whole, make() -> PhaseSpaceGrid, as a transform
    with a consume argument: one slab."""
    def slabs():
        yield make().values

    return lambda consume: consume(slabs())


def _weight_and_superset(slabs, geometry: GridGeometry, p: float, k: int,
                         extra: np.ndarray | None):
    """z0, Omega, the held cells (flat), the Cheeger weight of |F|^p coarsened
    by k and the packed slabs of F fed in row-major slabs, with no full |F|.

    Each slab's moduli feed FirstPeak, the running maximum and, raised to p,
    BlockSums.  The slab is packed on its cells with |F| >= ACTIVE_THRESHOLD
    times the largest modulus so far, or True in extra (a flat bool grid, or
    None): a superset of Omega, which is rebuilt from it.  The Spectrogram's
    and the fine weight's checks run in order (mass > 0 iff the peak's is).
    """
    first, sums = gabor.FirstPeak(), BlockSums(geometry, k)
    held = np.empty(geometry.num_cells, bool)
    pieces, peak, top, start = [], 0.0, 0.0, 0
    for slab in slabs:
        flat = slab.reshape(-1)
        stop = start + flat.size
        mod = np.abs(flat)
        first.feed(mod)
        # A NaN leaves the running maxima; first.cell() then refuses it.
        peak = max(peak, float(mod.max()))
        cut = np.greater_equal(mod, ACTIVE_THRESHOLD * peak, out=held[start:stop])
        if extra is not None:
            cut |= extra[start:stop]
        pieces.append(flat[cut])
        weight = mod if p == 1.0 else mod ** p
        top = max(top, float(weight.max()))
        sums.add(weight)
        start = stop
        del slab, flat, mod, weight  # not held while the next slab is computed
    index = first.cell()[0]
    if peak <= 0.0:
        raise ValueError("f has a zero spectrogram; the weight w = |Gf|^p is degenerate")
    omega = np.zeros(geometry.extents, bool)
    omega.ravel()[held] = np.concatenate([np.abs(x) >= ACTIVE_THRESHOLD * peak for x in pieces])
    check_weight(math.isfinite(top), np.count_nonzero(omega), lambda: top)
    z0 = geometry.index_coordinates(tuple(map(int, np.unravel_index(index, geometry.extents))))
    return z0, omega, held, sums.weight(omega), pieces


def _pack_slabs(slabs, cells: np.ndarray) -> np.ndarray:
    """The complex values of row-major slabs at the True cells of a flat bool grid."""
    out = np.empty(np.count_nonzero(cells), np.complex128)
    start = at = 0
    for slab in slabs:
        flat = slab.reshape(-1)
        take = cells[start:start + flat.size]
        n = np.count_nonzero(take)
        np.compress(take, flat, out=out[at:at + n])
        start, at = start + flat.size, at + n
        del slab, flat  # not held while the next slab is computed
    return out


def _assemble_terms(transforms, pg: GridGeometry, p: float, q: float,
                    partition: DomainPartition | None, noise: NoiseSpec | None,
                    cheeger_coarsen: int) -> StabilityReport:
    """Every term of the stability comparison from the transforms of f and g.

    Builds the active mask Omega = {|Gf| >= 1e-9 max}, z0 = argmax |Gf|,
    the Cheeger estimate of |Gf|^p on Omega (on a block-coarsened grid for
    tractability), and every term of the two right-hand sides.  With a
    partition, component-wise alignment is added; with a NoiseSpec gamma,
    the achieved noise level epsilon = dnorm(|Gf| + gamma - |Gg|) and the
    noise bound (1 + h^{-1}) (epsilon + dnorm(gamma)) are added.

    transforms holds two calls, for Gf and for Gg on the phase grid pg, that
    take a consume argument as gabor_transform does.  Every argument is
    checked before the first of them runs.  No full |Gf| or |Gg| is held,
    and a full complex field only as a single slab (d = 1, a closed form):
      1. Gf's slabs give z0, Omega and the coarse weight (_weight_and_superset)
         and are packed on a superset of keep (Omega, or Omega and the
         partition's active cells), cut down to keep once Omega is known.
      2. The Cheeger solve runs, then the coarse weight is dropped.
      3. Gg's slabs are packed on keep.
      4. The packed pair is aligned (per component too, with a partition),
         |Gf| and |Gg| on Omega are taken as the moduli of the packed
         values, and the packed pair is dropped.  Every norm term runs on
         the packed moduli, through one MaskCells of Omega.
    """
    coarsen = check_coarsen_factor(cheeger_coarsen)
    if partition is not None:
        _check_partition(partition, pg)
    extra = None if partition is None else partition.active.ravel()
    if noise is not None and noise.geometry != pg:
        raise ValueError("noise field must live on the phase-space grid")
    transform_f, transform_g = transforms
    z0, omega, held, weight, pieces = transform_f(
        consume=lambda slabs: _weight_and_superset(slabs, pg, p, coarsen, extra))
    keep = omega.ravel() if extra is None else omega.ravel() | extra
    packed_on = None if keep.all() else keep.reshape(pg.extents)
    P1 = PackedField(pg, packed_on, _pack_slabs(pieces, keep[held]))
    del held, pieces
    est = sweep_cut_cheeger(weight)
    del weight
    h = est.h
    P2 = PackedField(pg, packed_on, transform_g(consume=lambda slabs: _pack_slabs(slabs, keep)))
    # Without a partition the packed cells are Omega: mask None reads them all.
    lhs = align_phase_global(P1, P2, p, mask=None if partition is None else omega).residual
    multi = None if partition is None else align_phase_multicomponent(P1, P2, p, partition)
    s1, s2 = np.abs(P1.select(omega)), np.abs(P2.select(omega))
    del P1, P2
    cells = fdiff.MaskCells(pg, omega)
    route = _route_terms(lhs, s1, s2, p, cells, h)
    sobolev = route.value_term + route.gradient_term
    weighted = weighted_lq_diff_norm(s1, s2, q, z0, cells)
    shape_factor = math.inf if h == 0.0 else 1.0 + 1.0 / h
    rhs_shape = shape_factor * (sobolev + weighted)
    report = {
        "p": float(p), "q": float(q), "d": pg.rank // 2,
        "lhs": route.lhs,
        "h_upper": est.h_upper,
        "h_oracle": est.h_oracle,
        "fiedler_value": est.fiedler_value,
        "disconnected": est.disconnected,
        "z0": tuple(float(c) for c in z0),
        "value_term": route.value_term,
        "gradient_term": route.gradient_term,
        "sobolev_term": sobolev,
        "weighted_term": weighted,
        "logderiv_term": route.logderiv.value,
        "logderiv_excluded_mass": route.logderiv.excluded_mass_fraction,
        "rhs_cheeger_route": route.rhs,
        "rhs_weighted_shape": rhs_shape,
        "ratio": _finite_ratio(route.lhs, rhs_shape),
    }
    if multi is not None:
        report["component_residuals"] = tuple(a.residual for a in multi.alignments)
        report["multicomponent_residual"] = multi.total_residual
    if noise is not None:
        gamma = cells.pack(noise.values)
        gamma_dnorm = dnorm(gamma, p, q, z0, cells)
        achieved = s1 + gamma
        achieved -= s2
        epsilon = dnorm(achieved, p, q, z0, cells)
        report["noise_epsilon"] = epsilon
        report["noise_gamma_dnorm"] = gamma_dnorm
        report["noise_bound"] = shape_factor * (epsilon + gamma_dnorm)
    return StabilityReport(**report)


# ---------------------------------------------------------------------------
# T-sweep of the canonical instability
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class InstabilityRow:
    """One T-sweep row: separation, Cheeger estimate, lhs, rhs pieces.

    ratio here is lhs / (sobolev + weighted), the h-free shape of the bound:
    it grows exactly as fast as the weight disconnects.
    """

    T: float
    h: float
    lhs: float
    sobolev: float
    weighted: float
    ratio: float


def _finite_separation(T: float) -> float:
    if not math.isfinite(T):
        raise ValueError(f"T = {T} must be finite")
    return T


def instability_signal_geometry(T: float) -> GridGeometry:
    """Signal box for the d = 1 pair: t in +-(T/2 + 5) at spacing 1/32.

    A non-finite T, or a box over grids.MAX_GRID_CELLS samples, raises
    ValueError.
    """
    half = _finite_separation(T) / 2.0 + 5.0
    (n,) = box_samples((2 * half,), 1.0 / 32.0, f"the signal grid for T = {T}")
    return box_geometry((n,), -half, half)


def sweep_phase_geometry(T: float, spacing: float = SWEEP_SPACING) -> GridGeometry:
    """Phase box wide enough for bumps at -+T/2: x in +-(T/2 + 4), y in +-4.

    A non-finite T, or a box over grids.MAX_GRID_CELLS cells, raises
    ValueError.
    """
    if not spacing > 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    half = _finite_separation(T) / 2.0 + 4.0
    nx, ny = box_samples((2 * half, 8.0), spacing,
                         f"the phase grid for T = {T} at spacing {spacing}")
    return box_geometry((nx, ny), (-half, -4.0), (half, 4.0))


def instability_sweep(T_values, p: float = 1.0, q: float = 3.0,
                      spacing: float = SWEEP_SPACING,
                      cheeger_coarsen: int = DEFAULT_CHEEGER_COARSEN) -> list[InstabilityRow]:
    """Evaluate the instability pair over a list of separations T (d = 1).

    Transforms use the closed forms of the two-bump signals, exact up to
    rounding, on a phase box that widens with T.
    """
    from .signals import analytic_gabor_transform

    check_admissible(p, q, 1)
    # Every phase grid is sized before the first row is computed, so a T
    # that cannot be run fails at once.
    grids = [(float(T), sweep_phase_geometry(float(T), spacing)) for T in T_values]
    rows = []
    for T, pg in grids:
        transforms = [_whole(functools.partial(analytic_gabor_transform, spec, pg))
                      for spec in _instability_specs(T, 1)]
        r = _assemble_terms(transforms, pg, p, q, None, None, cheeger_coarsen)
        rows.append(InstabilityRow(
            T=T, h=r.h_upper if r.h_oracle is None else r.h_oracle, lhs=r.lhs,
            sobolev=r.sobolev_term, weighted=r.weighted_term,
            ratio=_finite_ratio(r.lhs, r.sobolev_term + r.weighted_term)))
    return rows
