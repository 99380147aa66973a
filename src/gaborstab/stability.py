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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fdiff
from .cheeger import ACTIVE_THRESHOLD, sweep_cut_cheeger, weight_from_spectrogram
from .entire import max_admissible_p as max_report_p
from .errors import AdmissibilityError
from .gabor import Spectrogram, _boundary_max, gabor_transform, spectrogram
from .grids import DomainPartition, GridGeometry, PhaseSpaceGrid, SignalGrid, box_geometry
from .signals import make_analytic, two_bump_spec

LOGDERIV_EXCLUSION = 1e-12
COARSE_SCAN_POINTS = 64
GOLDEN_TOL = 1e-10
DEFAULT_CHEEGER_COARSEN = 2


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
    if not np.isfinite(p) or p < 1.0 or p >= max_report_p(d):
        raise AdmissibilityError(
            f"p = {p} outside [1, {max_report_p(d)}) for d = {d}")
    qmin = min_report_q(p, d)
    if not np.isfinite(q) or q <= qmin:
        raise AdmissibilityError(
            f"q = {q} must be finite and exceed {qmin} for p = {p}, d = {d}")


# ---------------------------------------------------------------------------
# L^p quadrature helpers
# ---------------------------------------------------------------------------


def _cells(geometry: GridGeometry,
           mask: np.ndarray | fdiff.MaskCells | None) -> fdiff.MaskCells:
    """The cells of Omega: a bool mask (None for the whole grid) or a MaskCells.

    A report builds one MaskCells and passes it to every norm term, so its
    neighbor tables are built once.
    """
    if isinstance(mask, fdiff.MaskCells):
        if mask.geometry != geometry:
            raise ValueError("mask cells belong to another grid")
        return mask
    return fdiff.MaskCells(geometry, mask)


def _lp_norm(packed: np.ndarray, geometry: GridGeometry, p: float) -> float:
    """L^p quadrature over cells already packed, e.g. by ``fdiff.MaskCells``."""
    return float(np.sum(np.abs(packed) ** p) * geometry.cell_volume) ** (1.0 / p)


def _distance_sq_to(geometry: GridGeometry, z0,
                    index: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """|z - z0|^2 over the grid, or at the cells of a per-axis multi-index."""
    z0 = np.asarray(z0, float)
    if z0.shape != (geometry.rank,):
        raise ValueError("z0 must have one coordinate per grid axis")
    if index is None:
        coords = geometry.coordinate_arrays()
        r2 = np.zeros(geometry.extents)
    else:
        coords = [geometry.axis_coordinates(a)[i] for a, i in enumerate(index)]
        r2 = np.zeros(index[0].shape)
    for a in range(geometry.rank):
        r2 = r2 + (coords[a] - z0[a]) ** 2
    return r2


# ---------------------------------------------------------------------------
# Phase alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PhaseAlignment:
    """Optimal unimodular factor a = e^{i theta_star} and the aligned distance."""

    theta_star: float
    residual: float
    method: str


def _wrap_angle(theta: float) -> float:
    wrapped = float(theta) % (2.0 * math.pi)
    return 0.0 if wrapped >= 2.0 * math.pi else wrapped


def align_phase_global(F1: PhaseSpaceGrid, F2: PhaseSpaceGrid, p: float,
                       mask: np.ndarray | None = None,
                       force_search: bool = False) -> PhaseAlignment:
    """Minimize theta -> ||F2 - e^{i theta} F1||_{L^p(Omega)} over the circle.

    p = 2 has the closed form a* = <F2, F1>/|<F2, F1>| (a* = 1 for a zero
    inner product); other p run a 64-point coarse scan followed by
    golden-section refinement to |delta theta| <= 1e-10.  force_search runs
    the search path at p = 2 as well, for cross-checking the closed form.
    """
    if F1.geometry != F2.geometry:
        raise ValueError("phase-space grids must share one geometry")
    if not np.isfinite(p) or p < 1.0:
        raise AdmissibilityError(f"p = {p} must be >= 1")
    geom = F1.geometry
    v1, v2 = F1.values, F2.values
    if mask is None:
        sel1, sel2 = v1.ravel(), v2.ravel()
    else:
        mask = np.asarray(mask, bool)
        if mask.shape != geom.extents:
            raise ValueError("mask shape does not match grid extents")
        sel1, sel2 = v1[mask], v2[mask]
    vol = geom.cell_volume
    if p == 2.0 and not force_search:
        inner = complex(np.sum(sel2 * np.conj(sel1)) * vol)
        theta = _wrap_angle(np.angle(inner)) if inner != 0 else 0.0
        n1 = float(np.sum(np.abs(sel1) ** 2) * vol)
        n2 = float(np.sum(np.abs(sel2) ** 2) * vol)
        residual_sq = max(n1 + n2 - 2.0 * abs(inner), 0.0)
        return PhaseAlignment(theta_star=theta, residual=math.sqrt(residual_sq),
                              method="closed-form")

    # The search evaluates the objective ~110 times; filling two buffers of
    # the packed size in place spares each evaluation full-grid temporaries.
    diff = np.empty_like(sel1)
    mag = np.empty(sel1.shape)

    def objective(theta: float) -> float:
        np.multiply(np.exp(1j * theta), sel1, out=diff)
        np.subtract(sel2, diff, out=diff)
        np.abs(diff, out=mag)
        return float(np.sum(mag ** p) * vol) ** (1.0 / p)

    thetas = 2.0 * math.pi * np.arange(COARSE_SCAN_POINTS) / COARSE_SCAN_POINTS
    coarse = np.array([objective(t) for t in thetas])
    k = int(np.argmin(coarse))
    step = 2.0 * math.pi / COARSE_SCAN_POINTS
    lo, hi = thetas[k] - step, thetas[k] + step
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    e = a + gr * (b - a)
    fc, fe = objective(c), objective(e)
    while b - a > GOLDEN_TOL:
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - gr * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, e, fe
            e = a + gr * (b - a)
            fe = objective(e)
    theta = _wrap_angle(0.5 * (a + b))
    return PhaseAlignment(theta_star=theta, residual=objective(theta),
                          method="search")


@dataclass(frozen=True, slots=True)
class MulticomponentAlignment:
    """Independent optimal phases per partition component.

    total_residual is the sum of the component residuals: the aligned
    distance achievable when each subdomain carries its own unimodular
    constant.
    """

    alignments: tuple[PhaseAlignment, ...]
    total_residual: float


def align_phase_multicomponent(F1: PhaseSpaceGrid, F2: PhaseSpaceGrid, p: float,
                               partition: DomainPartition) -> MulticomponentAlignment:
    """Align the phase independently on every component of the partition."""
    if partition.labels.shape != F1.geometry.extents:
        raise ValueError("partition shape does not match grid extents")
    parts = []
    for i in range(1, partition.num_components + 1):
        comp = partition.component(i)
        if not comp.any():
            raise ValueError(f"partition component {i} is empty")
        parts.append(align_phase_global(F1, F2, p, mask=comp))
    return MulticomponentAlignment(alignments=tuple(parts),
                                   total_residual=float(sum(a.residual for a in parts)))


# ---------------------------------------------------------------------------
# Norm terms of the right-hand sides
# ---------------------------------------------------------------------------


def _check_pair(S1: Spectrogram, S2: Spectrogram) -> None:
    if S1.geometry != S2.geometry:
        raise ValueError("spectrograms must share one geometry")


def sobolev_diff_pieces(S1: Spectrogram, S2: Spectrogram, p: float,
                        mask: np.ndarray | fdiff.MaskCells | None = None
                        ) -> tuple[float, float]:
    """(value, gradient) L^p norms of the spectrogram difference.

    Gradients are mask-aware central differences, one-sided at the mask
    boundary.
    """
    _check_pair(S1, S2)
    if not np.isfinite(p) or p < 1.0:
        raise AdmissibilityError(f"p = {p} must be >= 1")
    geom = S1.geometry
    cells = _cells(geom, mask)
    diff = S1.values - S2.values
    return (_lp_norm(cells.pack(diff), geom, p),
            _lp_norm(cells.gradient_norm(diff), geom, p))


def sobolev_diff_norm(S1: Spectrogram, S2: Spectrogram, p: float,
                      mask: np.ndarray | fdiff.MaskCells | None = None) -> float:
    """W^{1,p}(Omega) norm of |Gf| - |Gg|: value plus gradient L^p norms."""
    value, grad = sobolev_diff_pieces(S1, S2, p, mask)
    return value + grad


def weighted_lq_diff_norm(S1: Spectrogram, S2: Spectrogram, q: float, z0,
                          mask: np.ndarray | fdiff.MaskCells | None = None,
                          p: float | None = None) -> float:
    """L^q norm of (1 + |z - z0|^{2d+2}) (|Gf| - |Gg|) over Omega.

    Passing p validates the (p, q) admissibility pair for the grid's
    dimension; without it only q >= 1 is required.
    """
    _check_pair(S1, S2)
    geom = S1.geometry
    d = geom.rank // 2
    if p is not None:
        check_admissible(p, q, d)
    elif not np.isfinite(q) or q < 1.0:
        raise AdmissibilityError(f"q = {q} must be finite and >= 1")
    cells = _cells(geom, mask)
    weight = 1.0 + _distance_sq_to(geom, z0, cells.index) ** (d + 1)
    return _lp_norm(weight * (cells.pack(S1.values) - cells.pack(S2.values)), geom, q)


class LogDerivTerm(NamedTuple):
    value: float
    excluded_mass_fraction: float


def logderiv_term(S1: Spectrogram, S2: Spectrogram, p: float,
                  mask: np.ndarray | fdiff.MaskCells | None = None) -> LogDerivTerm:
    """L^p norm of (grad |Gf| / |Gf|) (|Gf| - |Gg|) over the included cells.

    Cells with |Gf| below 1e-12 of its maximum are excluded from the
    quadrature; the fraction of spectrogram mass they carry is reported.
    """
    _check_pair(S1, S2)
    if not np.isfinite(p) or p < 1.0:
        raise AdmissibilityError(f"p = {p} must be >= 1")
    geom = S1.geometry
    peak = float(S1.values.max())
    if peak <= 0:
        raise ValueError("reference spectrogram is identically zero")
    cells = _cells(geom, mask)
    s1, s2 = cells.pack(S1.values), cells.pack(S2.values)
    keep = s1 > LOGDERIV_EXCLUSION * peak
    total = float(s1.sum())
    excluded_mass = float(s1[~keep].sum())
    if not keep.all():
        # The stencil runs on the included cells only.
        included = np.zeros(geom.extents, bool)
        np.put(included, cells.flat_index[keep], True)
        cells, s1, s2 = fdiff.MaskCells(geom, included), s1[keep], s2[keep]
    value = _lp_norm(cells.gradient_norm(S1.values) / s1 * (s1 - s2), geom, p)
    fraction = excluded_mass / total if total > 0 else 0.0
    return LogDerivTerm(value=value, excluded_mass_fraction=fraction)


def dnorm(field: np.ndarray, geometry: GridGeometry, p: float, q: float, z0,
          mask: np.ndarray | fdiff.MaskCells | None = None) -> float:
    """Noise-space norm: W^{1,p}(Omega) plus the weighted L^q norm."""
    d = geometry.rank // 2
    check_admissible(p, q, d)
    field = np.asarray(field, float)
    if field.shape != geometry.extents:
        raise ValueError("field shape does not match grid extents")
    cells = _cells(geometry, mask)
    weight = 1.0 + _distance_sq_to(geometry, z0, cells.index) ** (d + 1)
    values = cells.pack(field)
    return (_lp_norm(values, geometry, p)
            + _lp_norm(cells.gradient_norm(field), geometry, p)
            + _lp_norm(weight * values, geometry, q))


# ---------------------------------------------------------------------------
# Noise fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NoiseSpec:
    """A smooth real perturbation of the spectrogram on Omega.

    dnorm_value caches the noise-space norm once a report computes it with
    its own (p, q, z0, Omega); it is None until then.
    """

    values: np.ndarray
    geometry: GridGeometry
    dnorm_value: float | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, float)
        if vals.shape != self.geometry.extents:
            raise ValueError("noise shape does not match grid extents")
        if not np.all(np.isfinite(vals)):
            raise ValueError("noise values must be finite")
        object.__setattr__(self, "values", vals)


def noise_gaussian_bump(geometry: GridGeometry, amplitude: float, width: float,
                        center=None) -> NoiseSpec:
    """Gaussian bump amplitude * e^{-|z-c|^2 / (2 width^2)}."""
    if width <= 0:
        raise ValueError("width must be positive")
    c = np.zeros(geometry.rank) if center is None else np.asarray(center, float)
    r2 = _distance_sq_to(geometry, c)
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


def make_instability_pair(d: int, T: float, geometry: GridGeometry) -> tuple[SignalGrid, SignalGrid]:
    """f_plus/minus = f_1 +- f_2: unit Gaussians at -T/2 and +T/2 on axis 0.

    The grid must contain both bumps: the samples of either combination on
    the grid boundary must be negligible against the peak.
    """
    if T <= 0:
        raise ValueError("separation T must be positive")
    if geometry.rank != d:
        raise ValueError("geometry rank must equal the signal dimension")
    c1 = tuple([-T / 2.0] + [0.0] * (d - 1))
    c2 = tuple([+T / 2.0] + [0.0] * (d - 1))
    zero = (0.0,) * d
    f_plus = make_analytic(two_bump_spec(c1, zero, c2, zero, sign=+1), geometry)
    f_minus = make_analytic(two_bump_spec(c1, zero, c2, zero, sign=-1), geometry)
    peak = float(np.abs(f_plus.values).max())
    for grid in (f_plus, f_minus):
        edge = _boundary_max(grid.values)
        if edge > 1e-12 * peak:
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
        if self.rhs == 0.0:
            return math.inf if self.lhs > 0 else 0.0
        return self.lhs / self.rhs


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
    S1 = spectrogram(F1)
    S2 = spectrogram(F2)
    lhs = align_phase_global(F1, F2, p, mask=mask).residual
    cells = fdiff.MaskCells(F1.geometry, mask)
    value, grad = sobolev_diff_pieces(S1, S2, p, cells)
    ld = logderiv_term(S1, S2, p, cells)
    factor = math.inf if h == 0.0 else 2.0 ** 4.5 / h
    rhs = value + factor * (grad + ld.value)
    return CheegerRouteCheck(lhs=lhs, value_term=value, gradient_term=grad,
                             logderiv=ld, h=h, rhs=rhs)


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
        out = {
            "p": self.p, "q": self.q, "d": self.d,
            "lhs": self.lhs,
            "h_upper": self.h_upper,
            "fiedler_value": self.fiedler_value,
            "disconnected": self.disconnected,
            "z0": list(self.z0),
            "value_term": self.value_term,
            "gradient_term": self.gradient_term,
            "sobolev_term": self.sobolev_term,
            "weighted_term": self.weighted_term,
            "logderiv_term": self.logderiv_term,
            "logderiv_excluded_mass": self.logderiv_excluded_mass,
            "rhs_cheeger_route": self.rhs_cheeger_route,
            "rhs_weighted_shape": self.rhs_weighted_shape,
            "ratio": self.ratio,
        }
        if self.h_oracle is not None:
            out["h_oracle"] = self.h_oracle
        if self.multicomponent_residual is not None:
            out["component_residuals"] = list(self.component_residuals)
            out["multicomponent_residual"] = self.multicomponent_residual
        if self.noise_bound is not None:
            out["noise_epsilon"] = self.noise_epsilon
            out["noise_gamma_dnorm"] = self.noise_gamma_dnorm
            out["noise_bound"] = self.noise_bound
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

    Computes both transforms, the active mask Omega = {|Gf| >= 1e-9 max},
    z0 = argmax |Gf|, the Cheeger estimate of |Gf|^p on Omega (on a
    block-coarsened grid for tractability), and every term of the two
    right-hand sides.  With a partition, component-wise alignment is added;
    with a NoiseSpec gamma, the achieved noise level
    epsilon = dnorm(|Gf| + gamma - |Gg|) and the noise bound
    (1 + h^{-1}) (epsilon + dnorm(gamma)) are added.
    """
    if f.geometry != g.geometry:
        raise ValueError("signals must share one geometry")
    d = f.geometry.rank
    check_admissible(p, q, d)
    pg = default_phase_geometry(d) if phase_geometry is None else phase_geometry
    F1 = gabor_transform(f, pg)
    F2 = gabor_transform(g, pg)
    S1 = spectrogram(F1)
    S2 = spectrogram(F2)
    peak = float(S1.values.max())
    if peak <= 0.0:
        raise ValueError("f has a zero spectrogram; the weight w = |Gf|^p is degenerate")
    mask = S1.values >= ACTIVE_THRESHOLD * peak
    z0 = S1.argmax_location
    lhs = align_phase_global(F1, F2, p, mask=mask).residual
    wgrid = weight_from_spectrogram(S1, power=p).coarsen(cheeger_coarsen)
    est = sweep_cut_cheeger(wgrid)
    h = est.h
    cells = fdiff.MaskCells(pg, mask)
    value, grad = sobolev_diff_pieces(S1, S2, p, cells)
    sobolev = value + grad
    weighted = weighted_lq_diff_norm(S1, S2, q, z0, mask=cells)
    ld = logderiv_term(S1, S2, p, cells)
    cheeger_factor = math.inf if h == 0.0 else 2.0 ** 4.5 / h
    rhs_cheeger = value + cheeger_factor * (grad + ld.value)
    shape_factor = math.inf if h == 0.0 else 1.0 + 1.0 / h
    rhs_shape = shape_factor * (sobolev + weighted)
    report = {
        "p": float(p), "q": float(q), "d": d,
        "lhs": lhs,
        "h_upper": est.h_upper,
        "h_oracle": est.h_oracle,
        "fiedler_value": est.fiedler_value,
        "disconnected": est.disconnected,
        "z0": tuple(float(c) for c in z0),
        "value_term": value,
        "gradient_term": grad,
        "sobolev_term": sobolev,
        "weighted_term": weighted,
        "logderiv_term": ld.value,
        "logderiv_excluded_mass": ld.excluded_mass_fraction,
        "rhs_cheeger_route": rhs_cheeger,
        "rhs_weighted_shape": rhs_shape,
        "ratio": _finite_ratio(lhs, rhs_shape),
    }
    if partition is not None:
        multi = align_phase_multicomponent(F1, F2, p, partition)
        report["component_residuals"] = tuple(a.residual for a in multi.alignments)
        report["multicomponent_residual"] = multi.total_residual
    if noise is not None:
        if noise.geometry != pg:
            raise ValueError("noise field must live on the phase-space grid")
        gamma_dnorm = dnorm(noise.values, pg, p, q, z0, mask=cells)
        achieved = S1.values + noise.values - S2.values
        epsilon = dnorm(achieved, pg, p, q, z0, mask=cells)
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


def sweep_phase_geometry(T: float, spacing: float = 1.0 / 16.0) -> GridGeometry:
    """Phase box wide enough for bumps at -+T/2: x in +-(T/2 + 4), y in +-4."""
    half = T / 2.0 + 4.0
    nx = int(round(2 * half / spacing)) + 1
    ny = int(round(8.0 / spacing)) + 1
    return box_geometry((nx, ny), (-half, -4.0), (half, 4.0))


def instability_sweep(T_values, p: float = 1.0, q: float = 3.0,
                      spacing: float = 1.0 / 16.0,
                      cheeger_coarsen: int = DEFAULT_CHEEGER_COARSEN) -> list[InstabilityRow]:
    """Evaluate the instability pair over a list of separations T (d = 1).

    Transforms use the closed forms of the two-bump signals, exact up to
    rounding, on a phase box that widens with T.
    """
    from .signals import analytic_gabor_transform

    check_admissible(p, q, 1)
    rows = []
    for T in T_values:
        T = float(T)
        pg = sweep_phase_geometry(T, spacing)
        c1, c2 = (-T / 2.0,), (+T / 2.0,)
        plus = two_bump_spec(c1, (0.0,), c2, (0.0,), sign=+1)
        minus = two_bump_spec(c1, (0.0,), c2, (0.0,), sign=-1)
        F1 = analytic_gabor_transform(plus, pg)
        F2 = analytic_gabor_transform(minus, pg)
        S1 = spectrogram(F1)
        S2 = spectrogram(F2)
        mask = S1.values >= ACTIVE_THRESHOLD * float(S1.values.max())
        z0 = S1.argmax_location
        lhs = align_phase_global(F1, F2, p, mask=mask).residual
        est = sweep_cut_cheeger(weight_from_spectrogram(S1, power=p).coarsen(cheeger_coarsen))
        cells = fdiff.MaskCells(pg, mask)
        sobolev = sobolev_diff_norm(S1, S2, p, cells)
        weighted = weighted_lq_diff_norm(S1, S2, q, z0, mask=cells)
        rows.append(InstabilityRow(
            T=T, h=est.h, lhs=lhs, sobolev=sobolev, weighted=weighted,
            ratio=_finite_ratio(lhs, sobolev + weighted)))
    return rows
