"""Growth and zero diagnostics for entire functions on phase space.

Covers membership in the growth class M_G(r) <= |G(0)| e^{alpha r^beta},
L^p ball norms of the logarithmic derivative (log G)' with their log-log
slope, the one-variable Poisson-Jensen identity, and zero counting both by
root enumeration and by an argument-principle contour integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fdiff
from .errors import AdmissibilityError
from .grids import GridGeometry, PhaseSpaceGrid

NEAR_ZERO_EXCLUSION = 1e-12
# Equispaced nodes on each circle |z| = r: the growth maximum, the
# Poisson-Jensen average and the contour count all sample it.
CIRCLE_NODES = 4096
# Relative slack of the growth margins for rounding in log M_G(r).
GROWTH_REL_TOL = 1e-9
_KINDS = ("polynomial", "gaussian-exponential", "lifted-gabor")


@dataclass(frozen=True, slots=True)
class GrowthClassSpec:
    """Parameters (alpha, beta) of the growth bound |G(0)| e^{alpha r^beta}."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be positive and finite")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be positive and finite")


@dataclass(frozen=True, slots=True)
class EntireFunctionSpec:
    """An entire function given analytically or as a sampled lift.

    kind "polynomial": coefficients in ascending order, one variable.
    kind "gaussian-exponential": e^{c z^2} for a complex constant c, one
    variable; never vanishes.
    kind "lifted-gabor": a grid from gabor.entire_lift, any dimension.
    G(0) must be nonzero in every case.
    """

    kind: str
    coefficients: tuple[complex, ...] | None = None
    quadratic_coeff: complex | None = None
    lift: PhaseSpaceGrid | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown entire-function kind {self.kind!r}")
        if self.kind == "polynomial":
            if not self.coefficients:
                raise ValueError("polynomial needs coefficients")
            coeffs = tuple(complex(c) for c in self.coefficients)
            if not all(np.isfinite(c.real) and np.isfinite(c.imag) for c in coeffs):
                raise ValueError("polynomial coefficients must be finite")
            if coeffs[0] == 0:
                raise ValueError("G(0) = 0 is rejected: constant coefficient vanishes")
            object.__setattr__(self, "coefficients", coeffs)
        elif self.kind == "gaussian-exponential":
            if self.quadratic_coeff is None:
                raise ValueError("gaussian-exponential needs its quadratic coefficient")
            c = complex(self.quadratic_coeff)
            if not (np.isfinite(c.real) and np.isfinite(c.imag)):
                raise ValueError("quadratic coefficient must be finite")
            object.__setattr__(self, "quadratic_coeff", c)
        else:
            if self.lift is None:
                raise ValueError("lifted-gabor needs a lifted grid")
            if abs(self._origin_sample()) == 0.0:
                raise ValueError("G(0) = 0 is rejected: lift vanishes at the sample nearest the origin")

    @property
    def dimension(self) -> int:
        return 1 if self.kind != "lifted-gabor" else self.lift.dimension

    # -- evaluation helpers (one-variable analytic kinds) -------------------

    def require_analytic(self, what: str) -> None:
        """Reject a sampled lift where a one-variable analytic kind is needed."""
        if self.kind == "lifted-gabor":
            raise ValueError(f"{what} needs an analytic one-variable kind, not a sampled lift")

    def value(self, z):
        self.require_analytic("pointwise evaluation")
        z = np.asarray(z, dtype=complex)
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(z, np.asarray(self.coefficients))
        return np.exp(self.quadratic_coeff * z * z)

    def log_abs(self, z):
        """log |G(z)|, stable across the huge dynamic range of e^{c z^2}."""
        self.require_analytic("pointwise evaluation")
        z = np.asarray(z, dtype=complex)
        if self.kind == "gaussian-exponential":
            return (self.quadratic_coeff * z * z).real
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.value(z)))

    def derivative(self, z):
        self.require_analytic("pointwise evaluation")
        z = np.asarray(z, dtype=complex)
        if self.kind == "polynomial":
            der = np.polynomial.polynomial.polyder(np.asarray(self.coefficients))
            return np.polynomial.polynomial.polyval(z, der)
        return 2.0 * self.quadratic_coeff * z * self.value(z)

    def log_derivative(self, z):
        """G'(z)/G(z) for the analytic kinds."""
        self.require_analytic("pointwise evaluation")
        z = np.asarray(z, dtype=complex)
        if self.kind == "gaussian-exponential":
            return 2.0 * self.quadratic_coeff * z
        return self.derivative(z) / self.value(z)

    def zeros(self) -> np.ndarray:
        """Zeros with multiplicity; only polynomials and the zero-free kind."""
        self.require_analytic("zero enumeration")
        if self.kind == "polynomial" and len(self.coefficients) > 1:
            return np.polynomial.polynomial.polyroots(np.asarray(self.coefficients))
        return np.zeros(0, dtype=complex)

    def _origin_sample(self) -> complex:
        """Lift sample at the grid point nearest the phase-space origin."""
        geom = self.lift.geometry
        coords = [geom.axis_coordinates(a) for a in range(geom.rank)]
        idx = tuple(int(np.argmin(np.abs(c))) for c in coords)
        return complex(self.lift.values[idx])

    def origin_value(self) -> complex:
        if self.kind == "lifted-gabor":
            return self._origin_sample()
        return complex(self.value(0.0))


def polynomial_spec(coefficients) -> EntireFunctionSpec:
    return EntireFunctionSpec(kind="polynomial", coefficients=tuple(coefficients))


def gaussian_exponential_spec(c: complex) -> EntireFunctionSpec:
    return EntireFunctionSpec(kind="gaussian-exponential", quadratic_coeff=c)


def lifted_spec(lift: PhaseSpaceGrid) -> EntireFunctionSpec:
    return EntireFunctionSpec(kind="lifted-gabor", lift=lift)


# ---------------------------------------------------------------------------
# Growth class membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GrowthCheckResult:
    """Margins alpha r^beta + log|G(0)| - log M_G(r); member iff all are >= 0."""

    radii: tuple[float, ...]
    margins: tuple[float, ...]
    member: bool

    @property
    def worst_margin(self) -> float:
        return min(self.margins)


def _circle(r: float) -> np.ndarray:
    """CIRCLE_NODES equispaced points on |z| = r, the first at z = r."""
    theta = 2.0 * np.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES
    return r * np.exp(1j * theta)


def _check_contour_clear(zeros: np.ndarray, r: float) -> None:
    if zeros.size and np.any(np.abs(np.abs(zeros) - r) <= 1e-9 * r):
        raise ValueError("a zero lies on the integration contour")


def _check_ball_coverage(geometry: GridGeometry, r: float) -> None:
    for a in range(geometry.rank):
        if geometry.origin[a] > -r or geometry.axis_upper(a) < r:
            raise ValueError(
                f"grid does not cover the ball of radius {r} along axis {a}")


def _checked_radii(radii) -> list[float]:
    """The radius or radii as floats: at least one, each positive and finite."""
    radii = [float(r) for r in np.atleast_1d(radii)]
    if not radii:
        raise ValueError("radii must not be empty")
    if any((not np.isfinite(r)) or r <= 0 for r in radii):
        raise ValueError("radii must be positive and finite")
    return radii


def growth_class_check(G: EntireFunctionSpec, spec: GrowthClassSpec,
                       radii) -> GrowthCheckResult:
    """Check M_G(r) <= |G(0)| e^{alpha r^beta} on the given radii.

    One-variable kinds sample |z| = r at CIRCLE_NODES equispaced angles (the
    maximum principle puts the ball max on the circle); lifts take the
    maximum over grid samples inside the ball.  A margin counts as met down
    to -GROWTH_REL_TOL * max(1, alpha r^beta).
    """
    radii = _checked_radii(radii)
    log_g0 = float(np.log(abs(G.origin_value())))
    margins = []
    if G.kind == "lifted-gabor":
        geom = G.lift.geometry
        r2 = geom.distance_sq()
        mod = np.abs(G.lift.values)
        for r in radii:
            _check_ball_coverage(geom, r)
            inside = r2 <= r * r
            if not inside.any():
                raise ValueError(f"no grid samples inside the ball of radius {r}")
            log_max = float(np.log(np.max(np.where(inside, mod, 0.0))))
            margins.append(spec.alpha * r ** spec.beta + log_g0 - log_max)
    else:
        for r in radii:
            log_max = float(np.max(G.log_abs(_circle(r))))
            margins.append(spec.alpha * r ** spec.beta + log_g0 - log_max)
    margins = tuple(float(m) for m in margins)
    tol = [GROWTH_REL_TOL * max(1.0, abs(spec.alpha * r ** spec.beta)) for r in radii]
    member = all(m >= -t for m, t in zip(margins, tol))
    return GrowthCheckResult(radii=tuple(radii), margins=margins, member=member)


# ---------------------------------------------------------------------------
# Log-derivative fields and ball norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LogDerivativeField:
    """Samples of (log G)' with near-zero cells excluded.

    components has shape (d, *extents): the Wirtinger gradient of log G per
    complex axis.  For one-variable functions components[0] is G'/G itself.
    Cells where |G| falls below 1e-12 of its grid maximum are flagged
    excluded; the exclusion only fires for kinds that can actually vanish
    (polynomials and sampled lifts) since for e^{c z^2} a small modulus
    reflects dynamic range, not a zero.
    """

    geometry: GridGeometry
    components: np.ndarray
    included: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.components) ** 2, axis=0))


def log_derivative_field(G: EntireFunctionSpec, geometry: GridGeometry | None = None) -> LogDerivativeField:
    """Sample (log G)' on a phase-space grid.

    One-variable kinds take any rank-2 geometry; lifts use their own grid
    (finite differences run on the lift's native spacing).
    """
    if G.kind == "lifted-gabor":
        lift_geom = G.lift.geometry
        if geometry is not None and geometry != lift_geom:
            raise ValueError("lifted log-derivatives use the lift's own grid")
        geometry = lift_geom
        vals = G.lift.values
        mod = np.abs(vals)
        included = mod >= NEAR_ZERO_EXCLUSION * mod.max()
        wirt = fdiff.wirtinger_components(fdiff.gradient(vals, geometry))
        comps = np.where(included, np.stack(wirt) / np.where(included, vals, 1.0), 0.0)
    else:
        if geometry is None:
            raise ValueError("analytic kinds need an explicit sampling geometry")
        if geometry.rank != 2:
            raise ValueError("one-variable functions sample on a rank-2 grid")
        coords = geometry.coordinate_arrays()
        z = coords[0] + 1j * coords[1]
        z = np.broadcast_to(z, geometry.extents)
        if G.kind == "gaussian-exponential":
            included = np.ones(geometry.extents, dtype=bool)
            comps = G.log_derivative(z)[None]
        else:
            vals = G.value(z)
            mod = np.abs(vals)
            included = mod >= NEAR_ZERO_EXCLUSION * mod.max()
            der = G.derivative(z)
            comps = np.where(included, der / np.where(included, vals, 1.0), 0.0)[None]
    if not included.any():
        raise ValueError("every cell is excluded as a near-zero; nothing to sample")
    return LogDerivativeField(geometry=geometry, components=np.asarray(comps, complex),
                              included=included)


def max_admissible_p(d: int) -> float:
    """Upper end 1 + 1/(2d-1) of the exponents p admitted in dimension d.

    The log-derivative and the stability report share this limit.
    """
    return 1.0 + 1.0 / (2.0 * d - 1.0)


def check_logderiv_exponent(p: float, d: int) -> None:
    if not np.isfinite(p) or p < 1.0 or p >= max_admissible_p(d):
        raise AdmissibilityError(
            f"p = {p} outside [1, {max_admissible_p(d)}) for dimension {d}; "
            "the log-derivative is not p-integrable there")


@dataclass(frozen=True, slots=True)
class BallNormTable:
    """L^p norms of (log G)' over balls B_r with a fitted log-log slope."""

    p: float
    radii: tuple[float, ...]
    norms: tuple[float, ...]
    fitted_slope: float
    fitted_constant: float

    def rows(self, bound_coefficient: float | None = None,
             bound_exponent: float | None = None):
        """(r, norm, bound, slope-so-far) rows for table export."""
        out = []
        for i in range(len(self.radii)):
            if bound_coefficient is None:
                bound = float("nan")
            else:
                bound = bound_coefficient * self.radii[i] ** bound_exponent
            slope = _fit_loglog(self.radii[: i + 1], self.norms[: i + 1])[0]
            out.append((self.radii[i], self.norms[i], bound, slope))
        return out


def _fit_loglog(radii, norms) -> tuple[float, float]:
    """Least-squares slope and constant of log(norm) against log(r)."""
    r = np.asarray(radii, float)
    n = np.asarray(norms, float)
    keep = n > 0
    if keep.sum() < 2:
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(np.log(r[keep]), np.log(n[keep]), 1)
    return float(slope), float(np.exp(intercept))


def logderiv_ball_norms(G: EntireFunctionSpec, p: float, radii,
                        geometry: GridGeometry | None = None) -> BallNormTable:
    """L^p norms of (log G)' over the balls B_r, excluded cells omitted.

    The quadrature sums |(log G)'|^p times the cell volume over cells whose
    centers fall inside the ball.
    """
    d = G.dimension
    check_logderiv_exponent(p, d)
    radii = sorted(_checked_radii(radii))
    field = log_derivative_field(G, geometry)
    geom = field.geometry
    for r in radii:
        _check_ball_coverage(geom, r)
    r2 = geom.distance_sq()
    mag_p = np.where(field.included, field.magnitude ** p, 0.0)
    vol = geom.cell_volume
    norms = []
    for r in radii:
        inside = r2 <= r * r
        norms.append(float(np.sum(np.where(inside, mag_p, 0.0)) * vol) ** (1.0 / p))
    slope, constant = _fit_loglog(radii, norms)
    return BallNormTable(p=float(p), radii=tuple(radii), norms=tuple(norms),
                         fitted_slope=slope, fitted_constant=constant)


def ball_norm_bound_coefficient(spec: GrowthClassSpec, d: int) -> tuple[float, float]:
    """Shape of the growth-class ball-norm bound: coefficient and exponent of r.

    The bound is (coefficient) * r^(exponent) with coefficient
    alpha * 2^{2d + 2 beta} (absolute constant taken as 1; it is reported
    empirically, never asserted) and exponent 2d + beta - 1.
    """
    coeff = spec.alpha * 2.0 ** (2 * d + 2 * spec.beta)
    exponent = 2 * d + spec.beta - 1
    return float(coeff), float(exponent)


# ---------------------------------------------------------------------------
# Poisson-Jensen identity and zero counts, one variable
# ---------------------------------------------------------------------------


def jensen_check_1d(G: EntireFunctionSpec, z: complex, r: float) -> float:
    """Residual of the Poisson-Jensen identity at z inside the circle |w| = r.

    log|G(z)| is compared against the Poisson circle average of log|G| minus
    the correction sum log |(r^2 - conj(z_k) z) / (r (z - z_k))| over zeros
    inside the circle.  The circle integral uses the periodic trapezoid rule,
    spectrally accurate for zero-free contours.
    """
    G.require_analytic("the Poisson-Jensen check")
    z = complex(z)
    (r,) = _checked_radii(r)
    if abs(z) >= r:
        raise ValueError("evaluation point must lie inside the circle")
    zs = G.zeros()
    _check_contour_clear(zs, r)
    if zs.size and np.any(np.abs(zs - z) == 0.0):
        raise ValueError("evaluation point coincides with a zero")
    lhs = float(G.log_abs(np.asarray(z)))
    # computed roots carry rounding, so also catch coincidence by its symptom
    if not np.isfinite(lhs):
        raise ValueError("evaluation point coincides with a zero")
    ring = _circle(r)
    poisson = (r * r - abs(z) ** 2) / np.abs(ring - z) ** 2
    circle_term = float(np.mean(G.log_abs(ring) * poisson))
    inside = zs[np.abs(zs) < r] if zs.size else zs
    zero_sum = 0.0
    for zk in inside:
        zero_sum += float(np.log(abs((r * r - np.conj(zk) * z) / (r * (z - zk)))))
    return abs(lhs - (circle_term - zero_sum))


@dataclass(frozen=True, slots=True)
class ZeroCountResult:
    count: int
    bound: float
    holds: bool


def zero_count_bound_1d(G: EntireFunctionSpec, spec: GrowthClassSpec,
                        r: float) -> ZeroCountResult:
    """Count zeros in |z| < r and compare against (2^beta alpha / log 2) r^beta.

    The growth-class membership of G for (alpha, beta) is verified first on
    nine geometric radii from max(r/8, 1/8) to max(2r, 1); failing that
    sweep is an error, since the bound's hypothesis would not hold.
    """
    (r,) = _checked_radii(r)
    check_radii = np.geomspace(max(r / 8.0, 0.125), max(2.0 * r, 1.0), 9)
    result = growth_class_check(G, spec, check_radii)
    if not result.member:
        raise ValueError(
            f"growth check failed (worst margin {result.worst_margin:.3g}); "
            "the zero-count bound does not apply")
    zs = G.zeros()
    count = int(np.sum(np.abs(zs) < r)) if zs.size else 0
    bound = (2.0 ** spec.beta) * spec.alpha / np.log(2.0) * r ** spec.beta
    return ZeroCountResult(count=count, bound=float(bound), holds=count <= bound)


def argument_principle_count(G: EntireFunctionSpec, r: float) -> int:
    """Zeros inside |z| = r via the contour integral of G'/G, trapezoid rule."""
    G.require_analytic("the contour count")
    (r,) = _checked_radii(r)
    _check_contour_clear(G.zeros(), r)
    ring = _circle(r)
    # (1/2 pi i) contour integral of G'/G dz with dz = i ring dtheta.
    integrand = G.log_derivative(ring) * ring
    value = float(np.mean(integrand.real))
    count = int(round(value))
    if abs(value - count) > 1e-6:
        raise ValueError(
            f"contour integral {value} is not close to an integer; "
            "refine the quadrature or move the contour away from zeros")
    return count
