"""Cheeger constants of weighted phase-space domains.

A nonnegative weight w on an active region Omega is turned into a
face-adjacency graph whose vertices carry mass w_i * (cell volume) and whose
edges carry the face-averaged weight times the face measure.  The Cheeger
constant h(w, Omega) = inf_C cut(C) / min(mass(C), mass(Omega \\ C)) is
bounded from above by sweep cuts of the Fiedler vector of the
mass-normalized graph Laplacian, and computed exactly by subset enumeration
on tiny grids.  Weights that split into several massive components have
h = 0 by construction; that case is detected and reported directly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from .errors import ConvergenceError
from .gabor import Spectrogram
from .grids import GridGeometry, active_mask, grid_array

ACTIVE_THRESHOLD = 1e-9
MASSIVE_COMPONENT_FRACTION = 1e-9
ORACLE_CELL_LIMIT = 20
LANCZOS_TOL = 1e-8
LANCZOS_ITER_CAP = 500
# The Krylov basis keeps one float64 row of n entries per Lanczos step; a
# solve that would need more rows than this budget holds stops with a
# ConvergenceError instead of running the machine out of memory.
LANCZOS_BASIS_BYTES = 1 << 30
# Prefix cuts whose light side is below this fraction of the total mass are
# excluded from the sweep argmin: their masses and cut weights drown in
# float64 accumulation noise, and a genuinely near-zero Cheeger ratio can
# only come from disconnection, which is detected exactly via components.
SWEEP_MIN_MASS_FRACTION = 1e-10


@dataclass(frozen=True, slots=True)
class WeightGrid:
    """Nonnegative weight w on the active region Omega of a phase-space grid."""

    geometry: GridGeometry
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = grid_array(self.values, self.geometry.extents, float, "weight")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("weights must be finite and nonnegative")
        mask = active_mask(self.mask, self.geometry.extents)
        if mask is None:
            mask = np.ones(self.geometry.extents, dtype=bool)
        n_active = int(mask.sum())
        if n_active < 2:
            raise ValueError("need at least 2 active cells")
        if float(vals[mask].sum()) <= 0.0:
            raise ValueError("total active mass must be positive")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mask", mask)

    @property
    def active_count(self) -> int:
        return int(self.mask.sum())

    def coarsen(self, factor: int) -> "WeightGrid":
        """Block-mean downsample by an integer factor per axis.

        Trailing cells that do not fill a block are trimmed.  A coarse cell
        is active when any fine cell in its block is active; coarse centers
        sit at block centers, so the origin shifts by (factor-1)*spacing/2.
        The blocks are summed by strided slices in numpy's order for a
        reshape-and-mean (_block_reduce), then divided once by k^rank.
        """
        k = check_coarsen_factor(factor)
        if k == 1:
            return self
        geom = self.geometry
        new_extents = tuple(n // k for n in geom.extents)
        if any(n < 1 for n in new_extents):
            raise ValueError(f"grid too small to coarsen by {k}")
        sl = tuple(slice(0, n * k) for n in new_extents)
        new_geom = GridGeometry(
            extents=new_extents,
            spacing=tuple(s * k for s in geom.spacing),
            origin=tuple(o + (k - 1) * s / 2.0 for o, s in zip(geom.origin, geom.spacing)),
        )
        return WeightGrid(geometry=new_geom,
                          values=_block_reduce(self.values[sl], k, operator.add) / k ** geom.rank,
                          mask=_block_reduce(self.mask[sl], k, operator.or_))


def check_coarsen_factor(factor) -> int:
    """The block size of WeightGrid.coarsen as an int; ValueError below 1."""
    k = int(factor)
    if k < 1:
        raise ValueError("coarsening factor must be >= 1")
    return k


def _block_reduce(a: np.ndarray, k: int, op) -> np.ndarray:
    """Reduce every k x ... x k block of a by the binary op.

    The order is numpy's for a reduction over the block axes of
    a.reshape(n0, k, n1, k, ...): each block's runs along the last axis are
    reduced first, the k offsets in order, and then the runs are combined
    in lexicographic order of their offsets along the leading axes.  For
    k < 8 the sums equal reshape(...).sum(axis=(1, 3, ...)) bit for bit;
    from k = 8 on, numpy's pairwise sum splits each run into eight partial
    sums, and the two differ by a few ulp.
    """
    lead = (slice(None),) * (a.ndim - 1)
    runs = functools.reduce(op, [a[lead + (slice(j, None, k),)] for j in range(k)])
    return functools.reduce(op, [runs[tuple(slice(j, None, k) for j in js)]
                                 for js in itertools.product(range(k), repeat=a.ndim - 1)])


def weight_from_spectrogram(S: Spectrogram, power: float = 1.0,
                            threshold: float = ACTIVE_THRESHOLD) -> WeightGrid:
    """WeightGrid with w = |Gf|^power, active where |Gf| >= threshold * max.

    At power 1.0 the weight's values are S.values itself, not a copy: x ** 1.0
    is x bit for bit.  Nothing writes a weight's values in place (coarsen
    builds new arrays), and that must stay so.
    """
    if power <= 0:
        raise ValueError("power must be positive")
    peak = float(S.values.max())
    if peak <= 0:
        raise ValueError("spectrogram is identically zero")
    mask = S.values >= threshold * peak
    values = S.values if power == 1.0 else S.values ** power
    return WeightGrid(geometry=S.geometry, values=values, mask=mask)


@dataclass(frozen=True, slots=True)
class WeightGraph:
    """Face-adjacency graph: vertex masses plus weighted undirected edges.

    Vertices are the active cells in row-major order; edge endpoints satisfy
    tail < head and appear at most once.
    """

    masses: np.ndarray
    edge_tail: np.ndarray
    edge_head: np.ndarray
    edge_weight: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=float)
        t = np.asarray(self.edge_tail, dtype=np.int64)
        h = np.asarray(self.edge_head, dtype=np.int64)
        w = np.asarray(self.edge_weight, dtype=float)
        if m.ndim != 1 or m.size < 2:
            raise ValueError("graph needs at least 2 vertices")
        if not (t.shape == h.shape == w.shape) or t.ndim != 1:
            raise ValueError("edge arrays must be 1-d and of equal length")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("vertex masses must be finite and nonnegative")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("edge weights must be finite and nonnegative")
        if t.size and (np.any(t < 0) or np.any(h >= m.size) or np.any(t >= h)):
            raise ValueError("edges must satisfy 0 <= tail < head < n")
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "edge_tail", t)
        object.__setattr__(self, "edge_head", h)
        object.__setattr__(self, "edge_weight", w)

    @property
    def num_vertices(self) -> int:
        return int(self.masses.size)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def degrees(self) -> np.ndarray:
        n = self.num_vertices
        return (np.bincount(self.edge_tail, weights=self.edge_weight, minlength=n)
                + np.bincount(self.edge_head, weights=self.edge_weight, minlength=n))

    def laplacian_operator(self, degrees: np.ndarray) -> Callable[..., np.ndarray]:
        """v -> L v = degrees * v - A v, with A split into two CSR halves built once.

        Row i of the tail half holds the edges with tail i, and row i of the
        head half those with head i, each in edge order.  Every row sum of
        A v then adds its products in edge order, the order in which
        np.bincount over the edge list would add them.  The product goes
        into out when it is given.
        """
        n = self.num_vertices
        tail_rows = _edge_ordered_csr(self.edge_tail, self.edge_head, self.edge_weight, n)
        head_rows = _edge_ordered_csr(self.edge_head, self.edge_tail, self.edge_weight, n)

        def matvec(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            out = np.multiply(degrees, v, out=out)
            out -= tail_rows @ v
            out -= head_rows @ v
            return out

        return matvec

    def component_labels(self) -> tuple[int, np.ndarray]:
        # Zero-weight edges carry no boundary cost, so they must not merge
        # components: a zero-weight corridor disconnects the weight.
        pos = self.edge_weight > 0
        n = self.num_vertices
        adj = scipy.sparse.coo_matrix(
            (self.edge_weight[pos], (self.edge_tail[pos], self.edge_head[pos])),
            shape=(n, n))
        ncomp, labels = scipy.sparse.csgraph.connected_components(
            adj.tocsr(), directed=False)
        return int(ncomp), labels

    def subgraph(self, keep: np.ndarray) -> tuple["WeightGraph", np.ndarray]:
        """Induced subgraph on the kept vertices plus the old-index map."""
        keep = np.asarray(keep, dtype=bool)
        old = np.flatnonzero(keep)
        renum = -np.ones(self.num_vertices, dtype=np.int64)
        renum[old] = np.arange(old.size)
        esel = keep[self.edge_tail] & keep[self.edge_head]
        return WeightGraph(masses=self.masses[old],
                           edge_tail=renum[self.edge_tail[esel]],
                           edge_head=renum[self.edge_head[esel]],
                           edge_weight=self.edge_weight[esel]), old


def _edge_ordered_csr(rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                      n: int) -> scipy.sparse.csr_array:
    """n x n CSR matrix whose rows keep their entries in input order.

    A stable argsort groups the entries by row.  The COO constructor would
    sort each row by column, which reorders the row sums of a product.
    """
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return scipy.sparse.csr_array((data[order], cols[order], indptr), shape=(n, n))


def build_weight_graph(w: WeightGrid) -> WeightGraph:
    """Vertices = active cells (mass w_i * cell volume); edges = active face pairs.

    An edge crossing axis a carries weight ((w_i + w_j)/2) * (cell volume) /
    spacing[a], the face-midpoint weight times the face measure.
    """
    geom = w.geometry
    vol = geom.cell_volume
    ids = -np.ones(geom.extents, dtype=np.int64)
    ids[w.mask] = np.arange(w.active_count)
    tails, heads, weights = [], [], []
    for a in range(geom.rank):
        lo = tuple(slice(0, -1) if ax == a else slice(None) for ax in range(geom.rank))
        hi = tuple(slice(1, None) if ax == a else slice(None) for ax in range(geom.rank))
        both = w.mask[lo] & w.mask[hi]
        i = ids[lo][both]
        j = ids[hi][both]
        face = vol / geom.spacing[a]
        ew = 0.5 * (w.values[lo][both] + w.values[hi][both]) * face
        # Faces between two zero-weight cells carry no boundary cost and
        # must not merge components, so they are not edges at all.
        pos = ew > 0
        tails.append(np.minimum(i, j)[pos])
        heads.append(np.maximum(i, j)[pos])
        weights.append(ew[pos])
    return WeightGraph(
        masses=w.values[w.mask] * vol,
        edge_tail=np.concatenate(tails),
        edge_head=np.concatenate(heads),
        edge_weight=np.concatenate(weights),
    )


# ---------------------------------------------------------------------------
# Fiedler vector by deflated Lanczos
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FiedlerResult:
    """Second generalized eigenpair of (L, M) plus convergence diagnostics.

    residual is the Lanczos estimate beta * |last Ritz entry| that stopped
    the iteration, absolute in the scale sigma of the shifted operator;
    relative_residual = ||L u - value M u|| / (value ||M u||) is measured on
    the returned pair (infinite when value <= 0).
    """

    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    relative_residual: float


def _lanczos_seed(n: int, scale: np.ndarray) -> np.ndarray:
    # Centered index ramp: deterministic, smooth along the row-major vertex
    # order, so it overlaps the low Laplacian modes and breaks eigenvalue
    # ties between symmetry-related directions toward the leading axis.
    ramp = np.arange(n, dtype=float) - (n - 1) / 2.0
    return scale * ramp


def _top_ritz_residual(alphas: list[float], betas: list[float], beta: float) -> float:
    """Residual estimate beta * |last entry| of the top Ritz vector alone.

    One eigenpair of the tridiagonal matrix costs O(k), the full
    eigensolve O(k^2) per step.  The pair comes from the LAPACK calls that
    eigh_tridiagonal(select="i") makes, bisection (stebz, block order) then
    inverse iteration (stein), without its per-call argument checks.  A
    failed call returns 0, which hands the decision to the full eigensolve.
    """
    k = len(alphas)
    if k == 1:
        # The 1 x 1 Ritz vector is [1].
        return beta
    d, e = np.asarray(alphas), np.asarray(betas)
    m, w, iblock, isplit, info = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info:
        return 0.0
    vec, info = scipy.linalg.lapack.dstein(d, e, w[:m], iblock, isplit)
    return 0.0 if info else beta * abs(float(vec[-1, 0]))


def fiedler_vector(graph: WeightGraph) -> FiedlerResult:
    """Eigenvector for the second-smallest eigenvalue of the weighted Laplacian.

    Solves L u = lambda M u (M = diag vertex masses) through the symmetric
    form S = M^{-1/2} L M^{-1/2} with Lanczos iteration on sigma*I - S:
    the constant generalized eigenvector M^{1/2} 1 is deflated, every Krylov
    vector is reorthogonalized against all previous ones, and Ritz pairs come
    from the tridiagonal eigensolve.  Each step screens for convergence with
    the top Ritz pair alone; the full eigensolve runs only once that estimate
    is within a factor 2 of the tolerance LANCZOS_TOL * sigma, and on any
    step where the iteration must stop (breakdown, the step cap
    min(n - 1, LANCZOS_ITER_CAP) or the basis budget).
    Deterministic: the seed is a fixed centered index ramp.
    """
    n = graph.num_vertices
    ncomp, _ = graph.component_labels()
    if ncomp > 1:
        raise ValueError(
            f"graph has {ncomp} connected components; "
            "compute Fiedler vectors per component")
    masses = graph.masses.copy()
    positive = masses[masses > 0]
    if positive.size == 0:
        raise ValueError("graph has zero total mass")
    # Zero-mass vertices would make M singular.  Floor them far below the
    # smallest positive mass; flooring any higher would distort the true
    # spectrum by parking spurious low modes on near-zero-mass cells.
    masses[masses == 0.0] = 1e-12 * float(positive.min())
    inv_sqrt_m = 1.0 / np.sqrt(masses)
    degrees = graph.degrees()
    laplacian = graph.laplacian_operator(degrees)

    # Gershgorin upper bound for S: diag + absolute off-diagonal row sums.
    offdiag = graph.edge_weight * inv_sqrt_m[graph.edge_tail] * inv_sqrt_m[graph.edge_head]
    row_off = (np.bincount(graph.edge_tail, weights=offdiag, minlength=n)
               + np.bincount(graph.edge_head, weights=offdiag, minlength=n))
    sigma = float(np.max(degrees * inv_sqrt_m ** 2 + row_off))
    if sigma <= 0:
        raise ValueError("graph has no edges of positive weight")

    # Scratch n-vectors: each step applies B = sigma I - S and updates its
    # Krylov vector in place, with the operations and order of
    # sigma * v - inv_sqrt_m * L(inv_sqrt_m * v).
    scaled, scratch, w = np.empty(n), np.empty(n), np.empty(n)

    def apply_b(v: np.ndarray) -> None:
        np.multiply(inv_sqrt_m, v, out=scaled)
        laplacian(scaled, out=w)
        np.multiply(w, inv_sqrt_m, out=w)
        np.multiply(v, sigma, out=scratch)
        np.subtract(scratch, w, out=w)

    def subtract_scaled(c: float, u: np.ndarray) -> None:
        np.multiply(u, c, out=scratch)
        np.subtract(w, scratch, out=w)

    q0 = np.sqrt(masses)
    q0 /= np.linalg.norm(q0)
    seed = _lanczos_seed(n, np.sqrt(masses))
    seed -= q0 * (q0 @ seed)
    seed_norm = np.linalg.norm(seed)
    if seed_norm <= 1e-14 * np.linalg.norm(np.sqrt(masses)):
        raise ValueError("seed vector degenerates after deflation")
    cap = min(n - 1, LANCZOS_ITER_CAP)
    rows = min(cap + 1, LANCZOS_BASIS_BYTES // (8 * n))

    def over_budget(k: int) -> ConvergenceError:
        return ConvergenceError(
            f"Fiedler iteration stopped after k = {k} steps on n = {n} vertices: "
            f"its Krylov basis would exceed the {LANCZOS_BASIS_BYTES}-byte budget")

    if rows < 1:
        raise over_budget(0)
    basis = np.empty((rows, n))
    basis[0] = seed / seed_norm
    alphas: list[float] = []
    betas: list[float] = []
    theta = 0.0
    ritz = np.zeros(1)
    residual = math.inf
    k = 0
    while True:
        v = basis[k]
        apply_b(v)
        alpha = float(v @ w)
        alphas.append(alpha)
        subtract_scaled(alpha, v)
        if k > 0:
            subtract_scaled(betas[-1], basis[k - 1])
        # Full reorthogonalization against the deflated constant and the
        # whole Krylov basis, twice for numerical safety.
        for _ in range(2):
            subtract_scaled(q0 @ w, q0)
            coeffs = basis[: k + 1] @ w
            np.matmul(basis[: k + 1].T, coeffs, out=scratch)
            w -= scratch
        beta = float(np.linalg.norm(w))
        k += 1
        exhausted = beta <= 1e-14 * sigma
        if exhausted or k >= cap or k >= rows or _top_ritz_residual(
                alphas, betas, beta) <= 2.0 * LANCZOS_TOL * sigma:
            # The full eigensolve decides convergence and yields theta and
            # the Ritz vector; the top pair alone only screens for it.
            evals, evecs = scipy.linalg.eigh_tridiagonal(
                np.asarray(alphas), np.asarray(betas))
            top = int(np.argmax(evals))
            theta = float(evals[top])
            ritz = evecs[:, top]
            residual = beta * abs(float(ritz[-1]))
            if residual <= LANCZOS_TOL * sigma or exhausted:
                break
        if k >= cap:
            raise ConvergenceError(
                f"Fiedler iteration did not converge in {k} steps: "
                f"residual {residual:.3e} exceeds {LANCZOS_TOL * sigma:.3e}")
        if k >= rows:
            raise over_budget(k)
        betas.append(beta)
        np.divide(w, beta, out=basis[k])
    y = basis[:k].T @ ritz
    u = inv_sqrt_m * y
    u /= np.linalg.norm(u)
    if u[int(np.argmax(np.abs(u)))] < 0:
        u = -u
    value = float(sigma - theta)
    mu = masses * u
    relative = (float(np.linalg.norm(laplacian(u) - value * mu))
                / (value * float(np.linalg.norm(mu))) if value > 0 else math.inf)
    return FiedlerResult(value=value, vector=u, iterations=k, residual=float(residual),
                         relative_residual=relative)


# ---------------------------------------------------------------------------
# Cuts, sweeps, oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CutResult:
    """One two-sided cut of the active cells.

    side_assignment marks the cells of C among the active cells (row-major
    order); ratio is cut_weight / min(masses), infinite when a side carries
    no mass.
    """

    side_assignment: np.ndarray
    cut_weight: float
    mass_left: float
    mass_right: float

    @property
    def ratio(self) -> float:
        m = min(self.mass_left, self.mass_right)
        if m <= 0.0:
            return math.inf
        return self.cut_weight / m


def evaluate_cut(graph: WeightGraph, left: np.ndarray) -> CutResult:
    """Cut weight and side masses for an explicit side assignment."""
    left = np.asarray(left, dtype=bool)
    if left.shape != (graph.num_vertices,):
        raise ValueError("side assignment length must equal the vertex count")
    crossing = left[graph.edge_tail] != left[graph.edge_head]
    cut = float(graph.edge_weight[crossing].sum())
    # Independent sums per side: total - mass_left would lose the light side
    # to cancellation when the masses span many orders of magnitude.
    mass_left = float(graph.masses[left].sum())
    mass_right = float(graph.masses[~left].sum())
    return CutResult(side_assignment=left, cut_weight=cut, mass_left=mass_left,
                     mass_right=mass_right)


@dataclass(frozen=True, slots=True)
class CheegerEstimate:
    """Sweep-cut upper bound for h(w, Omega) with diagnostics.

    h_oracle is the exhaustive minimum when the active cell count permits
    enumeration; fiedler_value is the second eigenvalue of the weighted
    Laplacian (0 for disconnected weights); disconnected flags the case of
    several massive components, where h = 0 exactly.
    """

    h_upper: float
    fiedler_value: float
    best_cut: CutResult
    h_oracle: float | None = None
    disconnected: bool = False
    component_masses: tuple[float, ...] = ()

    @property
    def h(self) -> float:
        return self.h_upper if self.h_oracle is None else self.h_oracle


def sweep_cut_cheeger(w: WeightGrid) -> CheegerEstimate:
    """Upper-bound h(w, Omega) by sweep cuts of the Fiedler vector.

    Active cells are sorted by Fiedler value and all n-1 prefix cuts are
    evaluated; the best ratio is h_upper.  Several connected components that
    each carry more than 1e-9 of the total mass mean h = 0 exactly (the
    disconnected instability); components below that fraction are dropped
    from the sweep but kept in the complement masses.  Grids with at most
    20 active cells also get the exhaustive h_oracle.
    """
    graph = build_weight_graph(w)
    n = graph.num_vertices
    total = graph.total_mass
    ncomp, labels = graph.component_labels()
    comp_masses = np.bincount(labels, weights=graph.masses, minlength=ncomp)
    oracle = None
    if w.active_count <= ORACLE_CELL_LIMIT:
        oracle = exhaustive_cheeger_oracle(w)
    massive = np.flatnonzero(comp_masses > MASSIVE_COMPONENT_FRACTION * total)
    if massive.size >= 2:
        heaviest = int(massive[np.argmax(comp_masses[massive])])
        cut = evaluate_cut(graph, labels == heaviest)
        return CheegerEstimate(h_upper=0.0, fiedler_value=0.0, best_cut=cut,
                               h_oracle=oracle, disconnected=True,
                               component_masses=tuple(float(m) for m in comp_masses))
    keep_comp = int(massive[0]) if massive.size else int(np.argmax(comp_masses))
    keep = labels == keep_comp
    if int(keep.sum()) < 2:
        raise ValueError("the dominant component is a single cell; no nontrivial cuts")
    if keep.all():
        sub, old = graph, np.arange(n)
        satellite_mass = 0.0
    else:
        sub, old = graph.subgraph(keep)
        satellite_mass = float(graph.masses[~keep].sum())
    fied = fiedler_vector(sub)
    order = np.argsort(fied.vector, kind="stable")
    size = _sweep_prefix_cuts_full(sub, satellite_mass, order)
    left = np.zeros(n, dtype=bool)
    left[old[order[:size]]] = True
    cut = evaluate_cut(graph, left)
    return CheegerEstimate(h_upper=cut.ratio, fiedler_value=fied.value,
                           best_cut=cut, h_oracle=oracle,
                           component_masses=tuple(float(m) for m in comp_masses))


def _sweep_prefix_cuts_full(sub: WeightGraph, satellite_mass: float,
                            order: np.ndarray) -> int:
    """Size of the best prefix cut of the component sweep, against the full grid.

    Dropped satellite components sit on the complement side of every prefix,
    so cut weights live inside the swept component while the complement mass
    includes satellite_mass.  Suffix masses are accumulated independently of
    the prefix masses so neither side suffers cancellation.
    """
    m = sub.num_vertices
    cutw_local = np.maximum(_prefix_cut_weights(sub, order), 0.0)
    ordered = sub.masses[order]
    prefix_mass = np.cumsum(ordered)[: m - 1]
    suffix_mass = np.cumsum(ordered[::-1])[::-1][1:] + satellite_mass
    min_mass = np.minimum(prefix_mass, suffix_mass)
    total = sub.total_mass + satellite_mass
    ratios = _cut_ratios(cutw_local, min_mass)
    resolvable = min_mass >= SWEEP_MIN_MASS_FRACTION * total
    if not resolvable.any():
        resolvable = min_mass > 0
    if not resolvable.any():
        raise ValueError("every prefix cut has a massless side")
    return int(np.argmin(np.where(resolvable, ratios, math.inf))) + 1


def _cut_ratios(cut_weight: np.ndarray, min_mass: np.ndarray) -> np.ndarray:
    """cut / min mass, infinite where the light side is massless."""
    return np.where(min_mass > 0, cut_weight / np.where(min_mass > 0, min_mass, 1.0),
                    math.inf)


def _prefix_cut_weights(graph: WeightGraph, order: np.ndarray) -> np.ndarray:
    """Cut weights of all n-1 prefix cuts in one difference-array pass.

    An edge crosses exactly the prefixes whose size lies in
    [min(pos)+1, max(pos)] for the positions of its endpoints in the order.
    """
    n = graph.num_vertices
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    pt = pos[graph.edge_tail]
    ph = pos[graph.edge_head]
    lo = np.minimum(pt, ph)
    hi = np.maximum(pt, ph)
    diff = (np.bincount(lo + 1, weights=graph.edge_weight, minlength=n + 1)
            - np.bincount(hi + 1, weights=graph.edge_weight, minlength=n + 1))
    return np.cumsum(diff)[1:n]


def exhaustive_cheeger_oracle(w: WeightGrid) -> float:
    """Exact discrete Cheeger constant by enumerating all 2^n - 2 subsets."""
    n = w.active_count
    if n > ORACLE_CELL_LIMIT:
        raise ValueError(f"{n} active cells exceed the oracle limit {ORACLE_CELL_LIMIT}")
    graph = build_weight_graph(w)
    full = 2 ** n - 1
    subsets = np.arange(full + 1, dtype=np.int64)
    side_mass = np.zeros(subsets.size)
    for i in range(n):
        side_mass += graph.masses[i] * ((subsets >> i) & 1)
    cutw = np.zeros(subsets.size)
    for t, h, ew in zip(graph.edge_tail, graph.edge_head, graph.edge_weight):
        cutw += ew * (((subsets >> int(t)) ^ (subsets >> int(h))) & 1)
    # Complement masses by table lookup, not total-minus-side: subtraction
    # would lose light complements to cancellation.
    min_mass = np.minimum(side_mass, side_mass[full - subsets])
    return float(_cut_ratios(cutw, min_mass)[1:full].min())
