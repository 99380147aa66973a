"""Weighted Cheeger estimation: graphs, Fiedler vectors, sweeps, oracle."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from gaborstab import cheeger
from gaborstab.cheeger import (
    ORACLE_CELL_LIMIT,
    WeightGraph,
    WeightGrid,
    build_weight_graph,
    evaluate_cut,
    exhaustive_cheeger_oracle,
    fiedler_vector,
    sweep_cut_cheeger,
    weight_from_spectrogram,
)
from gaborstab.errors import ConvergenceError, ResourceError
from gaborstab.gabor import spectrogram
from gaborstab.grids import box_geometry
from gaborstab.signals import analytic_gabor_transform, gaussian_spec, two_bump_spec
from gaborstab.stability import DEFAULT_CHEEGER_COARSEN, sweep_phase_geometry


def unit_grid(extents, values=None, mask=None, spacing=1.0):
    geom = box_geometry(extents, 0.0, tuple(spacing * (n - 1) for n in extents))
    vals = np.ones(extents) if values is None else np.asarray(values, float)
    msk = np.ones(extents, bool) if mask is None else mask
    return WeightGrid(geometry=geom, values=vals, mask=msk)


def dense_fiedler(graph):
    """Dense generalized eigensolve oracle for the weighted Laplacian."""
    n = graph.num_vertices
    L = np.zeros((n, n))
    for t, h, w in zip(graph.edge_tail, graph.edge_head, graph.edge_weight):
        L[t, t] += w
        L[h, h] += w
        L[t, h] -= w
        L[h, t] -= w
    M = np.diag(graph.masses)
    vals = scipy.linalg.eigh(L, M, eigvals_only=True)
    return float(vals[1])


def bincount_laplacian(graph, v, degrees):
    """L v by two bincounts over the edge list: the row sums in edge order."""
    n = graph.num_vertices
    out = degrees * v
    out -= np.bincount(graph.edge_tail, weights=graph.edge_weight * v[graph.edge_head],
                       minlength=n)
    out -= np.bincount(graph.edge_head, weights=graph.edge_weight * v[graph.edge_tail],
                       minlength=n)
    return out


def reference_fiedler(graph, tol=cheeger.LANCZOS_TOL):
    """The Lanczos loop as it stood before the CSR operator and the top-pair
    screen: bincount matvec, full tridiagonal eigensolve at every step."""
    n = graph.num_vertices
    masses = graph.masses.copy()
    masses[masses == 0.0] = 1e-12 * float(masses[masses > 0].min())
    inv_sqrt_m = 1.0 / np.sqrt(masses)
    degrees = graph.degrees()

    def apply_b(v):
        return sigma * v - inv_sqrt_m * bincount_laplacian(graph, inv_sqrt_m * v, degrees)

    offdiag = graph.edge_weight * inv_sqrt_m[graph.edge_tail] * inv_sqrt_m[graph.edge_head]
    row_off = (np.bincount(graph.edge_tail, weights=offdiag, minlength=n)
               + np.bincount(graph.edge_head, weights=offdiag, minlength=n))
    sigma = float(np.max(degrees * inv_sqrt_m ** 2 + row_off))
    q0 = np.sqrt(masses)
    q0 /= np.linalg.norm(q0)
    seed = np.sqrt(masses) * (np.arange(n, dtype=float) - (n - 1) / 2.0)
    seed -= q0 * (q0 @ seed)
    cap = min(n - 1, cheeger.LANCZOS_ITER_CAP)
    basis = np.empty((cap + 1, n))
    basis[0] = seed / np.linalg.norm(seed)
    alphas, betas = [], []
    k = 0
    while True:
        v = basis[k]
        w = apply_b(v)
        alpha = float(v @ w)
        alphas.append(alpha)
        w -= alpha * v
        if k > 0:
            w -= betas[-1] * basis[k - 1]
        for _ in range(2):
            w -= q0 * (q0 @ w)
            coeffs = basis[: k + 1] @ w
            w -= basis[: k + 1].T @ coeffs
        beta = float(np.linalg.norm(w))
        evals, evecs = scipy.linalg.eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
        top = int(np.argmax(evals))
        theta = float(evals[top])
        ritz = evecs[:, top]
        residual = beta * abs(float(ritz[-1]))
        k += 1
        if residual <= tol * sigma or beta <= 1e-14 * sigma:
            break
        assert k < cap
        betas.append(beta)
        basis[k] = w / beta
    u = inv_sqrt_m * (basis[:k].T @ ritz)
    u /= np.linalg.norm(u)
    if u[int(np.argmax(np.abs(u)))] < 0:
        u = -u
    return float(sigma - theta), u, k, float(residual)


@pytest.fixture(scope="module")
def sweep_t6_weight():
    """The T = 6 weight of an instability sweep at spacing 1/32: |Gf_+| on
    Omega, coarsened as the sweep coarsens it."""
    pg = sweep_phase_geometry(6.0, 1.0 / 32.0)
    F = analytic_gabor_transform(two_bump_spec((-3.0,), (0.0,), (3.0,), (0.0,)), pg)
    return weight_from_spectrogram(spectrogram(F), 1.0).coarsen(DEFAULT_CHEEGER_COARSEN)


@pytest.fixture(scope="module")
def sweep_t6_graph(sweep_t6_weight):
    """The dominant component of the T = 6 sweep weight's graph."""
    graph = build_weight_graph(sweep_t6_weight)
    _, labels = graph.component_labels()
    heaviest = np.argmax(np.bincount(labels, weights=graph.masses))
    return graph.subgraph(labels == heaviest)[0]


def rank4_graph(seed=5):
    """Rank-4 weight with a hole: most rows carry three or four forward edges."""
    rng = np.random.default_rng(seed)
    extents = (5, 4, 4, 3)
    mask = rng.uniform(size=extents) > 0.15
    mask[0, 0, 0, 0] = mask[-1, -1, -1, -1] = True
    return build_weight_graph(unit_grid(extents, rng.uniform(0.1, 2.0, extents), mask,
                                        spacing=0.5))


def brute_cheeger(graph, satellite_mass=0.0):
    """Independent subset enumeration with plain python sums; satellite_mass
    joins the complement side of every cut."""
    n = graph.num_vertices
    best = math.inf
    for size in range(1, n):
        for side in itertools.combinations(range(n), size):
            side = set(side)
            cut = sum(w for t, h, w in zip(graph.edge_tail, graph.edge_head,
                                           graph.edge_weight)
                      if (t in side) != (h in side))
            m1 = sum(graph.masses[i] for i in side)
            m2 = sum(graph.masses[i] for i in range(n) if i not in side) + satellite_mass
            m = min(m1, m2)
            if m > 0:
                best = min(best, cut / m)
    return best


class TestWeightGrid:
    def test_requires_two_active_cells(self):
        with pytest.raises(ValueError):
            unit_grid((3,), mask=np.array([True, False, False]))

    def test_requires_positive_total_mass(self):
        with pytest.raises(ValueError):
            unit_grid((3,), values=np.zeros(3))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_bad_weights(self, bad):
        vals = np.ones(4)
        vals[2] = bad
        with pytest.raises(ValueError):
            unit_grid((4,), values=vals)

    def test_total_mass_and_scaling(self):
        w = unit_grid((4,), values=np.array([1.0, 2.0, 3.0, 4.0]), spacing=0.5)
        mass = build_weight_graph(w).total_mass
        assert mass == pytest.approx(10.0 * 0.5)
        w2 = WeightGrid(geometry=w.geometry, values=w.values * 3.0, mask=w.mask)
        assert build_weight_graph(w2).total_mass == pytest.approx(3.0 * mass)

    def test_coarsen_block_means(self):
        vals = np.arange(16.0).reshape(4, 4)
        w = unit_grid((4, 4), values=vals, spacing=0.5)
        c = w.coarsen(2)
        assert c.geometry.extents == (2, 2)
        assert c.values[0, 0] == pytest.approx(vals[:2, :2].mean())
        assert c.values[1, 1] == pytest.approx(vals[2:, 2:].mean())
        # block centers: origin moves by (k-1) * spacing / 2
        assert c.geometry.origin == (0.25, 0.25)
        assert c.geometry.spacing == (1.0, 1.0)
        assert build_weight_graph(c).total_mass == pytest.approx(build_weight_graph(w).total_mass)

    def test_coarsen_mask_any_rule(self):
        mask = np.zeros((4, 4), bool)
        mask[0, 0] = mask[3, 3] = True
        w = unit_grid((4, 4), mask=mask)
        c = w.coarsen(2)
        assert c.mask.tolist() == [[True, False], [False, True]]

    @staticmethod
    def _reshape_coarsen(w, k):
        """The block mean and any-rule by reshape, trailing cells trimmed."""
        extents = tuple(n // k for n in w.geometry.extents)
        sl = tuple(slice(0, n * k) for n in extents)
        blocks = [m for n in extents for m in (n, k)]
        axes = tuple(range(1, 2 * len(extents), 2))
        return (w.values[sl].reshape(blocks).mean(axis=axes),
                w.mask[sl].reshape(blocks).any(axis=axes))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(38,), (29, 35)])
    def test_coarsen_equals_reshape_mean_at_rank_one_and_two(self, shape, k):
        rng = np.random.default_rng(k)
        # magnitudes over ten decades, so any change of summation order shows
        vals = rng.random(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
        c = unit_grid(shape, values=vals).coarsen(k)
        means, _ = self._reshape_coarsen(unit_grid(shape, values=vals), k)
        assert c.values.shape == means.shape
        assert np.array_equal(c.values, means)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(7, 9, 11), (9, 8, 10, 11)])
    def test_coarsen_within_four_ulp_at_rank_three_and_four(self, shape, k):
        rng = np.random.default_rng(k)
        vals = rng.random(shape)
        c = unit_grid(shape, values=vals).coarsen(k)
        means, _ = self._reshape_coarsen(unit_grid(shape, values=vals), k)
        assert c.values.shape == means.shape
        assert np.all(np.abs(c.values - means) <= 4.0 * np.spacing(means))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("shape", [(23,), (13, 11), (7, 8, 9), (7, 6, 5, 8)])
    def test_coarsen_mask_is_any_of_the_block(self, shape, k):
        rng = np.random.default_rng(len(shape))
        mask = rng.random(shape) < 0.1
        mask.flat[:2] = True
        w = unit_grid(shape, mask=mask)
        _, any_active = self._reshape_coarsen(w, k)
        assert np.array_equal(w.coarsen(k).mask, any_active)

    def test_coarsen_factor_one_is_identity(self):
        w = unit_grid((4,))
        assert w.coarsen(1) is w

    def test_coarsen_too_far_rejected(self):
        with pytest.raises(ValueError):
            unit_grid((4, 4)).coarsen(5)


class TestWeightFromSpectrogram:
    def _spec(self, n=65):
        geom = box_geometry((n, n), -4.0, 4.0)
        return spectrogram(analytic_gabor_transform(gaussian_spec(1), geom))

    def test_power_and_mask(self):
        S = self._spec()
        w = weight_from_spectrogram(S, power=2.0, threshold=1e-3)
        assert np.allclose(w.values, S.values ** 2)
        assert np.array_equal(w.mask, S.values >= 1e-3 * S.values.max())
        assert not w.mask.all()

    def test_power_one_shares_the_spectrogram(self):
        S = self._spec()
        w = weight_from_spectrogram(S, 1.0)
        assert np.shares_memory(w.values, S.values)
        assert np.array_equal(w.values, S.values ** 1.0)

    def test_power_two_is_a_new_array(self):
        S = self._spec()
        w = weight_from_spectrogram(S, 2.0)
        assert not np.shares_memory(w.values, S.values)
        assert np.array_equal(w.values, S.values ** 2)

    def test_default_threshold_keeps_core(self):
        w = weight_from_spectrogram(self._spec())
        assert w.mask[32, 32]

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            weight_from_spectrogram(self._spec(), power=0.0)


class TestWeightGraph:
    def test_two_cell_edge_weight(self):
        w = unit_grid((2,), values=np.array([1.0, 3.0]), spacing=0.5)
        g = build_weight_graph(w)
        # masses w * vol; one edge (w1+w2)/2 * vol / spacing
        assert np.allclose(g.masses, [0.5, 1.5])
        assert g.edge_tail.tolist() == [0]
        assert g.edge_head.tolist() == [1]
        assert g.edge_weight[0] == pytest.approx(2.0)

    def test_grid_edge_count(self):
        g = build_weight_graph(unit_grid((3, 3)))
        assert g.num_vertices == 9
        assert g.edge_weight.size == 12

    def test_zero_zero_faces_are_not_edges(self):
        vals = np.array([1.0, 0.0, 0.0, 1.0])
        g = build_weight_graph(unit_grid((4,), values=vals))
        # faces (0,1) and (2,3) survive at half weight; (1,2) is dropped
        assert g.edge_weight.size == 2
        ncomp, _ = g.component_labels()
        assert ncomp == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightGraph(masses=np.ones(1), edge_tail=np.zeros(0, np.int64),
                        edge_head=np.zeros(0, np.int64), edge_weight=np.zeros(0))
        with pytest.raises(ValueError):
            WeightGraph(masses=np.ones(3), edge_tail=np.array([1]),
                        edge_head=np.array([1]), edge_weight=np.array([1.0]))


class TestFiedler:
    def test_path_graph_value_and_sign_structure(self):
        g = build_weight_graph(unit_grid((3,)))
        res = fiedler_vector(g)
        assert res.value == pytest.approx(1.0, rel=1e-8)
        assert abs(res.vector[1]) < 1e-8
        assert res.vector[0] * res.vector[2] < 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_dense_eigensolve(self, seed):
        rng = np.random.default_rng(seed)
        w = unit_grid((4, 4), values=rng.uniform(0.1, 2.0, (4, 4)))
        g = build_weight_graph(w)
        res = fiedler_vector(g)
        assert res.value == pytest.approx(dense_fiedler(g), rel=1e-6)

    @pytest.mark.parametrize("rank", [2, 4])
    def test_csr_operator_equals_bincount_sums(self, rank):
        if rank == 2:
            values = np.random.default_rng(1).uniform(0.1, 2.0, (9, 7))
            graph = build_weight_graph(unit_grid((9, 7), values))
        else:
            graph = rank4_graph()
            assert np.bincount(graph.edge_tail).max() >= 3
        deg = graph.degrees()
        apply_l = graph.laplacian_operator(deg)
        for seed in range(4):
            v = np.random.default_rng(seed).standard_normal(graph.num_vertices)
            want = bincount_laplacian(graph, v, deg)
            assert np.array_equal(apply_l(v), want)
            assert np.array_equal(graph.laplacian_operator(deg)(v), want)

    @pytest.mark.parametrize("which", ["sweep-T6", "rank4"])
    def test_equals_the_full_eigensolve_loop(self, which, request):
        graph = (request.getfixturevalue("sweep_t6_graph") if which == "sweep-T6"
                 else rank4_graph())
        res = fiedler_vector(graph)
        value, vector, iterations, residual = reference_fiedler(graph)
        assert (res.value, res.iterations, res.residual) == (value, iterations, residual)
        assert np.array_equal(res.vector, vector)

    def test_relative_residual_is_measured_on_the_pair(self):
        g = rank4_graph()
        res = fiedler_vector(g)
        Mu = g.masses * res.vector
        Lu = bincount_laplacian(g, res.vector, g.degrees())
        want = np.linalg.norm(Lu - res.value * Mu) / (res.value * np.linalg.norm(Mu))
        assert res.relative_residual == pytest.approx(want, rel=1e-12)
        assert res.relative_residual < 1e-3

    @pytest.mark.xfail(strict=True, reason="the Lanczos stopping test is absolute in "
                       "sigma ~ 189, above lambda_2 ~ 3e-7 at T = 6 (ROADMAP item 1)")
    def test_relative_residual_near_disconnection(self, sweep_t6_graph):
        assert fiedler_vector(sweep_t6_graph).relative_residual <= 1e-8

    def test_eigen_residual(self):
        rng = np.random.default_rng(9)
        g = build_weight_graph(unit_grid((5, 5), values=rng.uniform(0.5, 1.5, (5, 5))))
        res = fiedler_vector(g)
        n = g.num_vertices
        deg = g.degrees()
        Lu = g.laplacian_operator(deg)(res.vector)
        Mu = g.masses * res.vector
        assert np.linalg.norm(Lu - res.value * Mu) < 1e-6 * np.linalg.norm(Mu)

    def test_disconnected_graph_rejected(self):
        vals = np.array([1.0, 0.0, 0.0, 1.0])
        g = build_weight_graph(unit_grid((4,), values=vals))
        with pytest.raises(ValueError, match="component"):
            fiedler_vector(g)

    def test_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        g = build_weight_graph(unit_grid((6, 6), values=rng.uniform(0.1, 2.0, (6, 6))))
        monkeypatch.setattr(cheeger, "LANCZOS_ITER_CAP", 2)
        with pytest.raises(ConvergenceError):
            fiedler_vector(g)


    def test_basis_budget_raises_with_budget_n_and_k(self, monkeypatch):
        rng = np.random.default_rng(3)
        g = build_weight_graph(unit_grid((6, 6), values=rng.uniform(0.1, 2.0, (6, 6))))
        n = g.num_vertices
        monkeypatch.setattr(cheeger, "LANCZOS_BASIS_BYTES", 3 * n * 8)
        with pytest.raises(ResourceError, match=f"{3 * n * 8}-byte budget") as exc:
            fiedler_vector(g)
        assert f"k = 3 steps on n = {n} vertices" in str(exc.value)
        monkeypatch.setattr(cheeger, "LANCZOS_BASIS_BYTES", 8 * n - 1)
        with pytest.raises(ResourceError, match=f"k = 0 steps on n = {n}"):
            fiedler_vector(g)

    def test_budget_that_fits_the_solve_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(4)
        g = build_weight_graph(unit_grid((7, 6), values=rng.uniform(0.1, 2.0, (7, 6))))
        free = fiedler_vector(g)
        monkeypatch.setattr(cheeger, "LANCZOS_BASIS_BYTES",
                            (free.iterations + 1) * g.num_vertices * 8)
        tight = fiedler_vector(g)
        assert (tight.value, tight.iterations, tight.residual) == (
            free.value, free.iterations, free.residual)
        assert np.array_equal(tight.vector, free.vector)


class TestCuts:
    def test_evaluate_cut_sums(self):
        w = unit_grid((4,), values=np.array([1.0, 2.0, 3.0, 4.0]))
        g = build_weight_graph(w)
        cut = evaluate_cut(g, np.array([True, True, False, False]))
        assert cut.cut_weight == pytest.approx(2.5)  # face between cells 1 and 2
        assert cut.mass_left == pytest.approx(3.0)
        assert cut.mass_right == pytest.approx(7.0)
        assert cut.ratio == pytest.approx(2.5 / 3.0)

    def test_complement_swaps_the_sides_and_keeps_the_ratio(self):
        w = unit_grid((4,), values=np.array([1.0, 2.0, 3.0, 4.0]))
        g = build_weight_graph(w)
        side = np.array([True, True, False, False])
        cut, comp = evaluate_cut(g, side), evaluate_cut(g, ~side)
        assert (comp.mass_left, comp.mass_right) == (cut.mass_right, cut.mass_left)
        assert comp.cut_weight == cut.cut_weight
        assert comp.ratio == cut.ratio

    def test_massless_side_gives_infinite_ratio(self):
        w = unit_grid((2,), values=np.array([0.0, 1.0]))
        g = build_weight_graph(w)
        cut = evaluate_cut(g, np.array([True, False]))
        assert cut.ratio == math.inf

    def test_wrong_length_rejected(self):
        g = build_weight_graph(unit_grid((3,)))
        with pytest.raises(ValueError):
            evaluate_cut(g, np.array([True, False]))


class TestOracle:
    def test_square_hand_value(self):
        graph = build_weight_graph(unit_grid((2, 2)))
        assert exhaustive_cheeger_oracle(graph) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_independent_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        w = unit_grid((3, 3), values=rng.uniform(0.1, 1.0, (3, 3)))
        g = build_weight_graph(w)
        assert exhaustive_cheeger_oracle(g) == pytest.approx(brute_cheeger(g), rel=1e-12)

    def test_cell_limit_enforced(self):
        graph = build_weight_graph(unit_grid((5, 5)))
        assert graph.num_vertices > ORACLE_CELL_LIMIT
        with pytest.raises(ValueError):
            exhaustive_cheeger_oracle(graph)


class TestSweep:
    def test_oracle_never_exceeds_sweep(self):
        rng = np.random.default_rng(20260816)
        for _ in range(30):
            vals = rng.uniform(0.05, 1.0, (4, 4))
            est = sweep_cut_cheeger(unit_grid((4, 4), values=vals))
            assert est.h_oracle is not None
            assert est.h_oracle <= est.h_upper + 1e-12
            assert est.h == est.h_oracle

    def test_gaussian_weight_bracket(self):
        geom = box_geometry((129, 129), -4.0, 4.0)
        S = spectrogram(analytic_gabor_transform(gaussian_spec(1), geom))
        est = sweep_cut_cheeger(weight_from_spectrogram(S))
        assert 1.2 <= est.h_upper <= 1.6
        assert est.h_oracle is None
        assert not est.disconnected
        assert est.fiedler_value > 0

    def test_refinement_stability(self):
        hs = []
        for n in (33, 65):
            geom = box_geometry((n, n), -4.0, 4.0)
            S = spectrogram(analytic_gabor_transform(gaussian_spec(1), geom))
            hs.append(sweep_cut_cheeger(weight_from_spectrogram(S)).h_upper)
        assert abs(hs[1] - hs[0]) / hs[1] < 0.10

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        w = unit_grid((6, 6), values=rng.uniform(0.1, 1.0, (6, 6)))
        h1 = sweep_cut_cheeger(w).h_upper
        h2 = sweep_cut_cheeger(WeightGrid(geometry=w.geometry, values=w.values * 37.5,
                                          mask=w.mask)).h_upper
        assert h2 == pytest.approx(h1, rel=1e-9)

    def test_disconnected_weight_reports_h_zero(self):
        vals = np.ones((8, 8))
        vals[:, 3:5] = 0.0  # two-cell-thick zero corridor
        est = sweep_cut_cheeger(unit_grid((8, 8), values=vals))
        assert est.disconnected
        assert est.h_upper == 0.0
        assert est.fiedler_value == 0.0
        assert len(est.component_masses) == 2
        assert est.best_cut.cut_weight == 0.0

    def test_satellite_component_is_dropped_not_disconnecting(self):
        vals = np.ones((8, 8)) * 1e-15
        vals[:, :3] = 1.0
        vals[:, 3] = 0.0  # separates a satellite of negligible mass
        est = sweep_cut_cheeger(unit_grid((8, 8), values=vals))
        assert not est.disconnected
        assert est.h_upper > 0.0

    def test_light_satellite_is_swept_apart_on_the_complement_side(self):
        # Cells 9 and 10 form a second component carrying 3e-13 of the mass,
        # below MASSIVE_COMPONENT_FRACTION: the Fiedler vector and the sweep
        # run on the subgraph of cells 0..6, and the satellite's mass joins
        # the complement side of every prefix cut.
        vals = np.array([1, 2, 3, 2.5, 1.5, 1, 2, 0, 0, 1e-13, 2e-13, 0])
        bare = vals.copy()
        bare[9:11] = 0.0
        est, alone = (sweep_cut_cheeger(unit_grid((12,), values=v, mask=v > 0))
                      for v in (vals, bare))
        assert est.fiedler_value == alone.fiedler_value
        assert est.fiedler_value == pytest.approx(0.22753087433741115, rel=1e-12)
        assert est.h_upper == 0.41666666666662505
        assert alone.h_upper == 0.4166666666666667
        assert not est.disconnected
        # Active cells 9 and 10 are the last two entries of the assignment.
        assert not est.best_cut.side_assignment[7:].any()
        assert np.array_equal(est.best_cut.side_assignment[:7],
                              alone.best_cut.side_assignment)

    def test_light_satellite_is_no_free_cut_for_the_oracle(self):
        # The oracle takes the sweep's convention on the same weight: the
        # satellite sits on the complement side, so h is the exhaustive
        # minimum over the cuts of cells 0..6, not the satellite's free cut.
        vals = np.array([1, 2, 3, 2.5, 1.5, 1, 2, 0, 0, 1e-13, 2e-13, 0])
        bare = vals.copy()
        bare[9:11] = 0.0
        est = sweep_cut_cheeger(unit_grid((12,), values=vals, mask=vals > 0))
        dominant = build_weight_graph(unit_grid((12,), values=bare, mask=bare > 0))
        assert est.h > 0.0 and est.h == est.h_oracle
        assert est.h_oracle == pytest.approx(brute_cheeger(dominant, 3e-13), rel=1e-12)
        assert est.h_oracle <= est.h_upper + 1e-12

    @pytest.mark.parametrize("values, mask, h, disconnected", [
        # The middle cell masked off leaves two massive components: h = 0.
        ([1, 1, 1, 1, 1], [1, 1, 0, 1, 1], 0.0, True),
        # Every prefix cut has a side of 1e-12 of the mass, below
        # SWEEP_MIN_MASS_FRACTION: the sweep falls back to every cut whose
        # light side has mass.
        ([1e-12, 1, 1e-12], [1, 1, 1], 500000000000.50006, False),
    ], ids=["two-components", "light-ends"])
    def test_sweep_and_oracle_agree_on_a_degenerate_line(self, values, mask, h, disconnected):
        est = sweep_cut_cheeger(unit_grid((len(values),), values=values,
                                          mask=np.array(mask, bool)))
        assert est.h_upper == est.h_oracle == h
        assert est.disconnected == disconnected

    def test_two_bump_h_decreases_with_separation(self):
        hs = []
        for T in (1.0, 3.0, 5.0):
            half = T / 2.0 + 4.0
            nx = int(round(2 * half * 8)) + 1
            geom = box_geometry((nx, 65), (-half, -4.0), (half, 4.0))
            spec = two_bump_spec((-T / 2.0,), (0.0,), (T / 2.0,), (0.0,))
            S = spectrogram(analytic_gabor_transform(spec, geom))
            hs.append(sweep_cut_cheeger(weight_from_spectrogram(S)).h_upper)
        assert hs[0] > hs[1] > hs[2]


class TestOneUlpRobustness:
    """The sweep's T = 6 Cheeger estimate against six seeded draws of an
    independent +-1 ulp on every value of its coarse weight."""

    @pytest.fixture(scope="class")
    def estimates(self, sweep_t6_weight):
        w = sweep_t6_weight
        perturbed = []
        for seed in range(6):
            up = np.random.default_rng(seed).random(w.values.shape) < 0.5
            # Down is toward 0, so a zero weight stays a valid weight.
            values = np.nextafter(w.values, np.where(up, np.inf, 0.0))
            perturbed.append(sweep_cut_cheeger(WeightGrid(w.geometry, values, w.mask)))
        return sweep_cut_cheeger(w), perturbed

    def test_h_upper_within_1e_9(self, estimates):
        base, perturbed = estimates
        for est in perturbed:
            assert est.h_upper == pytest.approx(base.h_upper, rel=1e-9, abs=0.0)

    @pytest.mark.xfail(strict=True, reason="one ulp of the Lanczos theta moves "
                       "lambda_2 = sigma - theta by ~1e-7 relative at sigma ~ 189 "
                       "(ROADMAP item 1)")
    def test_fiedler_value_within_1e_9(self, estimates):
        base, perturbed = estimates
        for est in perturbed:
            assert est.fiedler_value == pytest.approx(base.fiedler_value, rel=1e-9, abs=0.0)
