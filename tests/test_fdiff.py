"""Mask-aware finite differences: stencil choice, dtypes, and the packed path.

The reference stencil below differentiates the whole grid from shifted
copies of the values and the mask; the packed path must match it bit for
bit at every mask cell.
"""

import math

import numpy as np
import pytest

from gaborstab import fdiff
from gaborstab.grids import DomainPartition, GridGeometry, active_mask, box_geometry

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _shift(values, axis, step, fill):
    out = np.full_like(values, fill)
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if step == 1:
        src[axis], dst[axis] = slice(1, None), slice(None, -1)
    else:
        src[axis], dst[axis] = slice(None, -1), slice(1, None)
    out[tuple(dst)] = values[tuple(src)]
    return out


def reference_gradient(values, geometry, mask=None):
    """The full-grid stencil built from shifted copies of values and mask."""
    values = np.asarray(values)
    mask = np.ones(values.shape, bool) if mask is None else np.asarray(mask, bool)
    grads = []
    for axis in range(geometry.rank):
        h = geometry.spacing[axis]
        vp, vm = _shift(values, axis, +1, 0), _shift(values, axis, -1, 0)
        has_p, has_m = _shift(mask, axis, +1, False), _shift(mask, axis, -1, False)
        central = (vp - vm) / (2.0 * h)
        forward = (vp - values) / h
        backward = (values - vm) / h
        g = np.where(has_p & has_m, central,
                     np.where(has_p, forward, np.where(has_m, backward, 0)))
        g = np.where(mask, g, 0)
        grads.append(g.astype(values.dtype if np.iscomplexobj(values) else float))
    return grads


def where_stencil(values, geometry, mask=None):
    """The packed stencil as it was before it ran one axis at a time.

    Every per-cell array (multi-index, value, forward, backward and central
    differences) is built up front, and np.where picks the difference.  The
    packed path must match it bit for bit.
    """
    mask = active_mask(mask, geometry.extents)
    mask = np.ones(geometry.extents, bool) if mask is None else mask
    flat, inside, cells = np.asarray(values).ravel(), mask.ravel(), np.flatnonzero(mask)
    index = np.unravel_index(cells, geometry.extents)
    v = flat.take(cells)
    dtype = flat.dtype if np.iscomplexobj(flat) else float
    grads = []
    for axis, (n, h) in enumerate(zip(geometry.extents, geometry.spacing)):
        stride = math.prod(geometry.extents[axis + 1:])
        has_p = (index[axis] < n - 1) & inside.take(cells + stride, mode="clip")
        has_m = (index[axis] > 0) & inside.take(cells - stride, mode="clip")
        vp = flat.take(cells + stride, mode="clip")
        vm = flat.take(cells - stride, mode="clip")
        central = (vp - vm) / (2.0 * h)
        forward = (vp - v) / h
        backward = (v - vm) / h
        g = np.where(has_p & has_m, central,
                     np.where(has_p, forward, np.where(has_m, backward, 0)))
        grads.append(g.astype(dtype, copy=False))
    return grads


def _oracle_masks(extents, rng):
    """Masks that reach every branch of the stencil on a grid."""
    idx = np.indices(extents)
    edge = np.zeros(extents, bool)
    for axis, n in enumerate(extents):
        edge |= (idx[axis] == 0) | (idx[axis] == n - 1)
    return {
        "none": None,
        "random": rng.random(extents) < 0.6,
        # No cell of a checkerboard has a neighbor along any axis.
        "isolated": idx.sum(axis=0) % 2 == 0,
        "grid-edge": edge,
        "edge-and-isolated": edge | (rng.random(extents) < 0.15),
        # What a caller passes for a partition: its active cells, here a
        # denser random mask (splitting it does not change which cells).
        "partition": rng.random(extents) < 0.7,
    }


ORACLE_EXTENTS = [(9,), (6, 7), (4, 5, 6), (4, 3, 5, 4)]
ORACLE_MASKS = ["none", "random", "isolated", "grid-edge", "edge-and-isolated", "partition"]


class TestWhereStencilOracle:
    """The one-axis-at-a-time stencil against the pre-change np.where stencil."""

    @pytest.mark.parametrize("extents", ORACLE_EXTENTS, ids=lambda e: f"rank{len(e)}")
    @pytest.mark.parametrize("mask_kind", ORACLE_MASKS)
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_derivatives_and_norm_equal_the_oracle(self, extents, mask_kind, is_complex):
        rng = np.random.default_rng(len(extents))
        geom = GridGeometry(extents, tuple(rng.uniform(0.1, 2.0, len(extents))),
                            (0.0,) * len(extents))
        mask = _oracle_masks(extents, rng)[mask_kind]
        v = rng.standard_normal(extents)
        if is_complex:
            v = v + 1j * rng.standard_normal(extents)
        cells = fdiff.MaskCells(geom, mask)
        want = where_stencil(v, geom, mask)
        got = cells.derivatives(cells.pack(v))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert np.array_equal(cells.gradient_norm(cells.pack(v)), fdiff.gradient_norm(want))
        # The full-grid path is the every-cell case.
        if mask is None:
            for g, w in zip(fdiff.gradient(v, geom), want):
                assert np.array_equal(g.ravel(), w)

    @pytest.mark.parametrize("extents", ORACLE_EXTENTS, ids=lambda e: f"rank{len(e)}")
    @pytest.mark.parametrize("mask_kind", ORACLE_MASKS)
    def test_two_field_gradient_equals_the_gradient_of_the_difference(self, extents,
                                                                      mask_kind):
        rng = np.random.default_rng(10 + len(extents))
        geom = GridGeometry(extents, tuple(rng.uniform(0.1, 2.0, len(extents))),
                            (0.0,) * len(extents))
        mask = _oracle_masks(extents, rng)[mask_kind]
        a, b = rng.random(extents), rng.random(extents)
        cells = fdiff.MaskCells(geom, mask)
        pa, pb = cells.pack(a), cells.pack(b)
        want = fdiff.gradient_norm(where_stencil(a - b, geom, mask))
        assert np.array_equal(cells.difference_gradient_norm(pa, pb), want)
        assert np.array_equal(cells.difference_gradient_norm(pa, pb), cells.gradient_norm(pa - pb))

    @pytest.mark.parametrize("extents", ORACLE_EXTENTS, ids=lambda e: f"rank{len(e)}")
    @pytest.mark.parametrize("mask_kind", ORACLE_MASKS)
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_packed_fields_equal_full_grid_fields(self, monkeypatch, extents, mask_kind,
                                                  is_complex):
        # Fields packed at the cells read their neighbors through the
        # position map; blocks of 3 cells put seams inside rows.
        monkeypatch.setattr(fdiff, "STENCIL_BLOCK", 3)
        rng = np.random.default_rng(30 + len(extents))
        geom = GridGeometry(extents, tuple(rng.uniform(0.1, 2.0, len(extents))),
                            (0.0,) * len(extents))
        mask = _oracle_masks(extents, rng)[mask_kind]
        a, b = rng.standard_normal(extents), rng.standard_normal(extents)
        if is_complex:
            a = a + 1j * rng.standard_normal(extents)
        cells = fdiff.MaskCells(geom, mask)
        pa, pb = cells.pack(a), cells.pack(b)
        # On every cell, packing is a flat view of the grid.
        assert np.shares_memory(pa, a) == (mask is None)
        want = where_stencil(a, geom, mask)
        for g, w in zip(cells.derivatives(pa), want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert np.array_equal(cells.gradient_norm(pa), fdiff.gradient_norm(want))
        assert np.array_equal(cells.difference_gradient_norm(pa, pb),
                              fdiff.gradient_norm(where_stencil(a - b, geom, mask)))

    def test_packed_field_of_the_wrong_length_is_refused(self):
        # A full grid is not packed: MaskCells.pack is the one way in.
        geom = box_geometry((6, 5), -1.0, 1.0)
        cells = fdiff.MaskCells(geom, np.arange(30).reshape(6, 5) % 3 == 0)
        for values in (np.zeros(11), np.zeros((6, 5))):
            for call in (cells.derivatives, cells.gradient_norm,
                         lambda v: cells.difference_gradient_norm(v, v)):
                with pytest.raises(ValueError, match="value array shape"):
                    call(values)
        with pytest.raises(ValueError, match="value array shape"):
            cells.difference_gradient_norm(np.zeros(10), np.zeros(11))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.complex64])
    def test_other_dtypes_equal_the_oracle(self, dtype):
        geom = box_geometry((6, 5), -1.0, 1.0)
        v = (np.arange(30) ** 2 % 17).reshape(6, 5)
        v = (v * (3 - 1j if np.dtype(dtype).kind == "c" else 3)).astype(dtype)
        mask = np.indices((6, 5)).sum(axis=0) % 3 != 0
        cells = fdiff.MaskCells(geom, mask)
        for g, w in zip(cells.derivatives(cells.pack(v)), where_stencil(v, geom, mask)):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_only_the_flat_index_flags_and_position_map_are_kept(self):
        rng = np.random.default_rng(3)
        geom = box_geometry((4, 3, 5, 4), -1.0, 1.0)
        mask = rng.random(geom.extents) < 0.5
        cells = fdiff.MaskCells(geom, mask)
        cells.gradient_norm(cells.pack(rng.standard_normal(geom.extents)))
        # Only the flat index, the neighbor flags and the full-grid position
        # map of a masked field are kept.
        assert set(vars(cells)) == {"geometry", "mask", "flat_index", "_neighbors", "_position"}
        assert cells._position.dtype == np.int32


class TestBlockSeams:
    """The blocked walk of gradient_norm against the np.where stencil, with
    blocks of a few cells, so seams fall inside rows and on edge cells."""

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("extents", [(40,)] + ORACLE_EXTENTS[1:],
                             ids=lambda e: f"rank{len(e)}")
    @pytest.mark.parametrize("mask_kind", ["random", "isolated", "grid-edge", "partition"])
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_norms_equal_the_oracle_across_block_seams(self, monkeypatch, block, extents,
                                                       mask_kind, is_complex):
        monkeypatch.setattr(fdiff, "STENCIL_BLOCK", block)
        rng = np.random.default_rng(20 + len(extents))
        geom = GridGeometry(extents, tuple(rng.uniform(0.1, 2.0, len(extents))),
                            (0.0,) * len(extents))
        mask = _oracle_masks(extents, rng)[mask_kind]
        a, b = rng.standard_normal(extents), rng.standard_normal(extents)
        if is_complex:
            a = a + 1j * rng.standard_normal(extents)
            b = b + 1j * rng.standard_normal(extents)
        cells = fdiff.MaskCells(geom, mask)
        assert cells.flat_index.size >= 2
        got = cells.gradient_norm(cells.pack(a))
        assert got.dtype == np.float64
        assert np.array_equal(got, fdiff.gradient_norm(where_stencil(a, geom, mask)))
        assert np.array_equal(cells.difference_gradient_norm(cells.pack(a), cells.pack(b)),
                              fdiff.gradient_norm(where_stencil(a - b, geom, mask)))


class TestStencil:
    def test_affine_field_is_exact_wherever_a_neighbor_exists(self):
        geom = box_geometry((9, 7), -1.0, 1.0)
        x, y = geom.coordinate_arrays()
        v = 2.5 * x - 0.75 * y + 1.0 + 0.0 * x * y
        mask = np.ones(geom.extents, bool)
        mask[3:5, 2:4] = False
        cells = fdiff.MaskCells(geom, mask)
        gx, gy = cells.derivatives(cells.pack(v))
        assert gx.size == mask.sum()
        assert np.allclose(gx, 2.5, rtol=0, atol=1e-12)
        assert np.allclose(gy, -0.75, rtol=0, atol=1e-12)

    def test_central_inside_one_sided_at_box_and_mask_edges(self):
        # for a x^2 + b x the central difference is exact; forward and
        # backward differences are off by +a h and -a h
        geom = box_geometry((11, 5), -1.0, 1.0)
        a, b = 0.75, -1.5
        h = geom.spacing[0]
        x, y = geom.coordinate_arrays()
        v = a * x ** 2 + b * x + 0.25 * y
        mask = np.ones(geom.extents, bool)
        mask[6, :] = False
        gx = np.zeros(geom.extents)
        cells = fdiff.MaskCells(geom, mask)
        gx[mask] = cells.derivatives(cells.pack(v))[0]
        exact = np.broadcast_to(2 * a * x + b, geom.extents)
        central = [1, 2, 3, 4, 8, 9]
        assert np.allclose(gx[central], exact[central], atol=1e-12)
        for row, offset in ((0, a * h), (7, a * h), (5, -a * h), (10, -a * h)):
            assert np.allclose(gx[row], exact[row] + offset, atol=1e-12)
        assert not gx[6].any()

    def test_isolated_cells_get_zero(self):
        geom = box_geometry((5, 5), 0.0, 1.0)
        v = np.arange(25.0).reshape(5, 5)
        mask = np.zeros((5, 5), bool)
        mask[0, 0] = mask[2, 2] = mask[4, 1] = True
        cells = fdiff.MaskCells(geom, mask)
        for g in cells.derivatives(cells.pack(v)):
            assert not g.any()
        assert not cells.gradient_norm(cells.pack(v)).any()

    def test_axis_of_one_sample_has_no_neighbors(self):
        geom = GridGeometry((1, 4), (1.0, 0.5), (0.0, 0.0))
        g0, g1 = fdiff.gradient(np.arange(4.0).reshape(1, 4), geom)
        assert not g0.any()
        assert np.allclose(g1, 2.0)

    @pytest.mark.parametrize("dtype, out", [(np.complex128, np.complex128),
                                            (np.complex64, np.complex64),
                                            (np.float32, np.float64),
                                            (np.int64, np.float64)])
    def test_dtype(self, dtype, out):
        geom = box_geometry((6, 5), -1.0, 1.0)
        v = (np.arange(30).reshape(6, 5) * (1 + 1j if np.dtype(dtype).kind == "c" else 1))
        for g in fdiff.gradient(v.astype(dtype), geom):
            assert g.dtype == out
        assert fdiff.MaskCells(geom).gradient_norm(v.astype(dtype).ravel()).dtype == np.float64

    def test_complex_field_differentiates_both_parts(self):
        geom = box_geometry((8, 6), -1.0, 1.0)
        x, y = geom.coordinate_arrays()
        v = (1.5 - 2.0j) * x + 0.5j * y + 0.0 * x * y
        gx, gy = fdiff.gradient(v, geom)
        assert np.allclose(gx, 1.5 - 2.0j) and np.allclose(gy, 0.5j)

    def test_shape_mismatches_raise(self):
        geom = box_geometry((6, 5), -1.0, 1.0)
        cells = fdiff.MaskCells(geom)
        for call in (lambda v: fdiff.gradient(v, geom), cells.pack, cells.gradient_norm):
            with pytest.raises(ValueError, match="value array shape"):
                call(np.zeros((5, 6)))
        with pytest.raises(ValueError, match="mask shape"):
            fdiff.MaskCells(geom, np.ones((5, 6), bool))


class TestPackedPath:
    @pytest.mark.parametrize("masked", [True, False])
    def test_matches_full_grid_reference(self, masked):
        rng = np.random.default_rng(5)
        geom = GridGeometry((7, 5, 6, 4), (0.5, 0.25, 1.0, 0.125), (0.0,) * 4)
        v = rng.standard_normal(geom.extents) + 1j * rng.standard_normal(geom.extents)
        mask = rng.random(geom.extents) < 0.5 if masked else None
        reference = reference_gradient(v, geom, mask)
        cells = fdiff.MaskCells(geom, mask)
        if masked:
            pairs = zip(cells.derivatives(cells.pack(v)), (r[mask] for r in reference))
        else:
            pairs = zip(fdiff.gradient(v, geom), reference)
        for got, want in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        full = fdiff.gradient_norm(reference)
        packed = cells.gradient_norm(cells.pack(v))
        assert np.array_equal(packed, full.ravel() if mask is None else full[mask])

    def test_pack_and_index_follow_row_major_order(self):
        rng = np.random.default_rng(6)
        geom = box_geometry((5, 4, 3), -1.0, 1.0)
        v = rng.standard_normal(geom.extents)
        mask = rng.random(geom.extents) < 0.5
        cells = fdiff.MaskCells(geom, mask)
        assert np.array_equal(cells.pack(v), v[mask])
        for got, want in zip(np.unravel_index(cells.flat_index, geom.extents), np.nonzero(mask)):
            assert np.array_equal(got, want)

    def test_later_edits_of_the_mask_do_not_reach_the_tables(self):
        geom = box_geometry((6, 6), -1.0, 1.0)
        v = np.arange(36.0).reshape(6, 6) ** 2
        mask = np.ones((6, 6), bool)
        mask[2, :] = False
        cells = fdiff.MaskCells(geom, mask)
        want = fdiff.gradient_norm(reference_gradient(v, geom, mask))[mask]
        mask[:] = True
        assert np.array_equal(cells.gradient_norm(cells.pack(v)), want)

    def test_a_partition_is_not_a_mask(self):
        # A partition's active cells are partition.active; the partition
        # itself is refused, not read as one cell.
        geom = box_geometry((7, 6), -1.0, 1.0)
        partition = DomainPartition.split_along_axis(geom, 0, 0.2)
        with pytest.raises(ValueError, match="mask shape"):
            fdiff.MaskCells(geom, partition)
        assert fdiff.MaskCells(geom, partition.active).flat_index.size == 42


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.sampled_from([1, 2, 4]),
       density=st.floats(0.0, 1.0), is_complex=st.booleans())
def test_packed_norm_equals_reference_at_mask_cells(seed, rank, density, is_complex):
    rng = np.random.default_rng(seed)
    extents = tuple(int(n) for n in rng.integers(1, 9 if rank < 4 else 5, rank))
    geom = GridGeometry(extents, tuple(rng.uniform(0.1, 2.0, rank)), (0.0,) * rank)
    v = rng.standard_normal(extents)
    if is_complex:
        v = v + 1j * rng.standard_normal(extents)
    mask = rng.random(extents) < density
    want = fdiff.gradient_norm(reference_gradient(v, geom, mask))[mask]
    cells = fdiff.MaskCells(geom, mask)
    got = cells.gradient_norm(cells.pack(v))
    assert got.shape == want.shape and np.array_equal(got, want)
    for g, r in zip(cells.derivatives(cells.pack(v)), reference_gradient(v, geom, mask)):
        assert g.dtype == r.dtype and np.array_equal(g, r[mask])
