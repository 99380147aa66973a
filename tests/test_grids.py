"""Grid geometry, partitions, and the GGR1 binary format."""

import struct

import numpy as np
import pytest

from gaborstab.errors import GridFormatError
from gaborstab.grids import (
    MAX_GRID_CELLS,
    DomainPartition,
    GridGeometry,
    PhaseSpaceGrid,
    SignalGrid,
    active_mask,
    box_geometry,
    box_samples,
    read_grid,
    read_phase_grid,
    read_signal,
    write_grid,
)


class TestBoxSamples:
    def test_counts_are_rounded_lengths_plus_one(self):
        assert box_samples((14.0, 8.0), 1.0 / 16.0, "box") == (225, 129)
        assert box_samples((2.0 * 3.7,), 0.1, "box") == (int(round(7.4 / 0.1)) + 1,)

    def test_limit_is_inclusive(self):
        side = float(MAX_GRID_CELLS - 1)
        assert box_samples((side,), 1.0, "box") == (MAX_GRID_CELLS,)
        with pytest.raises(ValueError, match=f"{MAX_GRID_CELLS + 1} samples"):
            box_samples((side + 1.0,), 1.0, "box")

    @pytest.mark.parametrize("length", [float("inf"), float("nan"), 1e308])
    def test_nonfinite_counts_rejected_before_conversion(self, length):
        with pytest.raises(ValueError, match="the test box would need"):
            box_samples((length, 8.0), 1e-3, "the test box")


class TestGridGeometry:
    def test_axis_coordinates(self):
        geom = GridGeometry(extents=(5,), spacing=(0.5,), origin=(-1.0,))
        t = geom.axis_coordinates(0)
        assert np.allclose(t, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert geom.axis_upper(0) == pytest.approx(1.0)

    def test_cell_volume_is_spacing_product(self):
        geom = GridGeometry(extents=(4, 6), spacing=(0.5, 0.25), origin=(0.0, 0.0))
        assert geom.cell_volume == pytest.approx(0.125)
        assert geom.num_cells == 24
        assert geom.rank == 2

    def test_coordinate_arrays_broadcast(self):
        geom = box_geometry((3, 5), -1.0, 1.0)
        xs = geom.coordinate_arrays()
        assert xs[0].shape == (3, 1)
        assert xs[1].shape == (1, 5)
        total = xs[0] + xs[1]
        assert total.shape == (3, 5)
        assert total[0, 0] == pytest.approx(-2.0)

    def test_index_coordinates(self):
        geom = GridGeometry(extents=(4, 4), spacing=(0.5, 0.25), origin=(1.0, -1.0))
        pt = geom.index_coordinates((2, 3))
        assert np.allclose(pt, [2.0, -0.25])
        with pytest.raises(ValueError):
            geom.index_coordinates((1,))

    @pytest.mark.parametrize("extents", [(7,), (5, 6), (3, 4, 5), (3, 2, 4, 3)])
    def test_distance_sq_equals_a_loop_over_cells(self, extents):
        rng = np.random.default_rng(len(extents))
        geom = GridGeometry(extents=extents, spacing=rng.uniform(0.1, 1.0, len(extents)),
                            origin=rng.uniform(-2.0, 0.0, len(extents)))
        center = rng.uniform(-1.0, 1.0, len(extents))
        r2 = geom.distance_sq(center)
        r2_origin = geom.distance_sq()
        assert r2.shape == r2_origin.shape == extents
        for idx in np.ndindex(*extents):
            z = np.array(geom.index_coordinates(idx))
            assert r2[idx] == pytest.approx(float(np.sum((z - center) ** 2)), rel=1e-14)
            assert r2_origin[idx] == pytest.approx(float(np.sum(z ** 2)), rel=1e-14)
        # The indexed form holds the full-grid values at the listed cells.
        index = np.nonzero(rng.uniform(size=extents) < 0.4)
        assert np.array_equal(geom.distance_sq(center, index), r2[index])

    @pytest.mark.parametrize("extents", [(7,), (5, 6), (3, 4, 5), (3, 2, 4, 3)])
    def test_distance_sq_equals_the_list_based_sum(self, extents):
        # The pre-change indexed form gathered every axis's coordinates into a
        # list first; reading the index one axis at a time gives the same bits.
        def list_distance_sq(geom, center, index):
            coords = [geom.axis_coordinates(a)[i] for a, i in enumerate(index)]
            return sum((x - ca) ** 2 for x, ca in zip(coords, np.asarray(center, float)))

        rng = np.random.default_rng(20 + len(extents))
        geom = GridGeometry(extents=extents, spacing=rng.uniform(0.1, 1.0, len(extents)),
                            origin=rng.uniform(-2.0, 0.0, len(extents)))
        center = rng.uniform(-1.0, 1.0, len(extents))
        index = np.nonzero(rng.uniform(size=extents) < 0.5)
        want = list_distance_sq(geom, center, index)
        assert np.array_equal(geom.distance_sq(center, index), want)
        assert np.array_equal(geom.distance_sq(center, iter(index)), want)
        assert np.array_equal(geom.distance_sq(center, (i for i in index)), want)

    def test_distance_sq_rejects_a_center_of_the_wrong_length(self):
        geom = box_geometry((3, 4), -1.0, 1.0)
        for center in ((0.0,), (0.0, 0.0, 0.0), [[0.0, 0.0]]):
            with pytest.raises(ValueError, match="one coordinate per grid axis"):
                geom.distance_sq(center)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(extents=(0,), spacing=(1.0,), origin=(0.0,)),
            dict(extents=(), spacing=(), origin=()),
            dict(extents=(4,), spacing=(0.0,), origin=(0.0,)),
            dict(extents=(4,), spacing=(-1.0,), origin=(0.0,)),
            dict(extents=(4,), spacing=(np.inf,), origin=(0.0,)),
            dict(extents=(4,), spacing=(1.0,), origin=(np.nan,)),
            dict(extents=(4, 4), spacing=(1.0,), origin=(0.0, 0.0)),
        ],
    )
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GridGeometry(**kwargs)

    def test_box_geometry_endpoints(self):
        geom = box_geometry((9,), -2.0, 2.0)
        t = geom.axis_coordinates(0)
        assert t[0] == pytest.approx(-2.0)
        assert t[-1] == pytest.approx(2.0)
        assert geom.spacing[0] == pytest.approx(0.5)

    def test_box_geometry_scalar_broadcast(self):
        geom = box_geometry((5, 9), -1.0, 1.0)
        assert geom.spacing[0] == pytest.approx(0.5)
        assert geom.spacing[1] == pytest.approx(0.25)

    def test_box_geometry_per_axis_edges(self):
        geom = box_geometry((5, 5), (-1.0, 0.0), (1.0, 4.0))
        assert geom.origin == (-1.0, 0.0)
        assert geom.axis_upper(1) == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "extents,lo,hi",
        [
            ((1,), 0.0, 1.0),
            ((5,), 1.0, 1.0),
            ((5,), 2.0, -2.0),
            ((5, 5), (0.0, 0.0, 0.0), 1.0),
        ],
    )
    def test_box_geometry_rejects_bad_boxes(self, extents, lo, hi):
        with pytest.raises(ValueError):
            box_geometry(extents, lo, hi)


class TestGridContainers:
    def test_signal_grid_casts_to_complex(self):
        geom = box_geometry((8,), 0.0, 1.0)
        grid = SignalGrid(geom, np.ones(8))
        assert grid.values.dtype == np.complex128
        assert grid.dimension == 1

    def test_signal_grid_shape_mismatch(self):
        geom = box_geometry((8,), 0.0, 1.0)
        with pytest.raises(ValueError):
            SignalGrid(geom, np.ones(7))

    def test_phase_grid_requires_even_rank(self):
        geom = box_geometry((8,), 0.0, 1.0)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(geom, np.ones(8, dtype=np.complex128))

    def test_phase_grid_accepts_rank_two(self):
        geom = box_geometry((4, 6), -1.0, 1.0)
        grid = PhaseSpaceGrid(geom, np.zeros((4, 6)))
        assert grid.dimension == 1


class TestDomainPartition:
    def test_split_along_axis_labels(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        part = DomainPartition.split_along_axis(geom, axis=0, threshold=0.0)
        assert part.num_components == 2
        assert np.all(part.labels[:2, :] == 1)
        assert np.all(part.labels[2:, :] == 2)
        assert np.array_equal(part.component(1), part.labels == 1)

    def test_split_respects_base_mask(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        base = np.zeros((4, 4), dtype=bool)
        base[0, :] = True
        part = DomainPartition.split_along_axis(geom, axis=0, threshold=0.0, base_mask=base)
        assert part.component(1).sum() == 4
        assert np.array_equal(part.active, base)

    @pytest.mark.parametrize("axis", [2, -1])
    def test_split_rejects_an_axis_outside_the_rank(self, axis):
        geom = box_geometry((4, 4), -1.0, 1.0)
        with pytest.raises(ValueError, match=f"axis {axis} is out of range"):
            DomainPartition.split_along_axis(geom, axis=axis, threshold=0.0)

    def test_split_rejects_a_base_mask_of_the_wrong_shape(self):
        geom = box_geometry((4, 4), -1.0, 1.0)
        with pytest.raises(ValueError, match="mask shape"):
            DomainPartition.split_along_axis(geom, 0, 0.0, base_mask=np.ones((4, 3), bool))

    def test_from_masks_rejects_overlap(self):
        geom = box_geometry((3,), 0.0, 1.0)
        a = np.array([True, True, False])
        b = np.array([False, True, True])
        with pytest.raises(ValueError):
            DomainPartition.from_masks(geom, [a, b])

    def test_from_masks_component_indexing(self):
        geom = box_geometry((3,), 0.0, 1.0)
        a = np.array([True, False, False])
        b = np.array([False, False, True])
        part = DomainPartition.from_masks(geom, [a, b])
        assert part.num_components == 2
        assert np.array_equal(part.component(1), a)
        assert np.array_equal(part.component(2), b)
        assert np.array_equal(part.active, a | b)
        with pytest.raises(ValueError):
            part.component(0)
        with pytest.raises(ValueError):
            part.component(3)

    def test_negative_labels_rejected(self):
        geom = box_geometry((3,), 0.0, 1.0)
        with pytest.raises(ValueError):
            DomainPartition(geom, np.array([-1, 0, 1]))

    def test_non_integer_labels_rejected(self):
        geom = box_geometry((3,), 0.0, 1.0)
        with pytest.raises(ValueError):
            DomainPartition(geom, np.array([0.0, 1.0, 2.0]))


class TestActiveMask:
    def test_none_passes_through(self):
        assert active_mask(None, (3, 2)) is None

    def test_partition_gives_active(self):
        geom = box_geometry((3,), 0.0, 1.0)
        part = DomainPartition(geom, np.array([0, 1, 2]))
        mask = active_mask(part, (3,))
        assert np.array_equal(mask, [False, True, True])

    def test_bool_array_passthrough(self):
        arr = np.array([True, False])
        assert np.array_equal(active_mask(arr, (2,)), arr)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            active_mask(np.array([True, False]), (3,))


class TestGgrRoundTrip:
    def _roundtrip(self, tmp_path, values, geom):
        path = tmp_path / "grid.ggr"
        write_grid(str(path), geom, values)
        return read_grid(str(path))

    def test_real_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        geom = GridGeometry(extents=(6, 3), spacing=(0.03125, 0.5), origin=(-2.0, 1.25))
        values = rng.standard_normal((6, 3))
        got_geom, got_values = self._roundtrip(tmp_path, values, geom)
        assert got_geom == geom
        assert got_values.dtype == np.float64
        assert np.array_equal(got_values, values)

    def test_complex_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        geom = box_geometry((8,), -1.0, 1.0)
        values = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        got_geom, got_values = self._roundtrip(tmp_path, values, geom)
        assert got_geom == geom
        assert got_values.dtype == np.complex128
        assert np.array_equal(got_values, values)

    def test_write_rejects_shape_mismatch(self, tmp_path):
        geom = box_geometry((8,), -1.0, 1.0)
        with pytest.raises(ValueError):
            write_grid(str(tmp_path / "x.ggr"), geom, np.ones(7))

    def test_read_signal_wraps_signal_grid(self, tmp_path):
        geom = box_geometry((8,), -1.0, 1.0)
        path = tmp_path / "sig.ggr"
        write_grid(str(path), geom, np.arange(8.0))
        grid = read_signal(str(path))
        assert isinstance(grid, SignalGrid)
        assert np.allclose(grid.values, np.arange(8.0))

    def test_read_phase_grid_requires_even_rank(self, tmp_path):
        geom = box_geometry((8,), -1.0, 1.0)
        path = tmp_path / "sig.ggr"
        write_grid(str(path), geom, np.arange(8.0))
        with pytest.raises(ValueError):
            read_phase_grid(str(path))

    def test_read_phase_grid_rank_two(self, tmp_path):
        geom = box_geometry((4, 4), -1.0, 1.0)
        path = tmp_path / "ph.ggr"
        write_grid(str(path), geom, np.ones((4, 4), dtype=np.complex128))
        grid = read_phase_grid(str(path))
        assert isinstance(grid, PhaseSpaceGrid)
        assert grid.dimension == 1


class TestGgrCorruption:
    def _write_valid(self, tmp_path):
        geom = box_geometry((4,), 0.0, 1.0)
        path = tmp_path / "ok.ggr"
        write_grid(str(path), geom, np.arange(4.0))
        return path.read_bytes()

    def _expect_error(self, tmp_path, data):
        path = tmp_path / "bad.ggr"
        path.write_bytes(data)
        with pytest.raises(GridFormatError):
            read_grid(str(path))

    def test_short_header(self, tmp_path):
        self._expect_error(tmp_path, b"GG")

    def test_bad_magic(self, tmp_path):
        data = self._write_valid(tmp_path)
        self._expect_error(tmp_path, b"XXXX" + data[4:])

    def test_unsupported_version(self, tmp_path):
        data = bytearray(self._write_valid(tmp_path))
        data[4:8] = struct.pack("<I", 99)
        self._expect_error(tmp_path, bytes(data))

    def test_unknown_dtype_code(self, tmp_path):
        data = bytearray(self._write_valid(tmp_path))
        data[9] = 7
        self._expect_error(tmp_path, bytes(data))

    def test_truncated_axis_table(self, tmp_path):
        data = self._write_valid(tmp_path)
        self._expect_error(tmp_path, data[:14])

    def test_nonpositive_spacing_in_header(self, tmp_path):
        data = bytearray(self._write_valid(tmp_path))
        # axis record follows the 10-byte header: u64 extent, f64 spacing, f64 origin
        data[18:26] = struct.pack("<d", 0.0)
        self._expect_error(tmp_path, bytes(data))

    def test_truncated_payload(self, tmp_path):
        data = self._write_valid(tmp_path)
        self._expect_error(tmp_path, data[:-8])

    def test_oversized_payload(self, tmp_path):
        data = self._write_valid(tmp_path)
        self._expect_error(tmp_path, data + b"\x00" * 8)

    def test_cell_count_beyond_int64(self, tmp_path):
        # A real 2^32 x 2^32 grid with no payload: an int64 cell count wraps
        # to 0, which matches the empty payload and fails later in a reshape.
        geometry = GridGeometry((1 << 32, 1 << 32), (1.0, 1.0), (0.0, 0.0))
        assert geometry.num_cells == 1 << 64
        self._expect_error(tmp_path, struct.pack("<4sIBB", b"GGR1", 1, 2, 0)
                           + struct.pack("<Qdd", 1 << 32, 1.0, 0.0) * 2)
