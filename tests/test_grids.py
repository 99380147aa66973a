"""Grid geometry, partitions, and the GGR1 binary format."""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from gaborstab.errors import GridFormatError
from gaborstab.grids import (
    MAX_GRID_CELLS,
    DomainPartition,
    GridGeometry,
    GridWriter,
    PhaseSpaceGrid,
    SignalGrid,
    active_mask,
    atomic_file,
    box_geometry,
    box_samples,
    read_grid,
    read_phase_grid,
    read_signal,
    write_grid,
    write_grid_to,
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

    def test_split_puts_a_sample_on_the_threshold_above_it(self):
        geom = box_geometry((2, 3, 5), -1.0, 1.0)
        part = DomainPartition.split_along_axis(geom, axis=2, threshold=0.0)
        assert part.labels.dtype == np.int64
        assert np.array_equal(part.labels[1, 2], [1, 1, 2, 2, 2])
        assert np.array_equal(part.labels, np.broadcast_to(part.labels[0, 0], (2, 3, 5)))
        assert part.active.all()

    @pytest.mark.parametrize("axis", [2, -1])
    def test_split_rejects_an_axis_outside_the_rank(self, axis):
        geom = box_geometry((4, 4), -1.0, 1.0)
        with pytest.raises(ValueError, match=f"axis {axis} is out of range"):
            DomainPartition.split_along_axis(geom, axis=axis, threshold=0.0)

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

    def test_partition_is_not_a_mask(self):
        # Callers pass partition.active; the partition itself is refused.
        geom = box_geometry((3,), 0.0, 1.0)
        part = DomainPartition(geom, np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="mask shape"):
            active_mask(part, (3,))
        assert np.array_equal(active_mask(part.active, (3,)), [False, True, True])

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


class TestGridWriter:
    """GGR1 written in row-major pieces, as the gabor command streams it."""

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_pieces_encode_like_write_grid_to(self, tmp_path, is_complex):
        rng = np.random.default_rng(5)
        geom = box_geometry((5, 4, 3), -1.0, 1.0)
        values = rng.standard_normal(geom.extents)
        if is_complex:
            values = values + 1j * rng.standard_normal(geom.extents)
        with open(tmp_path / "whole.ggr", "wb") as fh:
            write_grid_to(fh, geom, values)
        with open(tmp_path / "pieces.ggr", "wb") as fh:
            out = GridWriter(fh, geom)
            for piece in np.split(values.reshape(-1), [7, 8, 31]):
                out.write(piece)
            out.finish()
        assert (tmp_path / "pieces.ggr").read_bytes() == (tmp_path / "whole.ggr").read_bytes()

    @pytest.mark.parametrize("pieces, message", [
        ([np.ones(5)], "got 5 of the grid's 6 values"),
        ([np.ones(4), np.ones(3)], "more than the grid's 6 values"),
        ([np.ones(3), np.ones(3, complex)], "one dtype"),
        ([], "got 0 of the grid's 6 values"),
    ])
    def test_bad_stream_refused_before_either_rename(self, tmp_path, pieces, message):
        geom = box_geometry((2, 3), -1.0, 1.0)
        for name in ("F.ggr", "S.ggr"):
            write_grid(str(tmp_path / name), geom, np.zeros((2, 3)))
        before = {name: (tmp_path / name).read_bytes() for name in ("F.ggr", "S.ggr")}
        with pytest.raises(ValueError, match=message):
            with atomic_file(str(tmp_path / "F.ggr")) as fh_f, \
                    atomic_file(str(tmp_path / "S.ggr")) as fh_s:
                good, bad = GridWriter(fh_f, geom), GridWriter(fh_s, geom)
                good.write(np.ones(6))
                for piece in pieces:
                    bad.write(piece)
                good.finish()
                bad.finish()
        assert sorted(os.listdir(tmp_path)) == ["F.ggr", "S.ggr"]
        assert {name: (tmp_path / name).read_bytes() for name in before} == before


    @pytest.mark.parametrize("is_complex", [False, True])
    def test_write_grid_drains_an_iterator_of_pieces(self, tmp_path, is_complex):
        rng = np.random.default_rng(6)
        geom = box_geometry((5, 4, 3), -1.0, 1.0)
        values = rng.standard_normal(geom.extents)
        if is_complex:
            values = values + 1j * rng.standard_normal(geom.extents)
        write_grid(str(tmp_path / "whole.ggr"), geom, values)
        write_grid(str(tmp_path / "pieces.ggr"), geom, iter(np.split(values, [1, 3])))
        assert (tmp_path / "pieces.ggr").read_bytes() == (tmp_path / "whole.ggr").read_bytes()

    @pytest.mark.parametrize("pieces", [[np.ones(5)], [np.ones(4), np.ones(3)],
                                        [np.ones(3), np.ones(3, complex)]])
    def test_write_grid_refuses_a_bad_stream(self, tmp_path, pieces):
        geom = box_geometry((2, 3), -1.0, 1.0)
        write_grid(str(tmp_path / "F.ggr"), geom, np.zeros((2, 3)))
        before = (tmp_path / "F.ggr").read_bytes()
        with pytest.raises(ValueError, match="grid stream"):
            write_grid(str(tmp_path / "F.ggr"), geom, iter(pieces))
        assert os.listdir(tmp_path) == ["F.ggr"]
        assert (tmp_path / "F.ggr").read_bytes() == before


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestReadGridFromPipe:
    """A pipe has no file size to check first: read_grid reads it to its end."""

    @staticmethod
    def read_through_fifo(tmp_path, data):
        fifo = str(tmp_path / "grid.fifo")
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            return read_grid(fifo)
        finally:
            writer.join()

    @staticmethod
    def grid_bytes(tmp_path):
        geom = box_geometry((5, 4), -1.0, 1.0)
        values = np.arange(20.0).reshape(5, 4) * (1.0 - 2.0j)
        write_grid(str(tmp_path / "g.ggr"), geom, values)
        return geom, values, (tmp_path / "g.ggr").read_bytes()

    def test_valid_grid(self, tmp_path):
        geom, values, data = self.grid_bytes(tmp_path)
        got_geom, got = self.read_through_fifo(tmp_path, data)
        assert got_geom == geom and np.array_equal(got, values)
        got[0, 0] = 1.0  # writable, as from a regular file

    @pytest.mark.parametrize("cut", [slice(None, -8), slice(None, None)])
    def test_wrong_payload_size(self, tmp_path, cut):
        _, _, data = self.grid_bytes(tmp_path)
        data = data[cut] if cut.stop else data + b"\x00" * 8
        with pytest.raises(GridFormatError, match="payload has"):
            self.read_through_fifo(tmp_path, data)

    def test_huge_header_does_not_allocate(self, tmp_path):
        data = (struct.pack("<4sIBB", b"GGR1", 1, 2, 1)
                + struct.pack("<Qdd", 1 << 20, 1.0, 0.0) * 2)
        with pytest.raises(GridFormatError, match="payload has 0 bytes"):
            self.read_through_fifo(tmp_path, data)


class TestReadGridMemory:
    def test_payload_is_held_once(self, tmp_path):
        # numpy reports its buffers to tracemalloc.  Reading the whole file
        # and then converting it held the payload twice (a peak of 2.0x).
        geom = box_geometry((512, 512), -1.0, 1.0)
        values = np.ones(geom.extents, complex)
        payload = values.nbytes
        assert payload == 4 << 20
        path = str(tmp_path / "big.ggr")
        write_grid(path, geom, values)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got_geom, got = read_grid(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert got_geom == geom and np.array_equal(got, values)
        assert peak <= 1.1 * payload
