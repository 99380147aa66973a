"""Uniform sampling grids, phase-space domains, and the GGR1 grid file format.

Every field in the package lives on a uniform box grid: sample ``i`` along
axis ``a`` sits at ``origin[a] + i * spacing[a]`` and carries quadrature
weight ``cell_volume = prod(spacing)``.  Values are stored row-major, and
phase-space grids interleave axes as (x_1, y_1, ..., x_d, y_d).
"""

from __future__ import annotations

import collections.abc
import contextlib
import math
import os
import stat
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import GridFormatError

GRID_MAGIC = b"GGR1"
GRID_VERSION = 1
_DTYPE_REAL = 0
_DTYPE_COMPLEX = 1
# dtype code -> (stored little-endian dtype, dtype of the values read back)
_DTYPES = {_DTYPE_REAL: ("<f8", np.float64), _DTYPE_COMPLEX: ("<c16", np.complex128)}
# Largest box that box_samples sizes from a parameter (such as the bump
# separation T): 2^22 cells, 64 MiB for one complex128 grid.
MAX_GRID_CELLS = 1 << 22


@dataclass(frozen=True, slots=True)
class GridGeometry:
    """Axis-aligned uniform grid geometry.

    Parameters
    ----------
    extents : tuple of int
        Number of samples per axis, each at least 2.
    spacing : tuple of float
        Positive sample spacing per axis.
    origin : tuple of float
        Coordinate of sample index 0 per axis.
    """

    extents: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if not (len(self.extents) == len(self.spacing) == len(self.origin)):
            raise ValueError("extents, spacing and origin must have equal length")
        if len(self.extents) == 0:
            raise ValueError("grid needs at least one axis")
        if any(n < 1 for n in self.extents):
            raise ValueError("every axis needs at least 1 sample")
        if any((not np.isfinite(s)) or s <= 0.0 for s in self.spacing):
            raise ValueError("spacings must be positive and finite")
        if any(not np.isfinite(o) for o in self.origin):
            raise ValueError("origins must be finite")

    @property
    def rank(self) -> int:
        return len(self.extents)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def num_cells(self) -> int:
        # An exact integer product: int64 would wrap for large header extents.
        return math.prod(self.extents)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Sample coordinates along one axis."""
        n = self.extents[axis]
        return self.origin[axis] + self.spacing[axis] * np.arange(n, dtype=float)

    def axis_upper(self, axis: int) -> float:
        """Coordinate of the last sample along one axis."""
        return self.origin[axis] + self.spacing[axis] * (self.extents[axis] - 1)

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Per-axis coordinates shaped for broadcasting against the value array."""
        out = []
        for a in range(self.rank):
            shape = [1] * self.rank
            shape[a] = self.extents[a]
            out.append(self.axis_coordinates(a).reshape(shape))
        return out

    def distance_sq(self, center=None, index=None) -> np.ndarray:
        """|z - center|^2 over the grid, or at the cells of a per-axis multi-index.

        center defaults to the origin; index is an iterable of one integer
        array per axis, as ``np.nonzero`` returns.  It is read one axis at a
        time, so a generator of index arrays keeps one of them alive at once.
        """
        c = np.zeros(self.rank) if center is None else np.asarray(center, float)
        if c.shape != (self.rank,):
            raise ValueError("center must have one coordinate per grid axis")
        if index is None:
            coords = self.coordinate_arrays()
        else:
            coords = (self.axis_coordinates(a)[i] for a, i in enumerate(index))
        # One sum, axis by axis from 0, for both forms: they agree bit for bit.
        return sum((x - ca) ** 2 for x, ca in zip(coords, c))

    def index_coordinates(self, index: tuple[int, ...]) -> tuple[float, ...]:
        """Coordinates of the sample at a multi-index."""
        if len(index) != self.rank:
            raise ValueError("index rank mismatch")
        return tuple(self.origin[a] + self.spacing[a] * index[a] for a in range(self.rank))


def box_geometry(extents, lo, hi) -> GridGeometry:
    """Geometry whose first and last samples sit exactly at lo and hi per axis.

    Scalar lo or hi broadcast across all axes.
    """
    extents = tuple(int(n) for n in np.atleast_1d(extents))
    lo = tuple(float(v) for v in np.broadcast_to(np.asarray(lo, float), (len(extents),)))
    hi = tuple(float(v) for v in np.broadcast_to(np.asarray(hi, float), (len(extents),)))
    if not (len(extents) == len(lo) == len(hi)):
        raise ValueError("extents, lo and hi must have equal length")
    if any(h <= l for l, h in zip(lo, hi)):
        raise ValueError("upper box edge must exceed lower edge")
    if any(n < 2 for n in extents):
        raise ValueError("a box needs at least 2 samples per axis")
    spacing = tuple((h - l) / (n - 1) for l, h, n in zip(lo, hi, extents))
    return GridGeometry(extents=extents, spacing=spacing, origin=lo)


def box_samples(lengths, spacing: float, what: str) -> tuple[int, ...]:
    """Samples per axis, round(length / spacing) + 1, of a box sized from a parameter.

    The counts are checked as floats before any int conversion: an infinite
    or NaN length, or a box of more than MAX_GRID_CELLS cells, raises
    ValueError naming `what` instead of OverflowError or a huge allocation.
    """
    counts = [length / spacing + 1.0 for length in lengths]
    if not math.prod(counts) <= MAX_GRID_CELLS:
        shape = " x ".join(f"{c:.0f}" for c in counts)
        raise ValueError(f"{what} would need {shape} samples, "
                         f"over the limit of {MAX_GRID_CELLS} cells")
    return tuple(int(round(length / spacing)) + 1 for length in lengths)


def grid_array(values, extents, dtype, what: str) -> np.ndarray:
    """values as an array of dtype (None keeps its own) whose shape equals extents.

    Every grid-shaped argument of the package is checked here; a mismatch
    raises ValueError "<what> shape ... does not match grid extents ...".
    """
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != tuple(extents):
        raise ValueError(
            f"{what} shape {arr.shape} does not match grid extents {tuple(extents)}")
    return arr


@dataclass(frozen=True, slots=True)
class SignalGrid:
    """Complex samples of a signal on R^d."""

    geometry: GridGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values",
                           grid_array(self.values, self.geometry.extents,
                                      np.complex128, "value array"))

    @property
    def dimension(self) -> int:
        return self.geometry.rank


@dataclass(frozen=True, slots=True)
class PhaseSpaceGrid:
    """Complex samples of a field on phase space R^{2d}, axes (x_1, y_1, ..., x_d, y_d)."""

    geometry: GridGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.geometry.rank % 2 != 0:
            raise ValueError("phase-space grids need even rank")
        object.__setattr__(self, "values",
                           grid_array(self.values, self.geometry.extents,
                                      np.complex128, "value array"))

    @property
    def dimension(self) -> int:
        return self.geometry.rank // 2


@dataclass(frozen=True, slots=True)
class DomainPartition:
    """Cell labels over a grid: 0 marks inactive cells, 1..k index disjoint components."""

    geometry: GridGeometry
    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = grid_array(self.labels, self.geometry.extents, None, "label array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("labels must be integers")
        if arr.min() < 0:
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "labels", arr.astype(np.int64))

    @property
    def num_components(self) -> int:
        return int(self.labels.max())

    @property
    def active(self) -> np.ndarray:
        return self.labels > 0

    def component(self, i: int) -> np.ndarray:
        if not 1 <= i <= self.num_components:
            raise ValueError("component index out of range")
        return self.labels == i

    @classmethod
    def from_masks(cls, geometry: GridGeometry, masks) -> "DomainPartition":
        """Build a partition from disjoint boolean masks; overlap is an error."""
        labels = np.zeros(geometry.extents, dtype=np.int64)
        for i, mask in enumerate(masks, start=1):
            mask = grid_array(mask, geometry.extents, bool, "component mask")
            if np.any(labels[mask] != 0):
                raise ValueError("component masks overlap")
            labels[mask] = i
        return cls(geometry=geometry, labels=labels)

    @classmethod
    def split_along_axis(cls, geometry: GridGeometry, axis: int,
                         threshold: float) -> "DomainPartition":
        """Two components: cells with coordinate below / at-or-above a threshold.

        axis must lie in [0, rank).
        """
        if not 0 <= axis < geometry.rank:
            raise ValueError(f"axis {axis} is out of range for a rank-{geometry.rank} grid")
        coords = np.broadcast_to(geometry.coordinate_arrays()[axis], geometry.extents)
        return cls(geometry=geometry, labels=np.where(coords < threshold, 1, 2))


def active_mask(mask, shape) -> np.ndarray | None:
    """An optional mask argument: None, or a bool array of the grid's shape."""
    return None if mask is None else grid_array(mask, shape, bool, "mask")


# ---------------------------------------------------------------------------
# GGR1 file format
#
# Little-endian layout:
#   magic "GGR1" (4 bytes); u32 version = 1; u8 rank; u8 dtype
#   (0 = real float64, 1 = complex128 stored as interleaved re, im);
#   per axis: u64 extent, f64 spacing, f64 origin;
#   then the float64 payload in row-major order.  No padding, no compression.
# ---------------------------------------------------------------------------

_HEAD = struct.Struct("<4sIBB")
_AXIS = struct.Struct("<Qdd")


@contextlib.contextmanager
def atomic_file(path):
    """A binary handle on a temp file beside path, renamed into place when
    the block exits without an exception.

    A failed block leaves the old file and no temp file.  The file keeps
    the mode 0600 that mkstemp gives it.  The temp file is written through
    its mkstemp descriptor: reopening it with "wb" would truncate it, and
    some filesystems (ext4) then flush the whole file at close.  Of nested
    blocks the inner file is renamed first, so a check that must pass
    before either rename goes inside the inner block.
    """
    parent = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class GridWriter:
    """GGR1 encoding of a grid whose values arrive in row-major pieces.

    The header goes out with the first piece, whose dtype (real or
    complex) every later piece must share.  finish raises ValueError
    unless exactly num_cells values were written, so a caller can refuse
    a short stream before it renames the file into place.
    """

    def __init__(self, fh, geometry: GridGeometry):
        self._fh = fh
        self.geometry = geometry
        self._dtype_code = None
        self._written = 0

    def write(self, values) -> None:
        arr = np.asarray(values)
        dtype_code = _DTYPE_COMPLEX if np.iscomplexobj(arr) else _DTYPE_REAL
        geom = self.geometry
        if self._dtype_code is None:
            self._fh.write(_HEAD.pack(GRID_MAGIC, GRID_VERSION, geom.rank, dtype_code)
                           + b"".join(map(_AXIS.pack, geom.extents, geom.spacing, geom.origin)))
            self._dtype_code = dtype_code
        elif dtype_code != self._dtype_code:
            raise ValueError("a grid stream must keep one dtype, real or complex")
        if self._written + arr.size > geom.num_cells:
            raise ValueError(f"a grid stream got more than the grid's {geom.num_cells} values")
        payload = np.ascontiguousarray(arr, dtype=_DTYPES[dtype_code][0])
        self._fh.write(memoryview(payload).cast("B"))
        self._written += arr.size

    def finish(self) -> None:
        if self._written != self.geometry.num_cells:
            raise ValueError(f"a grid stream got {self._written} of the grid's "
                             f"{self.geometry.num_cells} values")


def write_grid_to(fh, geometry: GridGeometry, values: np.ndarray) -> None:
    """Encode a real or complex grid as GGR1 bytes into an open binary file."""
    out = GridWriter(fh, geometry)
    out.write(grid_array(values, geometry.extents, None, "value array"))
    out.finish()


def write_grid(path, geometry: GridGeometry, values) -> None:
    """Write a real or complex grid to a GGR1 file, atomically (atomic_file).

    values is the value array, or an iterator over its row-major pieces,
    which is drained into the file without the whole grid being held.  A
    stream of more or fewer than num_cells values, or of two dtypes,
    leaves the old file.
    """
    with atomic_file(path) as fh:
        if not isinstance(values, collections.abc.Iterator):
            write_grid_to(fh, geometry, values)
            return
        out = GridWriter(fh, geometry)
        for piece in values:
            out.write(piece)
            del piece  # not held while the next piece is made
        out.finish()


def read_grid(path) -> tuple[GridGeometry, np.ndarray]:
    """Read a GGR1 file; returns (geometry, values) with values real or complex.

    The payload size of a regular file is checked against the file size
    before the values are allocated, and the payload is read once,
    straight into them.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise GridFormatError("file too short for a grid header")
        magic, version, rank, dtype_code = _HEAD.unpack(head)
        if magic != GRID_MAGIC:
            raise GridFormatError(f"bad magic {magic!r}")
        if version != GRID_VERSION:
            raise GridFormatError(f"unsupported version {version}")
        if dtype_code not in _DTYPES:
            raise GridFormatError(f"unknown dtype code {dtype_code}")
        table = fh.read(rank * _AXIS.size)
        if len(table) < rank * _AXIS.size:
            raise GridFormatError("truncated axis table")
        # (extents, spacings, origins); a rank-0 header fails GridGeometry.
        columns = tuple(zip(*_AXIS.iter_unpack(table))) or ((), (), ())
        try:
            geometry = GridGeometry(*columns)
        except ValueError as exc:
            raise GridFormatError(f"invalid geometry in header: {exc}") from exc
        stored, native = _DTYPES[dtype_code]
        expected = geometry.num_cells * np.dtype(stored).itemsize
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            size = st.st_size - fh.tell()
            if size == expected:
                values = np.fromfile(fh, dtype=stored, count=geometry.num_cells)
                size = values.nbytes
        else:
            # A pipe has no size to check first: it is read to its end and
            # copied, so the payload is held twice.
            raw = fh.read()
            size = len(raw)
            if size == expected:
                values = np.frombuffer(raw, dtype=stored).copy()
    if size != expected:
        raise GridFormatError(f"payload has {size} bytes, expected {expected}")
    return geometry, values.reshape(geometry.extents).astype(native, copy=False)


def read_signal(path) -> SignalGrid:
    geometry, values = read_grid(path)
    return SignalGrid(geometry=geometry, values=np.asarray(values, np.complex128))


def read_phase_grid(path) -> PhaseSpaceGrid:
    geometry, values = read_grid(path)
    return PhaseSpaceGrid(geometry=geometry, values=np.asarray(values, np.complex128))
