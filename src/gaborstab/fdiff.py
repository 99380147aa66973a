"""Finite differences on uniform grids with mask-aware stencils.

Central differences everywhere both neighbors exist (inside the grid and
inside the mask); one-sided differences where only one neighbor exists;
zero where a cell has no neighbor along an axis.

The stencil runs on the mask cells only, packed in row-major order: the
neighbors of a cell along axis a sit at flat-index offsets of +-stride(a),
and a full-grid map from flat index to packed position finds their values
in a packed field.  ``MaskCells`` evaluates it there; ``gradient`` is its
every-cell case, shaped as full grids.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .grids import GridGeometry, active_mask, grid_array

# The packed stencil walks the cells in blocks of this many, so its per-axis
# temporaries stay in cache instead of being fresh arrays over all cells.
STENCIL_BLOCK = 16384


class MaskCells:
    """The cells of a mask (every cell without one), packed in row-major order.

    ``flat_index`` holds their flat indices; ``axis_index(a)`` gives their
    indices along axis a, computed on each call.  ``pack`` gathers a
    full-grid array at the cells and equals ``values[mask]`` bit for bit.
    ``derivatives``, ``gradient_norm`` and ``difference_gradient_norm``
    take fields either on the full grid, which they pack first, or already
    packed (one value per cell, in cell order), and return 1-d arrays in
    cell order.
    The neighbor flags and, for a mask, the full-grid position map are
    built on first use and kept, so every field differentiated through one
    instance shares them; no other per-cell array is kept.
    """

    def __init__(self, geometry: GridGeometry, mask: np.ndarray | None = None):
        mask = active_mask(mask, geometry.extents)
        self.geometry = geometry
        # A copy: the neighbor flags are built from it later.
        self.mask = np.ones(geometry.extents, dtype=bool) if mask is None else mask.copy()
        self.flat_index = np.flatnonzero(self.mask)

    def _stride(self, axis: int) -> int:
        return math.prod(self.geometry.extents[axis + 1:])

    def axis_index(self, axis: int) -> np.ndarray:
        """The cells' indices along one axis."""
        return self.flat_index // self._stride(axis) % self.geometry.extents[axis]

    def pack(self, values: np.ndarray) -> np.ndarray:
        """The values of a full-grid array at the cells."""
        flat = grid_array(values, self.geometry.extents, None, "value array").ravel()
        return flat.take(self.flat_index)

    def packed(self, values: np.ndarray) -> np.ndarray:
        """A field at the cells: a full-grid array is packed (on every cell, a
        flat view), a 1-d array of one value per cell is taken as packed."""
        arr = np.asarray(values)
        extents = tuple(self.geometry.extents)
        if arr.shape == extents:
            return arr.ravel() if arr.size == self.flat_index.size else self.pack(arr)
        if arr.shape != self.flat_index.shape:
            raise ValueError(f"value array shape {arr.shape} matches neither the grid "
                             f"extents {extents} nor the {self.flat_index.size} cells")
        return arr

    @cached_property
    def _position(self) -> np.ndarray | None:
        # Packed position of every grid cell (0 off the mask, read only where
        # a neighbor flag discards it); None when the cells are every cell,
        # whose positions are their flat indices.
        n = self.flat_index.size
        if n == self.mask.size:
            return None
        position = np.zeros(self.mask.size, np.int32)
        position[self.flat_index] = np.arange(n, dtype=np.int32)
        return position

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        # Per axis: the flat stride and whether the +1 / -1 neighbor is a
        # mask cell, from the mask shifted by one cell along the axis.
        out = []
        for axis, n in enumerate(self.geometry.extents):
            lo = (slice(None),) * axis + (slice(0, n - 1),)
            hi = (slice(None),) * axis + (slice(1, n),)
            plus, minus = np.zeros_like(self.mask), np.zeros_like(self.mask)
            plus[lo], minus[hi] = self.mask[hi], self.mask[lo]
            out.append((self._stride(axis), plus[self.mask], minus[self.mask]))
        return tuple(out)

    def _locate(self, flat: np.ndarray) -> np.ndarray:
        """Packed positions of flat indices; the field reads clip them into range."""
        return flat if self._position is None else self._position.take(flat, mode="clip")

    def _derivatives(self, at, dtype, block: slice = slice(None)):
        """Per-axis first derivatives at the cells of one block, one axis at a time.

        at(positions) gives the field at those packed positions, clipped
        into range.  Each neighbor's positions are gathered once, and at
        reads every field of a difference there.  The central difference
        is taken at every cell; the one-sided one, or 0, then replaces it
        at the cells that miss a neighbor.
        """
        cells = self.flat_index[block]
        first = block.start or 0
        for (stride, has_p, has_m), h in zip(self._neighbors, self.geometry.spacing):
            has_p, has_m = has_p[block], has_m[block]
            plus, minus = self._locate(cells + stride), self._locate(cells - stride)
            g = (at(plus) - at(minus)) / (2.0 * h)
            edge = np.flatnonzero(~(has_p & has_m))
            if edge.size:
                v, vp, vm = at(edge + first), at(plus[edge]), at(minus[edge])
                g[edge] = np.where(has_p[edge], (vp - v) / h,
                                   np.where(has_m[edge], (v - vm) / h, 0))
            yield g.astype(dtype, copy=False)

    def _gradient_norm(self, at, dtype) -> np.ndarray:
        """|grad| at the cells, STENCIL_BLOCK cells at a time into one packed array.

        Every block runs the same per-cell operations in the same order, so
        the values equal those of one block over all cells, bit for bit;
        the per-axis temporaries stay cache-sized.
        """
        n = self.flat_index.size
        out = np.empty(n)
        for lo in range(0, n, STENCIL_BLOCK):
            block = slice(lo, lo + STENCIL_BLOCK)
            gradient_norm(self._derivatives(at, dtype, block), out=out[block])
        return out

    def _field(self, values: np.ndarray):
        packed = self.packed(values)
        return (lambda i: packed.take(i, mode="clip")), _derivative_dtype(packed.dtype)

    def derivatives(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-axis first derivatives at the cells."""
        return list(self._derivatives(*self._field(values)))

    def gradient_norm(self, values: np.ndarray) -> np.ndarray:
        """|grad v| at the cells."""
        return self._gradient_norm(*self._field(values))

    def difference_gradient_norm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """|grad (a - b)| at the cells, without the difference field a - b.

        The stencil reads a and b at each neighbor and subtracts there:
        the same float as (a - b) at that cell.
        """
        pa, pb = self.packed(a), self.packed(b)
        return self._gradient_norm(
            lambda i: pa.take(i, mode="clip") - pb.take(i, mode="clip"),
            _derivative_dtype(np.result_type(pa, pb)))


def _derivative_dtype(dtype: np.dtype) -> np.dtype:
    """Derivatives of a complex field keep its dtype; real fields give float64."""
    return dtype if np.issubdtype(dtype, np.complexfloating) else np.dtype(float)


def gradient(values: np.ndarray, geometry: GridGeometry) -> list[np.ndarray]:
    """Per-axis first derivatives over the grid; central inside, one-sided at its edges."""
    return [g.reshape(geometry.extents) for g in MaskCells(geometry).derivatives(values)]


def gradient_norm(grads, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise Euclidean length of a (possibly complex) gradient stack.

    grads is any iterable of per-axis derivatives; a generator is summed
    one axis at a time, so only one derivative need exist at once.  The
    square root goes into out when it is given.
    """
    acc = None
    for g in grads:
        term = np.abs(g) ** 2
        if acc is None:
            acc = np.zeros(term.shape) + term
        else:
            acc += term
    return np.sqrt(acc, out=out)


def interior_mask(geometry: GridGeometry) -> np.ndarray:
    """Cells with both neighbors available along every axis."""
    mask = np.ones(geometry.extents, dtype=bool)
    for axis in range(geometry.rank):
        idx_lo = [slice(None)] * geometry.rank
        idx_hi = [slice(None)] * geometry.rank
        idx_lo[axis] = 0
        idx_hi[axis] = geometry.extents[axis] - 1
        mask[tuple(idx_lo)] = False
        mask[tuple(idx_hi)] = False
    return mask


def wirtinger_components(grads: list[np.ndarray]) -> list[np.ndarray]:
    """Holomorphic Wirtinger derivatives per complex axis pair of a phase-space field.

    grads is the per-axis gradient that ``gradient`` returns.  Axis pair a
    covers grid axes (2a, 2a+1) = (x_a, y_a); its derivative is
    (d/dx - i d/dy)/2.
    """
    if len(grads) % 2 != 0:
        raise ValueError("wirtinger derivatives need a phase-space (even-rank) grid")
    return [0.5 * (grads[2 * a] - 1j * grads[2 * a + 1]) for a in range(len(grads) // 2)]
