"""Finite differences on uniform grids with mask-aware stencils.

Central differences everywhere both neighbors exist (inside the grid and
inside the mask); one-sided differences where only one neighbor exists;
zero where a cell has no neighbor along an axis.

The stencil runs on the mask cells only, packed in row-major order: the
neighbors of a cell along axis a sit at flat-index offsets of +-stride(a).
``MaskCells`` evaluates it there, and ``gradient`` scatters the same
per-axis derivatives into full grids, so both give identical values at
every mask cell.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .grids import DomainPartition, GridGeometry, active_mask, grid_array

# The packed stencil walks the cells in blocks of this many, so its per-axis
# temporaries stay in cache instead of being fresh arrays over all cells.
STENCIL_BLOCK = 16384


class MaskCells:
    """The cells of a mask (every cell without one), packed in row-major order.

    A DomainPartition as mask stands for its active cells.  ``flat_index``
    holds their flat indices; ``axis_index(a)`` and ``index`` give their
    multi-indices, computed on each call.  ``pack`` and ``gradient_norm``
    return 1-d arrays in the same cell order, equal bit for bit to
    ``values[mask]`` and ``gradient_norm(gradient(values, geometry, mask))[mask]``.
    The neighbor flags are built on first use and kept, so every field
    differentiated through one instance shares them; no other per-cell
    array is kept.
    """

    def __init__(self, geometry: GridGeometry,
                 mask: np.ndarray | DomainPartition | None = None):
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

    @property
    def index(self) -> tuple[np.ndarray, ...]:
        """The cells' multi-indices, one array per axis, as ``np.nonzero`` gives them."""
        return tuple(self.axis_index(a) for a in range(self.geometry.rank))

    def _flat(self, values: np.ndarray) -> np.ndarray:
        return grid_array(values, self.geometry.extents, None, "value array").ravel()

    def pack(self, values: np.ndarray) -> np.ndarray:
        """The values at the cells."""
        return self._flat(values).take(self.flat_index)

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        # Per axis: the flat stride and whether the +1 / -1 neighbor is a
        # mask cell.  Clipped offsets stay in range; the axis bounds mask
        # them out.
        flat, cells = self.mask.ravel(), self.flat_index
        out = []
        for axis, n in enumerate(self.geometry.extents):
            stride, index = self._stride(axis), self.axis_index(axis)
            has_p = (index < n - 1) & flat.take(cells + stride, mode="clip")
            has_m = (index > 0) & flat.take(cells - stride, mode="clip")
            out.append((stride, has_p, has_m))
        return tuple(out)

    def _derivatives(self, at, dtype, block: slice = slice(None)):
        """Per-axis first derivatives at the cells of one block, one axis at a time.

        at(flat_indices) gives the field at those flat indices, clipped into
        the grid.  The central difference is taken at every cell; the
        one-sided one, or 0, then replaces it at the cells that miss a
        neighbor.
        """
        cells = self.flat_index[block]
        for (stride, has_p, has_m), h in zip(self._neighbors, self.geometry.spacing):
            has_p, has_m = has_p[block], has_m[block]
            g = (at(cells + stride) - at(cells - stride)) / (2.0 * h)
            edge = np.flatnonzero(~(has_p & has_m))
            if edge.size:
                e = cells[edge]
                v, vp, vm = at(e), at(e + stride), at(e - stride)
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
        flat = self._flat(values)
        return (lambda i: flat.take(i, mode="clip")), _derivative_dtype(flat.dtype)

    def derivatives(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-axis first derivatives at the cells."""
        return list(self._derivatives(*self._field(values)))

    def gradient_norm(self, values: np.ndarray) -> np.ndarray:
        """|grad v| at the cells."""
        return self._gradient_norm(*self._field(values))

    def difference_gradient_norm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """|grad (a - b)| at the cells, without the full-grid a - b.

        The stencil gathers a and b at each neighbor and subtracts there:
        the same float as (a - b) at that cell.
        """
        fa, fb = self._flat(a), self._flat(b)
        return self._gradient_norm(
            lambda i: fa.take(i, mode="clip") - fb.take(i, mode="clip"),
            _derivative_dtype(np.result_type(fa, fb)))


def _derivative_dtype(dtype: np.dtype) -> np.dtype:
    """Derivatives of a complex field keep its dtype; real fields give float64."""
    return dtype if np.issubdtype(dtype, np.complexfloating) else np.dtype(float)


def gradient(values: np.ndarray, geometry: GridGeometry,
             mask: np.ndarray | None = None) -> list[np.ndarray]:
    """Per-axis first derivatives; central inside, one-sided at mask/grid edges.

    Cells outside the mask get 0.
    """
    cells = MaskCells(geometry, mask)
    grads = []
    for g in cells.derivatives(values):
        full = np.zeros(geometry.extents, dtype=g.dtype)
        np.put(full, cells.flat_index, g)
        grads.append(full)
    return grads


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


def wirtinger_components(grads: list[np.ndarray],
                         conjugate: bool = False) -> list[np.ndarray]:
    """Wirtinger derivatives per complex axis pair, from the gradient of a phase-space field.

    grads is the per-axis gradient that ``gradient`` returns.  Axis pair a
    covers grid axes (2a, 2a+1) = (x_a, y_a); the holomorphic derivative is
    (d/dx - i d/dy)/2, the conjugate one (d/dx + i d/dy)/2.
    """
    if len(grads) % 2 != 0:
        raise ValueError("wirtinger derivatives need a phase-space (even-rank) grid")
    sign = 1j if conjugate else -1j
    return [0.5 * (grads[2 * a] + sign * grads[2 * a + 1]) for a in range(len(grads) // 2)]
