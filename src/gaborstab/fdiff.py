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

from .grids import DomainPartition, GridGeometry, active_mask


class MaskCells:
    """The cells of a mask (every cell without one), packed in row-major order.

    A DomainPartition as mask stands for its active cells.  ``flat_index``
    holds their flat indices and ``index`` their multi-indices, one array
    per axis.  ``pack`` and ``gradient_norm`` return 1-d arrays in the same
    cell order, equal bit for bit to ``values[mask]`` and
    ``gradient_norm(gradient(values, geometry, mask))[mask]``.  The
    multi-indices and the neighbor tables are built on first use and kept,
    so every field differentiated through one instance shares them.
    """

    def __init__(self, geometry: GridGeometry,
                 mask: np.ndarray | DomainPartition | None = None):
        mask = active_mask(mask, geometry.extents)
        self.geometry = geometry
        # A copy: the neighbor tables are built from it later.
        self.mask = np.ones(geometry.extents, dtype=bool) if mask is None else mask.copy()
        self.flat_index = np.flatnonzero(self.mask)

    @cached_property
    def index(self) -> tuple[np.ndarray, ...]:
        return np.unravel_index(self.flat_index, self.geometry.extents)

    def _flat(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != self.geometry.extents:
            raise ValueError("value array shape does not match grid extents")
        return values.ravel()

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
            stride = math.prod(self.geometry.extents[axis + 1:])
            has_p = (self.index[axis] < n - 1) & flat.take(cells + stride, mode="clip")
            has_m = (self.index[axis] > 0) & flat.take(cells - stride, mode="clip")
            out.append((stride, has_p, has_m))
        return tuple(out)

    def derivatives(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-axis first derivatives at the cells."""
        flat, cells = self._flat(values), self.flat_index
        v = flat.take(cells)
        dtype = flat.dtype if np.iscomplexobj(flat) else float
        grads = []
        for (stride, has_p, has_m), h in zip(self._neighbors, self.geometry.spacing):
            vp = flat.take(cells + stride, mode="clip")
            vm = flat.take(cells - stride, mode="clip")
            central = (vp - vm) / (2.0 * h)
            forward = (vp - v) / h
            backward = (v - vm) / h
            g = np.where(has_p & has_m, central,
                         np.where(has_p, forward, np.where(has_m, backward, 0)))
            grads.append(g.astype(dtype, copy=False))
        return grads

    def gradient_norm(self, values: np.ndarray) -> np.ndarray:
        """|grad v| at the cells."""
        return gradient_norm(self.derivatives(values))


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


def gradient_norm(grads: list[np.ndarray]) -> np.ndarray:
    """Pointwise Euclidean length of a (possibly complex) gradient stack."""
    acc = np.zeros(grads[0].shape, dtype=float)
    for g in grads:
        acc = acc + np.abs(g) ** 2
    return np.sqrt(acc)


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
