"""Uniform grids over a rectangular data space.

The buffer manager divides the data space into grid-like blocks
(Section V-A of the paper); the motion predictor assigns visit
probabilities to grid cells (Section V-B).  :class:`Grid` provides the
shared cell arithmetic: point -> cell, cell -> box, cell neighbourhoods,
and the cells overlapped by a query box.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.box import Box

__all__ = ["Grid", "CellId"]

# A cell is addressed by its integer coordinates along each axis.
CellId = tuple[int, ...]


def _lattice(shape: Sequence[int]) -> np.ndarray:
    """Every index tuple of ``shape`` as a ``(prod(shape), ndim)`` array,
    row-major (the last axis varies fastest)."""
    return np.indices(tuple(shape)).reshape(len(shape), -1).T


class Grid:
    """A uniform grid partition of a 2-D (or n-D) box.

    Parameters
    ----------
    space:
        The data space to partition.
    shape:
        Number of cells along each axis; must match ``space.ndim``.
    """

    def __init__(self, space: Box, shape: Sequence[int]) -> None:
        shape_arr = tuple(int(s) for s in shape)
        if len(shape_arr) != space.ndim:
            raise GeometryError(
                f"grid shape {shape_arr} does not match space dimension {space.ndim}"
            )
        if any(s <= 0 for s in shape_arr):
            raise GeometryError(f"grid shape must be positive, got {shape_arr}")
        if space.is_degenerate():
            raise GeometryError("cannot grid a degenerate space")
        self._space = space
        self._shape = shape_arr
        self._cell_size = space.extents / np.asarray(shape_arr, dtype=float)

    @property
    def space(self) -> Box:
        """The partitioned data space."""
        return self._space

    @property
    def shape(self) -> tuple[int, ...]:
        """Cells per axis."""
        return self._shape

    @property
    def ndim(self) -> int:
        return self._space.ndim

    @property
    def cell_size(self) -> np.ndarray:
        """Side lengths of one cell."""
        return self._cell_size

    @property
    def cell_count(self) -> int:
        """Total number of cells."""
        return int(np.prod(self._shape))

    @property
    def cell_volume(self) -> float:
        """Volume of one cell."""
        return float(np.prod(self._cell_size))

    # -- addressing ----------------------------------------------------------

    def is_valid_cell(self, cell: CellId) -> bool:
        """True when ``cell`` addresses a cell inside the grid."""
        return len(cell) == self.ndim and all(
            0 <= c < s for c, s in zip(cell, self._shape)
        )

    def cell_of_point(self, point: Sequence[float]) -> CellId:
        """The cell containing ``point`` (clamped to the grid edges).

        Clamping lets callers ask for the nearest cell of a point that
        drifted slightly outside the space (predicted positions often
        do); points far outside are still clamped to the border cell.
        """
        p = np.asarray(point, dtype=float)
        if p.shape[0] != self.ndim:
            raise GeometryError(
                f"point dimension {p.shape[0]} does not match grid {self.ndim}"
            )
        rel = (p - self._space.low) / self._cell_size
        idx = np.clip(np.floor(rel).astype(int), 0, np.asarray(self._shape) - 1)
        return tuple(int(i) for i in idx)

    def cell_box(self, cell: CellId) -> Box:
        """The box covered by ``cell``."""
        if not self.is_valid_cell(cell):
            raise GeometryError(f"invalid cell {cell} for grid shape {self._shape}")
        idx = np.asarray(cell, dtype=float)
        low = self._space.low + idx * self._cell_size
        return Box(low, low + self._cell_size)

    def cell_center(self, cell: CellId) -> np.ndarray:
        """Centre point of ``cell``."""
        return self.cell_box(cell).center

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        """Centre points of an ``(n, ndim)`` array of cell ids.

        Row ``i`` is bit-equal to ``cell_center(tuple(cells[i]))``: the
        same ``(low + (low + cell_size)) / 2`` arithmetic, elementwise.
        Validity is the caller's business (:meth:`cells_within` and
        :meth:`cell_ids` only produce valid cells).
        """
        low = self._cell_lows(np.asarray(cells))
        return (low + (low + self._cell_size)) / 2.0

    def _cell_lows(self, cells: np.ndarray) -> np.ndarray:
        if cells.ndim != 2 or cells.shape[1] != self.ndim:
            raise GeometryError(
                f"expected an (n, {self.ndim}) cell array, got shape {cells.shape}"
            )
        return self._space.low + cells.astype(float) * self._cell_size

    def cell_boxes(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(low, high)`` corner stacks of an ``(n, ndim)`` cell array.

        Row ``i`` is bit-equal to ``cell_box(tuple(cells[i]))``'s
        ``low``/``high``, and an invalid cell raises the same error.
        """
        cells = np.asarray(cells)
        low = self._cell_lows(cells)
        if ((cells < 0) | (cells >= np.asarray(self._shape))).any():
            raise GeometryError(
                f"invalid cell in {cells.tolist()} for grid shape {self._shape}"
            )
        return low, low + self._cell_size

    def cells(self) -> Iterator[CellId]:
        """Iterate over every cell id in row-major order."""
        for flat in range(self.cell_count):
            yield self.unflatten(flat)

    def cell_ids(self) -> np.ndarray:
        """Every cell id as a ``(cell_count, ndim)`` array, in :meth:`cells` order."""
        return _lattice(self._shape)

    def flatten(self, cell: CellId) -> int:
        """Row-major linear index of ``cell``."""
        if not self.is_valid_cell(cell):
            raise GeometryError(f"invalid cell {cell} for grid shape {self._shape}")
        flat = 0
        for c, s in zip(cell, self._shape):
            flat = flat * s + c
        return flat

    def unflatten(self, flat: int) -> CellId:
        """Inverse of :meth:`flatten`."""
        if not 0 <= flat < self.cell_count:
            raise GeometryError(f"flat index {flat} out of range")
        coords = []
        for s in reversed(self._shape):
            coords.append(flat % s)
            flat //= s
        return tuple(reversed(coords))

    # -- queries ---------------------------------------------------------------

    def cells_overlapping(self, box: Box) -> list[CellId]:
        """All cells whose area strictly overlaps ``box``.

        Cells merely touched on a boundary of measure zero are excluded,
        matching how the buffer manager counts a block as "needed" only
        when the query frame actually covers part of it.
        """
        if box.ndim != self.ndim:
            raise GeometryError(
                f"box dimension {box.ndim} does not match grid {self.ndim}"
            )
        clipped = box.intersection(self._space)
        if clipped is None:
            return []
        lo_cell = self.cell_of_point(clipped.low)
        hi_cell = self.cell_of_point(clipped.high)
        # Shrink the upper cell when the box ends exactly on a boundary.
        hi_adjusted = []
        for axis, c in enumerate(hi_cell):
            cell_low = self._space.low[axis] + c * self._cell_size[axis]
            if clipped.high[axis] == cell_low and c > lo_cell[axis]:
                c -= 1
            hi_adjusted.append(c)
        ranges = [
            range(lo, hi + 1) for lo, hi in zip(lo_cell, tuple(hi_adjusted))
        ]
        result: list[CellId] = []
        self._product(ranges, (), result)
        return result

    def _product(
        self,
        ranges: list[range],
        prefix: CellId,
        out: list[CellId],
    ) -> None:
        if not ranges:
            out.append(prefix)
            return
        for value in ranges[0]:
            self._product(ranges[1:], prefix + (value,), out)

    def neighbors(self, cell: CellId, *, diagonal: bool = True) -> list[CellId]:
        """Cells adjacent to ``cell`` (8-neighbourhood by default in 2-D)."""
        if not self.is_valid_cell(cell):
            raise GeometryError(f"invalid cell {cell} for grid shape {self._shape}")
        deltas: list[CellId] = []
        self._product([range(-1, 2)] * self.ndim, (), deltas)
        result = []
        for delta in deltas:
            if all(d == 0 for d in delta):
                continue
            if not diagonal and sum(abs(d) for d in delta) != 1:
                continue
            candidate = tuple(c + d for c, d in zip(cell, delta))
            if self.is_valid_cell(candidate):
                result.append(candidate)
        return result

    def _chebyshev_cells(
        self, cell: CellId, radius: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Valid cells within ``radius`` of ``cell`` and their distances.

        Ordered ring by ring from the centre out, lexicographic on the
        offset within a ring.  The order is observable downstream: it
        breaks probability ties in the prefetch ranking and drives the
        alternating on-the-line rule of the direction partition.
        """
        if radius < 0:
            raise GeometryError("radius must be non-negative")
        if len(cell) != self.ndim:
            raise GeometryError(f"invalid cell {cell} for grid shape {self._shape}")
        deltas = _lattice((2 * radius + 1,) * self.ndim) - radius
        dist = np.abs(deltas).max(axis=1)
        order = np.argsort(dist, kind="stable")
        cells = np.asarray(cell) + deltas[order]
        valid = np.all((cells >= 0) & (cells < np.asarray(self._shape)), axis=1)
        return cells[valid], dist[order][valid]

    def cells_within(self, cell: CellId, radius: int) -> np.ndarray:
        """The ``(n, ndim)`` cells at Chebyshev distance ``0..radius`` of ``cell``.

        Equal to concatenating :meth:`ring` for ``0, 1, ..., radius``.
        """
        return self._chebyshev_cells(cell, radius)[0]

    def ring(self, cell: CellId, radius: int) -> list[CellId]:
        """Cells at Chebyshev distance exactly ``radius`` from ``cell``."""
        cells, dist = self._chebyshev_cells(cell, radius)
        return [tuple(c) for c in cells[dist == radius].tolist()]

    def __repr__(self) -> str:
        return f"Grid(shape={self._shape}, space={self._space!r})"
