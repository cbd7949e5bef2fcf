"""Partitioning grid blocks into movement directions (Section V-B).

The plane around the client is split into ``k`` equal sectors; every
candidate block is assigned to the sector owning the larger share of
it, approximated by the bearing of the block centre.  Blocks whose
centre lies exactly on a partition line are "equally owned" -- the
paper resolves those by alternating assignment between the two
adjacent sectors, which this module reproduces deterministically.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import BufferError_
from repro.geometry.grid import Grid

__all__ = ["partition_cells", "direction_probabilities"]

_TIE_EPS = 1e-12


def partition_cells(
    grid: Grid,
    cells: np.ndarray,
    center: np.ndarray,
    k: int,
    *,
    offset: float | None = None,
) -> np.ndarray:
    """Assign each row of the ``(n, ndim)`` ``cells`` to one of ``k`` sectors.

    Returns the ``(n,)`` sector index of every cell.  Sector ``i`` spans
    angles ``[offset + i*2pi/k, offset + (i+1)*2pi/k)`` around
    ``center``.  The default offset of ``-pi/k`` centres sector 0 on the
    +x axis, so with ``k = 4`` the partition lines run along the
    diagonals exactly as in the paper's Figure 4(b).  Cells whose centre
    bearing falls exactly on a sector boundary are alternated between
    the two adjacent sectors in the order given (the paper's
    tie-breaking rule): the first such cell goes to the lower sector,
    the next to the upper, and so on.  The cell containing ``center``
    itself (bearing undefined) goes to sector 0.
    """
    if k < 1:
        raise BufferError_(f"need k >= 1 directions, got {k}")
    if offset is None:
        offset = -math.pi / k
    delta = grid.cell_centers(cells) - np.asarray(center, dtype=float)
    angle = (np.arctan2(delta[:, 1], delta[:, 0]) - offset) % (2.0 * math.pi)
    frac = angle / (2.0 * math.pi / k)
    sectors = np.minimum(frac.astype(int), k - 1)
    at_center = ~delta.any(axis=1)
    sectors[at_center] = 0
    # Exactly on a partition line: alternate the two owners.
    boundary = np.round(frac)
    on_line = (np.abs(frac - boundary) < _TIE_EPS) & ~at_center
    upper = boundary[on_line].astype(int) % k
    to_upper = np.arange(upper.shape[0]) % 2 == 1
    sectors[on_line] = np.where(to_upper, upper, (upper - 1) % k)
    return sectors


def direction_probabilities(
    sectors: np.ndarray, probs: np.ndarray, k: int
) -> list[float]:
    """Per-direction visit probability: sum of member cells, normalised.

    ``sectors`` is :func:`partition_cells`' assignment of the cells
    whose probabilities are ``probs``.  Directions whose cells carry
    zero total mass get probability 0; if every direction is empty the
    distribution is uniform (the client has no information yet).
    """
    if k < 1:
        raise BufferError_(f"need k >= 1 directions, got {k}")
    # bincount accumulates each bin in input order, like a running sum.
    sums = np.bincount(sectors, weights=probs, minlength=k).tolist()
    total = sum(sums)
    if total <= 0.0:
        return [1.0 / k] * k
    return [s / total for s in sums]
