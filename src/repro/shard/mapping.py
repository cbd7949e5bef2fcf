"""Spatial shard assignment over object footprints.

A :class:`ShardMap` partitions the objects of a cityscape into spatial
shards by tiling the plane of their footprint (support-region MBB)
centres.  Two tilings are offered:

* ``"str"`` -- Sort-Tile-Recursive, the same packing discipline the
  bulk loader uses for R-tree leaves: sort centres by x, cut into
  near-equal vertical slabs, sort each slab by y and cut it into
  tiles.  Shards come out balanced in *object count*, which balances
  per-shard index size and scatter work.
* ``"grid"`` -- a regular ``gx x gy`` grid over the footprint bounding
  box, assigning each object to the cell holding its centre.  Shards
  are balanced in *area* instead, which mirrors how a cityscape would
  be partitioned operationally (one shard per city district).

Empty tiles are compressed away, so every shard of the resulting map
owns at least one object and ``shard_count`` reports the effective
count (at most the requested count, never more than the object count).
The assignment is a pure function of the footprints and the requested
tiling -- no RNG, no iteration-order sensitivity -- so two builds over
the same database always agree, which the scatter-gather parity
invariants rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ShardError
from repro.geometry.box import Box
from repro.store.uids import sorted_unique

__all__ = ["ShardMap", "TILINGS"]

#: The selectable tiling disciplines.
TILINGS = ("str", "grid")


def _near_square_grid(shard_count: int) -> tuple[int, int]:
    """Factor ``shard_count`` into the most-square ``(gx, gy)`` grid."""
    gx = int(np.floor(np.sqrt(shard_count)))
    while shard_count % gx:
        gx -= 1
    return shard_count // gx, gx


@dataclass(frozen=True)
class ShardMap:
    """An object -> shard assignment plus per-shard membership.

    Attributes
    ----------
    shard_of:
        ``(n_objects,)`` int64 shard id per object *position* (the
        database's insertion order, which also fixes global store row
        order).
    tiling:
        The discipline that produced the assignment.
    requested:
        The shard count asked for; the effective :attr:`shard_count`
        can be lower when tiles came out empty.
    """

    shard_of: np.ndarray
    tiling: str
    requested: int

    def __post_init__(self) -> None:
        shard_of = np.ascontiguousarray(self.shard_of, dtype=np.int64)
        shard_of.setflags(write=False)
        object.__setattr__(self, "shard_of", shard_of)
        if shard_of.ndim != 1:
            raise ShardError(
                f"shard assignment must be 1-D, got shape {shard_of.shape}"
            )
        if shard_of.size and (
            int(shard_of.min()) < 0
            or sorted_unique(shard_of).size != int(shard_of.max()) + 1
        ):
            raise ShardError("shard ids must be dense 0..S-1")

    @property
    def object_count(self) -> int:
        return int(self.shard_of.size)

    @property
    def shard_count(self) -> int:
        """Effective number of (non-empty) shards."""
        return int(self.shard_of.max()) + 1 if self.shard_of.size else 0

    def skew_stats(
        self, rows_of_object: np.ndarray | None = None
    ) -> dict[str, object]:
        """Balance diagnostics: per-shard object (and row) populations.

        Returns a plain dict (JSON-ready, for ``bench_shard``) with the
        per-shard object counts and their max/mean imbalance ratio; when
        ``rows_of_object`` gives the store-row count of each object
        position, the same statistics are reported in rows -- the
        quantity that actually prices scatter work.
        """
        if self.shard_of.size == 0:
            raise ShardError("skew_stats of an empty shard map")
        objects = np.bincount(self.shard_of, minlength=self.shard_count)
        stats: dict[str, object] = {
            "shard_count": self.shard_count,
            "objects_per_shard": objects.astype(int).tolist(),
            "object_imbalance": float(objects.max() / objects.mean()),
        }
        if rows_of_object is not None:
            rows_of_object = np.asarray(rows_of_object, dtype=np.int64)
            if rows_of_object.shape != self.shard_of.shape:
                raise ShardError(
                    "rows_of_object must align with shard_of: "
                    f"{rows_of_object.shape} vs {self.shard_of.shape}"
                )
            rows = np.bincount(
                self.shard_of,
                weights=rows_of_object,
                minlength=self.shard_count,
            ).astype(np.int64)
            stats["rows_per_shard"] = rows.astype(int).tolist()
            stats["row_imbalance"] = float(rows.max() / rows.mean())
        return stats

    def members(self, shard: int) -> np.ndarray:
        """Object positions owned by ``shard``, in insertion order."""
        if not 0 <= shard < self.shard_count:
            raise ShardError(
                f"shard {shard} out of range [0, {self.shard_count})"
            )
        return np.flatnonzero(self.shard_of == shard)

    @classmethod
    def build(
        cls,
        footprints: Sequence[Box],
        shard_count: int,
        *,
        tiling: str = "str",
    ) -> "ShardMap":
        """Tile ``footprints`` (2-D boxes, insertion order) into shards."""
        if shard_count < 1:
            raise ShardError(f"shard_count must be >= 1, got {shard_count}")
        if tiling not in TILINGS:
            raise ShardError(f"unknown tiling {tiling!r} (expected {TILINGS})")
        if not footprints:
            raise ShardError("cannot tile an empty object set")
        centres = np.empty((len(footprints), 2))
        for i, footprint in enumerate(footprints):
            if footprint.ndim != 2:
                raise ShardError(
                    f"footprints must be 2-D boxes, got {footprint.ndim}-D"
                )
            centres[i] = (footprint.low + footprint.high) / 2.0
        requested = shard_count
        shard_count = min(shard_count, len(footprints))
        if tiling == "str":
            shard_of = cls._str_tiling(centres, shard_count)
        else:
            shard_of = cls._grid_tiling(centres, shard_count)
        return cls(
            shard_of=cls._compress(shard_of),
            tiling=tiling,
            requested=requested,
        )

    @staticmethod
    def _str_tiling(centres: np.ndarray, shard_count: int) -> np.ndarray:
        """Sort-tile-recursive: x slabs, then y tiles inside each slab."""
        shard_of = np.empty(centres.shape[0], dtype=np.int64)
        slabs = int(np.ceil(np.sqrt(shard_count)))
        by_x = np.argsort(centres[:, 0], kind="stable")
        base, extra = divmod(shard_count, slabs)
        next_shard = 0
        for i, slab in enumerate(np.array_split(by_x, slabs)):
            tiles = base + (1 if i < extra else 0)
            by_y = slab[np.argsort(centres[slab, 1], kind="stable")]
            for tile in np.array_split(by_y, max(tiles, 1)):
                shard_of[tile] = next_shard
                next_shard += 1
        return shard_of

    @staticmethod
    def _grid_tiling(centres: np.ndarray, shard_count: int) -> np.ndarray:
        """Regular grid over the centre bounding box, row-major cells."""
        gx, gy = _near_square_grid(shard_count)
        low = centres.min(axis=0)
        high = centres.max(axis=0)
        span = np.maximum(high - low, 1e-12)
        cx = np.minimum((centres[:, 0] - low[0]) / span[0] * gx, gx - 1)
        cy = np.minimum((centres[:, 1] - low[1]) / span[1] * gy, gy - 1)
        return (cx.astype(np.int64) * gy + cy.astype(np.int64)).astype(np.int64)

    @staticmethod
    def _compress(shard_of: np.ndarray) -> np.ndarray:
        """Renumber shard ids densely, dropping empty tiles."""
        _, dense = np.unique(shard_of, return_inverse=True)
        return dense.astype(np.int64)
