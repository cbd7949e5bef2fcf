"""Shard tasks, their runner, and the executor a sharded database uses.

A :class:`ShardCornerTask` bundles every sub-query bound for one shard,
already lowered to index-space corner stacks; the executor runs a batch
of tasks and returns one compact :class:`ShardBatchResult` per task --
three flat arrays (concatenated rows already mapped into the *global*
store's row space, per-sub-query counts, per-sub-query I/O) rather than
per-sub-query Python objects.  :func:`run_task` is the one place a task
becomes a result; :class:`SerialShardExecutor` calls it in process, one
shard after another, on each slice's live packed index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ShardError
from repro.index.packed import PackedIndex, corners_query_batch

if TYPE_CHECKING:
    from repro.index.dynamic import DynamicAccessMethod
    from repro.index.packed import PackedAccessMethod
    from repro.server.database import ObjectDatabase

__all__ = [
    "ShardSlice",
    "ShardCornerTask",
    "ShardBatchResult",
    "run_task",
    "SerialShardExecutor",
]


@dataclass(frozen=True)
class ShardSlice:
    """One shard's worth of a sharded database.

    ``db`` holds the member objects (sharing their stores with the
    source database) and builds the shard-local packed index on first
    use; ``row_map`` translates slice-local store rows to global rows.
    """

    shard: int
    db: "ObjectDatabase"
    row_map: np.ndarray

    @property
    def row_count(self) -> int:
        return int(self.row_map.size)

    def packed_method(self) -> "PackedAccessMethod | DynamicAccessMethod":
        """The slice's packed access method, compiled on first use."""
        method = self.db.packed_access_method()
        if method is None:
            raise ShardError(
                f"shard {self.shard} slice has no packed access method"
            )
        return method


@dataclass(frozen=True)
class ShardCornerTask:
    """All sub-queries scattered to one shard, as index-space corners.

    ``qlow``/``qhigh`` are the ``(Q, spatial_dims + 1)`` matrices
    :meth:`~repro.index.packed.PackedIndex.query_slots_many` consumes
    directly (spatial corners augmented with the value band): rows of
    the stacks :func:`~repro.index.packed.subquery_corners` lowers
    boxed sub-queries to, or of a fleet tick's corner columns.  The
    lowering happens once per batch, not once per consulted shard.
    """

    shard: int
    qlow: np.ndarray
    qhigh: np.ndarray


@dataclass(frozen=True)
class ShardBatchResult:
    """One shard's compact answer to a :class:`ShardCornerTask`.

    ``rows`` holds *global* store rows for every sub-query of the
    task, concatenated in sub-query order; sub-query ``q`` owns the
    slice of length ``counts[q]``.  ``io`` is the ``(Q, 3)``
    per-sub-query ``(node_reads, leaf_reads, entries_scanned)``
    matrix.
    """

    shard: int
    rows: np.ndarray
    counts: np.ndarray
    io: np.ndarray

    def offsets(self) -> np.ndarray:
        """Row offsets: sub-query ``q`` owns ``rows[o[q]:o[q+1]]``."""
        return np.concatenate([[0], np.cumsum(self.counts)])


def run_task(
    packed: PackedIndex, row_map: np.ndarray, task: ShardCornerTask
) -> ShardBatchResult:
    """Answer one task on a shard's index, mapping rows to global ids."""
    rows, counts, io = corners_query_batch(packed, task.qlow, task.qhigh)
    return ShardBatchResult(
        shard=task.shard, rows=row_map[rows], counts=counts, io=io
    )


class SerialShardExecutor:
    """Runs each task in process on its shard's bound slice."""

    def __init__(self) -> None:
        self._slices: tuple[ShardSlice, ...] | None = None

    def bind(self, slices: Sequence[ShardSlice]) -> None:
        bound = tuple(slices)
        for shard_slice in bound:
            shard_slice.packed_method()  # compile now, not on first query
        self._slices = bound

    def run(self, tasks: Sequence[ShardCornerTask]) -> list[ShardBatchResult]:
        slices = self._slices
        if slices is None:
            raise ShardError("executor is not bound to a sharded database")
        results: list[ShardBatchResult] = []
        for task in tasks:
            if not 0 <= task.shard < len(slices):
                raise ShardError(
                    f"task targets shard {task.shard}, only {len(slices)} "
                    "bound"
                )
            shard_slice = slices[task.shard]
            results.append(
                run_task(
                    shard_slice.packed_method().packed,
                    shard_slice.row_map,
                    task,
                )
            )
        return results
