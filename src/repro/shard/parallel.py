"""The shard executor contract, its task runner, and the in-process executor.

A :class:`ShardCornerTask` bundles every sub-query bound for one shard,
already lowered to index-space corner stacks; an executor runs a batch
of tasks and returns one compact :class:`ShardBatchResult` per task --
three flat arrays (concatenated rows already mapped into the *global*
store's row space, per-sub-query counts, per-sub-query I/O) rather than
per-sub-query Python objects.  :func:`run_task` is the one place a task
becomes a result: :class:`SerialShardExecutor` calls it in process and
the workers of :class:`~repro.shard.shm.SharedMemoryShardExecutor` call
it on their shared-memory views of the same arrays, so the executors
produce identical results (same rows, same per-sub-query I/O
accounting) by construction -- the pool only changes *where* the
:func:`~repro.index.packed.corners_query_batch` walk runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

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
    "ShardExecutor",
    "SerialShardExecutor",
    "measure_batch_overhead",
    "OVERHEAD_BUDGET_S",
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
    lowering happens once, in the parent, so a task is two small arrays
    on any executor's wire.
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


class ShardExecutor(Protocol):
    """The executor contract :class:`ShardedDatabase` scatters through."""

    def bind(self, slices: Sequence[ShardSlice]) -> None:
        """Attach to a database's slices (compiling their indexes)."""

    def run(self, tasks: Sequence[ShardCornerTask]) -> list[ShardBatchResult]:
        """Execute tasks, one compact batch result per task."""

    def close(self) -> None:
        """Release any resources (idempotent)."""


class SerialShardExecutor:
    """In-process executor: the reference the pool must match exactly."""

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

    def close(self) -> None:
        self._slices = None


#: Per-batch pool overhead (seconds) above which "auto" executor
#: selection keeps the serial engine: a pool that costs more than this
#: per scatter round-trip only pays off on batches larger than the
#: coordinator typically sees, and loses outright on one shard or one
#: core.
OVERHEAD_BUDGET_S = 2e-3


def measure_batch_overhead(
    executor: ShardExecutor, *, shard: int = 0, repeats: int = 3
) -> float:
    """Measured per-batch round-trip overhead of a bound executor.

    Scatters a zero-query corner task to one shard ``repeats`` times
    and returns the *fastest* wall-clock round trip -- pure dispatch,
    pickling, and gather cost with no index work behind it, which is
    exactly the fixed tax a pooled executor adds to every scatter.
    The minimum (not the mean) is the right estimator: scheduling
    noise only ever inflates a round trip.
    """
    if repeats < 1:
        raise ShardError(f"repeats must be >= 1, got {repeats}")
    empty = np.empty((0, 0), dtype=np.float64)
    probe = ShardCornerTask(shard=shard, qlow=empty, qhigh=empty)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()  # reprolint: disable=RL001
        executor.run([probe])
        best = min(best, time.perf_counter() - start)  # reprolint: disable=RL001
    return best
