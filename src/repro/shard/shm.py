"""Zero-copy shared-memory data plane: the pooled shard executor.

A worker pool has two boundaries to cross -- index arrays out to the
workers, result arrays back -- and pickling either would dominate a
scatter.  This module puts both on named
:mod:`multiprocessing.shared_memory` segments:

* :class:`SharedArena` packs read-only numpy arrays -- every shard's
  compiled :class:`~repro.index.packed.PackedIndex` level arrays,
  leaf rows and ``row_map`` -- into **one** named segment.  A picklable
  :class:`ArenaManifest` (segment name + per-array dtype/shape/offset)
  lets any process re-materialise zero-copy views with
  :func:`numpy.frombuffer`; nothing but the manifest is ever pickled.
* :class:`ResultRing` gives each worker a private named segment to
  write result payloads into.  A worker answers a task with a tiny
  :class:`ResultDescriptor` -- ``(slot, offset, row/query counts)`` --
  and the parent gathers ``rows``/``counts``/``io`` as views into the
  ring.  Array payloads cross the boundary with **zero pickling**; a
  task whose payload exceeds the ring capacity degrades to the pickled
  path (counted, never wrong).
* :class:`SharedMemoryShardExecutor` is a persistent **spawn** pool
  over both: workers attach the arena and claim a ring once, at
  startup, via the pool initializer -- nothing is inherited, so the
  executor behaves the same whatever the platform's default start
  method.

Ownership is strictly parental: the parent creates every segment and
is the only process that ever calls ``unlink`` -- deterministically,
in :meth:`SharedMemoryShardExecutor.close` (idempotent, run from
``__exit__`` and on rebind).  Workers attach and immediately
unregister from their ``resource_tracker`` (3.11 tracks attachments
too, which would otherwise unlink parent-owned segments and warn at
worker exit).  A worker crash breaks the pool -- ``run`` raises
:class:`~repro.errors.ShardError` -- but the segments are parent-owned
and ``close`` still reclaims every one of them.

Results gathered over the ring are views: they stay valid until the
next :meth:`~SharedMemoryShardExecutor.run` call (which may recycle
ring space) or :meth:`~SharedMemoryShardExecutor.close`.  The
scatter-gather callers consume each batch before issuing the next, so
the window is never violated in practice; copy on extraction if a
result must outlive the executor.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import ShardError
from repro.index.packed import PackedIndex, PackedLevel
from repro.shard.parallel import (
    ShardBatchResult,
    ShardCornerTask,
    ShardSlice,
    run_task,
)

__all__ = [
    "ArenaManifest",
    "SharedArena",
    "ResultDescriptor",
    "ResultRing",
    "GatherStats",
    "SharedMemoryShardExecutor",
    "DEFAULT_RING_BYTES",
]

#: Per-worker result-ring capacity.  Large enough that a full-city
#: gather fits comfortably; overflow degrades to pickling, not failure.
DEFAULT_RING_BYTES = 64 * 1024 * 1024

#: Segment names are ``repro_<pid>_<counter>``; the counter de-collides
#: segments created by one process, the pid across processes.
_SEGMENT_COUNTER = itertools.count()

_ALIGN = 64


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a uniquely named segment (retrying name collisions)."""
    while True:
        name = f"repro_{os.getpid()}_{next(_SEGMENT_COUNTER)}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(size, 1)
            )
        except FileExistsError:  # pragma: no cover - stale leak from a
            continue  # crashed unrelated process; try the next name


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting tracker ownership.

    Python 3.11 registers *attachments* with the resource tracker too
    (bpo-38119): a worker exiting would unlink -- or double-unregister
    and stderr-spam -- segments the parent still owns.  Only the
    creating side should ever be tracked, so registration is silenced
    for the duration of the attach.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


def _close_segment(segment: shared_memory.SharedMemory) -> None:
    """Close a segment even while zero-copy views still pin its pages.

    ``SharedMemory.close`` refuses to unmap while a caller still holds
    ``np.frombuffer`` views into the buffer.  That is fine -- the pages
    are reclaimed when the last view dies -- but the file descriptor
    must not outlive the executor, so release it by hand, detach the
    mapping from the segment object (so its ``__del__`` cannot trip
    over the still-exported buffer), and leave the unmap to the views'
    lifetime.
    """
    try:
        segment.close()
    except BufferError:
        fd = getattr(segment, "_fd", -1)
        if isinstance(fd, int) and fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            segment._fd = -1  # type: ignore[attr-defined]
        segment._mmap = None  # type: ignore[attr-defined]
        segment._buf = None  # type: ignore[attr-defined]


@dataclass(frozen=True)
class _ArrayExtent:
    """Where one published array lives inside the arena segment."""

    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ArenaManifest:
    """Everything a process needs to map the arena: name + extents.

    The manifest is the *only* thing pickled to workers; the arrays
    themselves travel as the named segment behind it.
    """

    segment: str
    extents: tuple[tuple[str, _ArrayExtent], ...]

    @property
    def total_bytes(self) -> int:
        last = max(
            (e.offset + int(np.prod(e.shape, dtype=np.int64)) * np.dtype(e.dtype).itemsize
             for _, e in self.extents),
            default=0,
        )
        return last


class SharedArena:
    """Named read-only numpy arrays packed into one shm segment.

    Build with :meth:`publish` (the owning side) or :meth:`attach` (a
    worker).  Owners ``unlink`` on :meth:`close`; attachers only close
    their mapping.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        manifest: ArenaManifest,
        *,
        owner: bool,
    ) -> None:
        self._segment = segment
        self._manifest = manifest
        self._owner = owner
        self._closed = False

    @classmethod
    def publish(cls, arrays: Mapping[str, np.ndarray]) -> "SharedArena":
        """Copy ``arrays`` into a fresh segment, 64-byte aligned."""
        extents: list[tuple[str, _ArrayExtent]] = []
        offset = 0
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = -(-offset // _ALIGN) * _ALIGN
            extents.append(
                (key, _ArrayExtent(str(array.dtype), array.shape, offset))
            )
            offset += array.nbytes
        segment = _create_segment(offset)
        arena = cls(
            segment,
            ArenaManifest(segment=segment.name, extents=tuple(extents)),
            owner=True,
        )
        for key, array in arrays.items():
            view = arena._view(key, writable=True)
            view[...] = np.ascontiguousarray(array)
        return arena

    @classmethod
    def attach(cls, manifest: ArenaManifest) -> "SharedArena":
        return cls(_attach_segment(manifest.segment), manifest, owner=False)

    @property
    def manifest(self) -> ArenaManifest:
        return self._manifest

    @property
    def name(self) -> str:
        return self._manifest.segment

    def keys(self) -> tuple[str, ...]:
        return tuple(key for key, _ in self._manifest.extents)

    def _view(self, key: str, *, writable: bool = False) -> np.ndarray:
        if self._closed:
            raise ShardError("arena is closed")
        for name, extent in self._manifest.extents:
            if name == key:
                array = np.frombuffer(
                    self._segment.buf,
                    dtype=np.dtype(extent.dtype),
                    count=int(np.prod(extent.shape, dtype=np.int64)),
                    offset=extent.offset,
                ).reshape(extent.shape)
                if not writable:
                    array.setflags(write=False)
                return array
        raise ShardError(f"arena has no array {key!r}")

    def array(self, key: str) -> np.ndarray:
        """A zero-copy read-only view of one published array."""
        return self._view(key)

    def close(self) -> None:
        """Close the mapping; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        _close_segment(self._segment)
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass(frozen=True)
class ResultDescriptor:
    """A gathered result's address: everything but the arrays.

    ``slot`` names the worker ring holding the payload; the parent
    reconstructs ``rows`` (``n_rows`` int64), ``counts`` and ``io``
    (``n_queries`` and ``(n_queries, 3)`` int64) as consecutive views
    starting at ``offset``.
    """

    shard: int
    slot: int
    offset: int
    n_rows: int
    n_queries: int


class ResultRing:
    """One worker's result segment: bump-allocated per gather batch.

    The writer resets its cursor whenever a new ``batch_id`` arrives;
    within a batch, consecutive tasks append.  The parent reads the
    descriptors of batch ``b`` strictly before issuing batch ``b + 1``
    (the executor's ``run`` is synchronous), so recycled space is never
    read after being overwritten.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, *, owner: bool
    ) -> None:
        self._segment = segment
        self._owner = owner
        self._closed = False
        self._cursor = 0
        self._batch_id = -1

    @classmethod
    def create(cls, ring_bytes: int) -> "ResultRing":
        return cls(_create_segment(ring_bytes), owner=True)

    @classmethod
    def attach(cls, name: str) -> "ResultRing":
        return cls(_attach_segment(name), owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def capacity(self) -> int:
        return self._segment.size

    def write(
        self,
        batch_id: int,
        shard: int,
        slot: int,
        rows: np.ndarray,
        counts: np.ndarray,
        io: np.ndarray,
    ) -> ResultDescriptor | None:
        """Append one result; ``None`` when the batch outgrew the ring."""
        if self._batch_id != batch_id:
            self._batch_id = batch_id
            self._cursor = 0
        n_rows = int(rows.size)
        n_queries = int(counts.size)
        needed = 8 * (n_rows + n_queries + 3 * n_queries)
        offset = self._cursor
        if offset + needed > self.capacity:
            return None
        buf = self._segment.buf
        out_rows = np.frombuffer(buf, np.int64, count=n_rows, offset=offset)
        out_rows[...] = rows
        out_counts = np.frombuffer(
            buf, np.int64, count=n_queries, offset=offset + 8 * n_rows
        )
        out_counts[...] = counts
        out_io = np.frombuffer(
            buf,
            np.int64,
            count=3 * n_queries,
            offset=offset + 8 * (n_rows + n_queries),
        )
        out_io[...] = io.reshape(-1)
        self._cursor = offset + needed
        return ResultDescriptor(
            shard=shard,
            slot=slot,
            offset=offset,
            n_rows=n_rows,
            n_queries=n_queries,
        )

    def read(self, descriptor: ResultDescriptor) -> ShardBatchResult:
        """Materialise a descriptor as zero-copy read-only views."""
        buf = self._segment.buf
        rows = np.frombuffer(
            buf, np.int64, count=descriptor.n_rows, offset=descriptor.offset
        )
        counts = np.frombuffer(
            buf,
            np.int64,
            count=descriptor.n_queries,
            offset=descriptor.offset + 8 * descriptor.n_rows,
        )
        io = np.frombuffer(
            buf,
            np.int64,
            count=3 * descriptor.n_queries,
            offset=descriptor.offset + 8 * (descriptor.n_rows + descriptor.n_queries),
        ).reshape(descriptor.n_queries, 3)
        for array in (rows, counts, io):
            array.setflags(write=False)
        return ShardBatchResult(
            shard=descriptor.shard, rows=rows, counts=counts, io=io
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _close_segment(self._segment)
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


@dataclass
class GatherStats:
    """Byte accounting of descriptor-path vs pickled-path gathers.

    ``shm_payload_bytes`` counts array payload shipped as ring views --
    exactly the bytes a pickling pool would have serialised --
    ``pickled_payload_bytes`` counts payloads that overflowed a ring
    and fell back to pickling, and ``gathers`` counts ``run`` batches.
    """

    gathers: int = 0
    tasks: int = 0
    shm_payload_bytes: int = 0
    pickled_payload_bytes: int = 0
    fallback_tasks: int = 0

    @property
    def pickle_bytes_avoided(self) -> int:
        return self.shm_payload_bytes

    @property
    def pickle_bytes_avoided_per_gather(self) -> float:
        if not self.gathers:
            return 0.0
        return self.shm_payload_bytes / self.gathers

    def merged_into(self, other: "GatherStats") -> None:
        other.gathers += self.gathers
        other.tasks += self.tasks
        other.shm_payload_bytes += self.shm_payload_bytes
        other.pickled_payload_bytes += self.pickled_payload_bytes
        other.fallback_tasks += self.fallback_tasks


# -- worker side ---------------------------------------------------------------


@dataclass(frozen=True)
class _ShardIndexSpec:
    """Arena keys reassembling one shard's packed index + row map."""

    shard: int
    ndim: int
    levels: tuple[tuple[str, str, str], ...]  # (low, high, node_start) keys
    rows_key: str
    row_map_key: str


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a spawned worker needs, picklable."""

    manifest: ArenaManifest
    specs: tuple[_ShardIndexSpec, ...]
    ring_names: tuple[str, ...]


def _attach_index(
    arena: SharedArena, spec: _ShardIndexSpec
) -> tuple[PackedIndex, np.ndarray]:
    """A shard's ``(packed index, row_map)`` rebuilt from arena views."""
    levels = [
        PackedLevel(
            low=arena.array(low_key),
            high=arena.array(high_key),
            node_start=arena.array(start_key),
        )
        for low_key, high_key, start_key in spec.levels
    ]
    packed = PackedIndex(
        levels, arena.array(spec.rows_key), (), ndim=spec.ndim
    )
    return packed, arena.array(spec.row_map_key)


@dataclass
class _WorkerState:
    arena: SharedArena
    indexes: dict[int, tuple[PackedIndex, np.ndarray]]
    ring: ResultRing | None
    slot: int


_WORKER: _WorkerState | None = None


def _shm_worker_init(config: _WorkerConfig, slot_counter: Any) -> None:
    """Pool initializer: attach the arena and claim a result ring.

    Runs once per spawned worker.  Slots are claimed through a shared
    counter; a worker that cannot get a ring (more claims than rings
    after crashes repopulated the pool) still answers correctly over
    the pickled fallback path.
    """
    global _WORKER
    arena = SharedArena.attach(config.manifest)
    with slot_counter.get_lock():
        slot = int(slot_counter.value)
        slot_counter.value = slot + 1
    ring: ResultRing | None = None
    if 0 <= slot < len(config.ring_names):
        ring = ResultRing.attach(config.ring_names[slot])
    indexes = {
        spec.shard: _attach_index(arena, spec) for spec in config.specs
    }
    _WORKER = _WorkerState(arena=arena, indexes=indexes, ring=ring, slot=slot)


@dataclass(frozen=True)
class _TaskEnvelope:
    batch_id: int
    task: ShardCornerTask


@dataclass(frozen=True)
class _TaskAnswer:
    """Worker -> parent: a descriptor, or the pickled fallback result."""

    descriptor: ResultDescriptor | None
    fallback: ShardBatchResult | None
    payload_bytes: int


def _shm_run_task(envelope: _TaskEnvelope) -> _TaskAnswer:
    state = _WORKER
    if state is None:  # pragma: no cover - initializer always ran
        raise ShardError("shm worker was not initialised")
    task = envelope.task
    index = state.indexes.get(task.shard)
    if index is None:
        raise ShardError(f"shm worker has no index for shard {task.shard}")
    result = run_task(*index, task)
    payload_bytes = int(
        result.rows.nbytes + result.counts.nbytes + result.io.nbytes
    )
    if state.ring is not None:
        descriptor = state.ring.write(
            envelope.batch_id,
            task.shard,
            state.slot,
            result.rows,
            result.counts,
            result.io,
        )
        if descriptor is not None:
            return _TaskAnswer(
                descriptor=descriptor, fallback=None, payload_bytes=payload_bytes
            )
    return _TaskAnswer(
        descriptor=None, fallback=result, payload_bytes=payload_bytes
    )


# -- the executor --------------------------------------------------------------


class SharedMemoryShardExecutor:
    """Persistent spawn pool gathering results over shared memory.

    Parameters
    ----------
    processes:
        Pool size; defaults to ``min(shard_count, cpu_count)`` at bind
        time.
    ring_bytes:
        Per-worker result-ring capacity.  A task whose payload exceeds
        the remaining ring space falls back to pickling (counted in
        :attr:`stats`); results are never lost.
    """

    def __init__(
        self,
        processes: int | None = None,
        *,
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        if processes is not None and processes < 1:
            raise ShardError(f"processes must be >= 1, got {processes}")
        if ring_bytes < 1024:
            raise ShardError(f"ring_bytes must be >= 1024, got {ring_bytes}")
        self._processes = processes
        self._ring_bytes = ring_bytes
        self._pool: ProcessPoolExecutor | None = None
        self._arena: SharedArena | None = None
        self._rings: tuple[ResultRing, ...] = ()
        self._batch_id = 0
        #: Cumulative gather accounting since the last bind.
        self.stats = GatherStats()
        #: Accounting of the most recent ``run`` batch only.
        self.last_gather = GatherStats()

    @staticmethod
    def available() -> bool:
        """True when a spawn pool can run here (it always can)."""
        import multiprocessing

        return "spawn" in multiprocessing.get_all_start_methods()

    @property
    def workers(self) -> int:
        """Configured pool size (0 before bind / after close)."""
        if self._pool is None:
            return 0
        return self._pool._max_workers

    @property
    def arena(self) -> SharedArena | None:
        """The live arena (None before bind / after close)."""
        return self._arena

    @property
    def ring_names(self) -> tuple[str, ...]:
        return tuple(ring.name for ring in self._rings)

    # -- lifecycle ----------------------------------------------------------

    def bind(self, slices: Sequence[ShardSlice]) -> None:
        """Publish every shard's arrays and start the worker pool."""
        import multiprocessing

        self.close()
        bound = tuple(slices)
        if not bound:
            raise ShardError("cannot bind to zero shard slices")
        arrays: dict[str, np.ndarray] = {}
        specs: list[_ShardIndexSpec] = []
        for shard_slice in bound:
            method = shard_slice.packed_method()
            shard = shard_slice.shard
            level_keys: list[tuple[str, str, str]] = []
            for depth, level in enumerate(method.packed.levels):
                keys = (
                    f"s{shard}/L{depth}/low",
                    f"s{shard}/L{depth}/high",
                    f"s{shard}/L{depth}/start",
                )
                arrays[keys[0]] = level.low
                arrays[keys[1]] = level.high
                arrays[keys[2]] = level.node_start
                level_keys.append(keys)
            arrays[f"s{shard}/rows"] = method.packed.rows
            arrays[f"s{shard}/row_map"] = shard_slice.row_map
            ndim = method.packed.ndim
            specs.append(
                _ShardIndexSpec(
                    shard=shard,
                    ndim=method.spatial_dims + 1 if ndim is None else ndim,
                    levels=tuple(level_keys),
                    rows_key=f"s{shard}/rows",
                    row_map_key=f"s{shard}/row_map",
                )
            )
        self._arena = SharedArena.publish(arrays)
        size = self._processes or min(
            max(len(bound), 1), os.cpu_count() or 1
        )
        self._rings = tuple(
            ResultRing.create(self._ring_bytes) for _ in range(size)
        )
        context = multiprocessing.get_context("spawn")
        slot_counter = context.Value("q", 0)
        config = _WorkerConfig(
            manifest=self._arena.manifest,
            specs=tuple(specs),
            ring_names=self.ring_names,
        )
        self._pool = ProcessPoolExecutor(
            max_workers=size,
            mp_context=context,
            initializer=_shm_worker_init,
            initargs=(config, slot_counter),
        )
        self.stats = GatherStats()
        self.last_gather = GatherStats()

    def close(self) -> None:
        """Stop the pool and unlink every owned segment (idempotent).

        Deterministic reclamation is unconditional: the pool may be
        healthy, broken by a worker crash, or mid-gather when the
        parent raises -- the segments are parent-owned, so they are
        unlinked here regardless of worker state.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        for ring in self._rings:
            ring.close()
        self._rings = ()
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "SharedMemoryShardExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- execution ----------------------------------------------------------

    def run(
        self, tasks: Sequence[ShardCornerTask]
    ) -> list[ShardBatchResult]:
        """Scatter tasks; gather rows/counts/io as ring views.

        The returned results are valid until the next ``run`` on this
        executor (ring space is recycled per batch).
        """
        if self._pool is None:
            raise ShardError("executor is not bound to a sharded database")
        gather = GatherStats(gathers=1, tasks=len(tasks))
        if not tasks:
            self.last_gather = gather
            gather.merged_into(self.stats)
            return []
        self._batch_id += 1
        envelopes = [
            _TaskEnvelope(batch_id=self._batch_id, task=task) for task in tasks
        ]
        try:
            answers = list(self._pool.map(_shm_run_task, envelopes))
        except BrokenProcessPool as exc:
            raise ShardError(
                "shm worker pool broke mid-gather (worker crashed); close() "
                "still reclaims all shared-memory segments"
            ) from exc
        results: list[ShardBatchResult] = []
        for answer in answers:
            if answer.descriptor is not None:
                ring = self._rings[answer.descriptor.slot]
                results.append(ring.read(answer.descriptor))
                gather.shm_payload_bytes += answer.payload_bytes
            else:
                assert answer.fallback is not None
                results.append(answer.fallback)
                gather.fallback_tasks += 1
                gather.pickled_payload_bytes += answer.payload_bytes
        self.last_gather = gather
        gather.merged_into(self.stats)
        return results
