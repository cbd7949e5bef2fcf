"""A spatially sharded :class:`~repro.server.database.ObjectDatabase`.

:class:`ShardedDatabase` splits a built database into spatial shards
(per a :class:`~repro.shard.mapping.ShardMap` over object footprints).
Each shard owns a slice: its own :class:`ObjectDatabase` over the
member objects' existing stores (no decomposition is re-run, the
:class:`~repro.store.columns.CoefficientStore` rows are shared) and
hence its own packed index, plus a ``row_map`` translating
slice-local store rows back to rows of the *global* concatenated
store.  The sharded database keeps the full object table and the
global store, so every consumer of the :class:`ObjectDatabase`
contract -- payload pricing, base-mesh shipping, block buffering --
keeps working on global row ids unchanged.

Query answering becomes plan / scatter / gather:

* **plan** -- intersect the query's index-space box ``(x, y[, z], w)``
  with each shard's bounds (the union of its rows' support-region x
  value boxes) and keep the intersecting shards.  With a single shard
  the pruning is bypassed so even a miss bills the same root traversal
  the unsharded index would -- exact I/O parity at ``S == 1``.
* **scatter** -- run the sub-query on every planned shard's packed
  index through the in-process
  :class:`~repro.shard.parallel.SerialShardExecutor`, mapping slice
  rows to global rows.
* **gather** -- concatenate in ascending shard order, sum the
  per-shard :class:`~repro.index.stats.IOStats`, and sort the rows
  into ascending packed-uid order -- the server's canonical delivery
  order, which is what makes the scatter-gather response bit-identical
  to the monolithic index's (same row *set*, same canonical order).

A sharded database is immutable: :meth:`add_object` raises, and there
is no global access method (each shard has its own), so
:attr:`access_method` raises too and
:meth:`packed_access_method` reports ``None`` -- the server's
frame-delta planner is instead sharded by the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import IndexError_, ShardError
from repro.geometry.box import Box
from repro.index.access import AccessResult
from repro.index.packed import RowResult, region_corners, subquery_corners
from repro.index.stats import IOStats
from repro.server.database import AnyAccessMethod, ObjectDatabase, StoredObject
from repro.shard.mapping import ShardMap
from repro.shard.parallel import (
    SerialShardExecutor,
    ShardBatchResult,
    ShardCornerTask,
    ShardSlice,
)
from repro.store.uids import sorted_unique
from repro.wavelets.analysis import WaveletDecomposition

__all__ = ["ShardedDatabase", "FlatGather"]


@dataclass(frozen=True)
class FlatGather:
    """A whole scatter batch gathered as flat arrays, not per-query objects.

    Sub-query ``q`` owns ``rows[offsets[q]:offsets[q + 1]]``, already in
    the canonical ascending packed-uid order, and ``qid`` names the
    owning sub-query of every row (ascending, ``offsets`` expanded);
    ``io`` is the ``(Q, 3)`` per-sub-query ``(node_reads, leaf_reads,
    entries_scanned)`` matrix and ``consulted[q]`` the number of shards
    that answered ``q`` (the per-query ``IOStats.queries`` of the
    object path).
    """

    rows: np.ndarray
    qid: np.ndarray
    offsets: np.ndarray
    io: np.ndarray
    consulted: np.ndarray

    @property
    def query_count(self) -> int:
        return int(self.offsets.size - 1)


class ShardedDatabase(ObjectDatabase):
    """Scatter-gather facade over per-shard object databases.

    Build one with :meth:`from_database`; the two-argument constructor
    is for callers that already hold a :class:`ShardMap`.
    """

    def __init__(self, source: ObjectDatabase, shard_map: ShardMap) -> None:
        super().__init__(
            encoding=source.encoding, spatial_dims=source.spatial_dims
        )
        objects = source.objects
        if not objects:
            raise ShardError("cannot shard an empty database")
        if shard_map.object_count != len(objects):
            raise ShardError(
                f"shard map covers {shard_map.object_count} objects, "
                f"database holds {len(objects)}"
            )
        for obj in objects:
            self._objects[obj.object_id] = obj
        # The *global* store: same lazy concatenation (and row order) the
        # source database exposes, so global row ids stay interchangeable.
        self._store = source.store
        self._shard_map = shard_map
        # Global row extent of each object, in insertion order.
        lengths = np.fromiter(
            (len(obj.store) for obj in objects),
            dtype=np.int64,
            count=len(objects),
        )
        starts = np.concatenate([[0], np.cumsum(lengths)])
        slices: list[ShardSlice] = []
        for shard in range(shard_map.shard_count):
            members = shard_map.members(shard)
            slice_db = self._slice_database(
                objects[int(i)] for i in members
            )
            row_map = np.concatenate(
                [
                    np.arange(starts[i], starts[i] + lengths[i], dtype=np.int64)
                    for i in members
                ]
            )
            if row_map.size == 0:
                raise ShardError(f"shard {shard} owns no store rows")
            row_map.setflags(write=False)
            slices.append(ShardSlice(shard=shard, db=slice_db, row_map=row_map))
        self._slices = tuple(slices)
        self._refresh_bounds()
        self._executor = SerialShardExecutor()
        self._executor.bind(self._slices)

    def _refresh_bounds(self) -> None:
        """Per-shard index-space bounds (support MBB x value union).

        What the planning step prunes against, straight off the global
        store's live columns.
        """
        sd = self._spatial_dims
        store = self.store
        low_cols = np.concatenate(
            [store.support_low[:, :sd], store.values[:, None]], axis=1
        )
        high_cols = np.concatenate(
            [store.support_high[:, :sd], store.values[:, None]], axis=1
        )
        self._bounds_low = np.vstack(
            [low_cols[sl.row_map].min(axis=0) for sl in self._slices]
        )
        self._bounds_high = np.vstack(
            [high_cols[sl.row_map].max(axis=0) for sl in self._slices]
        )

    def _slice_database(
        self, objects: "Iterable[StoredObject]"
    ) -> ObjectDatabase:
        """Build one shard's database; the scene variant overrides this."""
        return ObjectDatabase.from_objects(
            objects, encoding=self._encoding, spatial_dims=self._spatial_dims
        )

    def slice_uid_step(self, shard: int) -> tuple[np.ndarray, np.ndarray]:
        """One shard's (old uids, new uids) across the last epoch step.

        Static sharded databases never step, so there is nothing to
        report; the epoch-versioned variant overrides this for the
        coordinator's per-shard planner invalidation.
        """
        raise ShardError(
            "a static sharded database has no epoch steps; build a "
            "ShardedSceneDatabase for dynamic scenes"
        )

    @classmethod
    def from_database(
        cls,
        source: ObjectDatabase,
        shard_count: int,
        *,
        tiling: str = "str",
    ) -> "ShardedDatabase":
        """Shard ``source`` by tiling its object footprints."""
        shard_map = ShardMap.build(
            [obj.footprint for obj in source.objects],
            shard_count,
            tiling=tiling,
        )
        return cls(source, shard_map)

    # -- topology --------------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        return self._shard_map

    @property
    def shard_count(self) -> int:
        return self._shard_map.shard_count

    @property
    def slices(self) -> tuple[ShardSlice, ...]:
        return self._slices

    @property
    def executor(self) -> SerialShardExecutor:
        return self._executor

    def member_ids(self, shard: int) -> np.ndarray:
        """Sorted object ids assigned to ``shard`` by the shard map.

        Membership is a property of the map, not of the current rows:
        for an epoch-versioned sharded database this keeps naming a
        removed object's owning shard, which the coordinator's
        per-shard cache invalidation relies on.
        """
        if not 0 <= shard < self.shard_count:
            raise ShardError(
                f"shard {shard} out of range [0, {self.shard_count})"
            )
        objects = self.objects
        return sorted_unique(
            np.fromiter(
                (
                    objects[int(i)].object_id
                    for i in self._shard_map.members(shard)
                ),
                dtype=np.int64,
            )
        )

    def shard_bounds(self, shard: int) -> Box:
        """Index-space bounds of one shard's rows."""
        if not 0 <= shard < self.shard_count:
            raise ShardError(
                f"shard {shard} out of range [0, {self.shard_count})"
            )
        return Box(self._bounds_low[shard], self._bounds_high[shard])

    # A sharded database holds no resources; ``with`` over one is kept
    # only because the end-to-end benchmark's fleet_flat still uses it.
    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    # -- frozen-contract overrides ---------------------------------------------

    def add_object(
        self, object_id: int, decomposition: WaveletDecomposition
    ) -> None:
        raise ShardError(
            "a sharded database is immutable; re-shard the source database "
            "after mutating it"
        )

    @property
    def access_method(self) -> AnyAccessMethod:
        raise ShardError(
            "a sharded database has per-shard access methods, not a global "
            "one; query through query_region_rows / query_region"
        )

    def packed_access_method(self) -> None:
        """No *global* packed index exists; see the shard coordinator."""
        return None

    # -- plan / scatter / gather ----------------------------------------------

    def lower(
        self, subqueries: Sequence[tuple[Box, float, float]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked index-space corners of ``(region, w_min, w_max)`` queries.

        The ``(Q, spatial_dims + 1)`` stacks :meth:`plan_corners` and
        :meth:`scatter` consume, lowered once per batch by
        :func:`~repro.index.packed.subquery_corners`; its band and
        dimension checks surface as :class:`ShardError` here.
        """
        try:
            return subquery_corners(subqueries, self._spatial_dims)
        except IndexError_ as exc:
            raise ShardError(str(exc)) from exc

    def lower_regions(
        self, low: np.ndarray, high: np.ndarray, w_min: float, w_max: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`lower` for ``(n, ndim)`` region stacks sharing one band."""
        try:
            return region_corners(low, high, w_min, w_max, self._spatial_dims)
        except IndexError_ as exc:
            raise ShardError(str(exc)) from exc

    def plan(self, region: Box, w_min: float, w_max: float) -> np.ndarray:
        """Shard ids whose bounds intersect the query, ascending.

        With one shard the pruning is bypassed: the unsharded index
        always bills at least a root read even for a miss, so the
        single shard must be consulted unconditionally for the
        ``S == 1`` I/O-parity invariant to hold exactly.
        """
        return self.plan_many([(region, w_min, w_max)])[0]

    def plan_many(
        self, subqueries: Sequence[tuple[Box, float, float]]
    ) -> list[np.ndarray]:
        """Plan a batch: per sub-query, ascending intersecting shards.

        One broadcast intersection test covers the whole batch -- the
        planning cost of a scatter is a single ``(Q, S, ndim)`` numpy
        comparison, not ``Q`` box constructions.
        """
        if not subqueries:
            return []
        if self.shard_count == 1:
            # Pruning bypass, see :meth:`plan`.
            return [np.zeros(1, dtype=np.int64) for _ in subqueries]
        qlow, qhigh = self.lower(subqueries)
        hits = self.plan_corners(qlow, qhigh)
        return [np.flatnonzero(row) for row in hits]

    def plan_corners(
        self, qlow: np.ndarray, qhigh: np.ndarray
    ) -> np.ndarray:
        """Boolean ``(Q, S)`` consult matrix over pre-lowered corners.

        The whole-fleet planning primitive: one broadcast intersection
        of every query box against every shard's bounds, no per-query
        Python at all.  With one shard every query consults it
        unconditionally (the :meth:`plan` pruning bypass, kept for
        exact ``S == 1`` I/O parity).
        """
        nq = int(qlow.shape[0])
        if self.shard_count == 1:
            return np.ones((nq, 1), dtype=bool)
        return np.all(
            (self._bounds_low[None, :, :] <= qhigh[:, None, :])
            & (self._bounds_high[None, :, :] >= qlow[:, None, :]),
            axis=2,
        )

    def scatter(
        self, qlow: np.ndarray, qhigh: np.ndarray
    ) -> tuple[list[np.ndarray], list[ShardBatchResult]]:
        """Plan a corner batch and run it: ``(assignments, batches)``.

        The one scatter path: a :meth:`plan_corners` broadcast, then one
        :class:`~repro.shard.parallel.ShardCornerTask` per consulted
        shard, ascending, through the executor.  ``assignments[t]``
        lists the query indices ``batches[t]`` answered, ascending --
        the form :meth:`assemble` and :meth:`assemble_flat` gather.
        """
        hits = self.plan_corners(qlow, qhigh)
        tasks: list[ShardCornerTask] = []
        assignments: list[np.ndarray] = []
        for shard in range(self.shard_count):
            indices = np.flatnonzero(hits[:, shard])
            if indices.size:
                tasks.append(
                    ShardCornerTask(
                        shard=shard, qlow=qlow[indices], qhigh=qhigh[indices]
                    )
                )
                assignments.append(indices)
        return assignments, self._executor.run(tasks)

    def assemble(
        self,
        assignments: Sequence[Sequence[int]],
        batches: Sequence[ShardBatchResult],
        total: int,
    ) -> list[RowResult]:
        """Gather compact shard batches into per-sub-query results.

        ``assignments[t]`` lists the (global) sub-query indices that
        task ``t``'s batch answered, in its sub-query order; tasks must
        be in ascending shard order.  Every sub-query's rows end up in
        canonical ascending packed-uid order, its I/O is the sum over
        the shards consulted, and ``queries`` counts those shards --
        one, matching the unsharded path exactly, when ``S == 1``.
        """
        parts: list[list[np.ndarray]] = [[] for _ in range(total)]
        io = np.zeros((total, 3), dtype=np.int64)
        consulted = np.zeros(total, dtype=np.int64)
        for indices, batch in zip(assignments, batches):
            offsets = batch.offsets()
            for local_q, sub_idx in enumerate(indices):
                group = batch.rows[offsets[local_q] : offsets[local_q + 1]]
                if group.size:
                    parts[sub_idx].append(group)
            if len(indices):
                index_arr = np.asarray(indices, dtype=np.int64)
                io[index_arr] += batch.io
                consulted[index_arr] += 1
        uids = self.store.packed_uids
        out: list[RowResult] = []
        empty = np.empty(0, dtype=np.int64)
        for q in range(total):
            groups = parts[q]
            rows = groups[0] if len(groups) == 1 else (
                np.concatenate(groups) if groups else empty
            )
            if rows.size > 1:
                rows = rows[np.argsort(uids[rows], kind="stable")]
            out.append(
                RowResult(
                    rows=rows,
                    io=IOStats(
                        node_reads=int(io[q, 0]),
                        leaf_reads=int(io[q, 1]),
                        entries_scanned=int(io[q, 2]),
                        queries=int(consulted[q]),
                    ),
                )
            )
        return out

    def assemble_flat(
        self,
        assignments: Sequence[np.ndarray],
        batches: Sequence[ShardBatchResult],
        total: int,
    ) -> FlatGather:
        """Gather a whole scatter batch into flat arrays in one pass.

        The vectorised sibling of :meth:`assemble` for fleet-scale
        batches: instead of building ``total`` :class:`RowResult`
        objects it sorts every gathered row once by ``(sub-query,
        packed uid)`` -- the same canonical per-query ascending-uid
        order, since uids are globally unique -- and returns the flat
        :class:`FlatGather` arrays.  The two sort keys are folded into
        one ``int64``, ``sub-query * n_rows + uid_rank[row]``
        (:attr:`~repro.store.columns.CoefficientStore.uid_rank`), so a
        single in-place ``sort`` replaces a two-key ``lexsort`` and
        both parts read back out of the sorted key.  Row-for-row
        identical to :meth:`assemble`; raises :class:`ShardError` when
        ``total * n_rows`` cannot fit the key.
        """
        store = self.store
        n_rows = len(store)
        if total * n_rows > np.iinfo(np.int64).max:
            raise ShardError(
                f"{total} sub-queries over {n_rows} store rows overflow the "
                f"int64 (sub-query, uid rank) gather key"
            )
        uid_rank = store.uid_rank
        io = np.zeros((total, 3), dtype=np.int64)
        consulted = np.zeros(total, dtype=np.int64)
        per_query = np.zeros(total, dtype=np.int64)
        # One int64 key per gathered row: the sub-query in the high
        # part, the row's rank in ascending-uid order in the low part.
        key = np.empty(sum(batch.rows.size for batch in batches), np.int64)
        filled = 0
        for indices, batch in zip(assignments, batches):
            index_arr = np.asarray(indices, dtype=np.int64)
            if index_arr.size:
                io[index_arr] += batch.io
                consulted[index_arr] += 1
                per_query[index_arr] += batch.counts
            np.add(
                np.repeat(index_arr * n_rows, batch.counts),
                uid_rank[batch.rows],
                out=key[filled : filled + batch.rows.size],
            )
            filled += batch.rows.size
        key.sort()
        qid, rank = np.divmod(key, n_rows)
        offsets = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(per_query, out=offsets[1:])
        return FlatGather(
            rows=store.uid_order[rank],
            qid=qid,
            offsets=offsets,
            io=io,
            consulted=consulted,
        )

    def gather_rows(self, parts: Sequence[RowResult]) -> RowResult:
        """Merge per-shard partials into one canonical result.

        ``parts`` must arrive in ascending shard order (the plan
        order); rows are re-sorted into ascending packed-uid order and
        the I/O counters are the per-shard sums.
        """
        if not parts:
            return RowResult(rows=np.empty(0, dtype=np.int64), io=IOStats())
        io = IOStats()
        for part in parts:
            io = io.merged(part.io)
        rows = np.concatenate([part.rows for part in parts])
        if rows.size > 1:
            rows = rows[
                np.argsort(self.store.packed_uids[rows], kind="stable")
            ]
        return RowResult(rows=rows, io=io)

    def query_region_rows(
        self, region: Box, w_min: float, w_max: float
    ) -> RowResult:
        """One window query, scattered to the intersecting shards."""
        qlow, qhigh = self.lower([(region, w_min, w_max)])
        assignments, batches = self.scatter(qlow, qhigh)
        return self.assemble(assignments, batches, 1)[0]

    def query_region(
        self, region: Box, w_min: float, w_max: float
    ) -> AccessResult:
        """The scattered query materialised as per-record views."""
        result = self.query_region_rows(region, w_min, w_max)
        records = list(self.store.records(result.rows))
        return AccessResult(
            records=records,
            io=result.io,
            retrieved_with_duplicates=len(records),
        )
