"""The scatter-gather query coordinator.

:class:`ShardCoordinator` is a :class:`~repro.server.server.Server`
whose fetch stage runs against a :class:`ShardedDatabase`.  The gather
stage -- half-open band filter, no-reship filter, first-occurrence uid
merge, base-mesh shipping -- is inherited untouched, so responses are
bit-identical to an unsharded server over the same objects (both paths
deliver each sub-query in the canonical ascending packed-uid order).

What the coordinator adds over a plain ``Server(sharded_db)``:

* :meth:`execute_many` plans *every* sub-query of *every* request,
  groups them by shard, and scatters **one batched task per shard**
  (:meth:`~repro.shard.database.ShardedDatabase.scatter`).  Each shard
  then answers its whole batch in a single shared frontier walk
  (:func:`~repro.index.packed.corners_query_batch`).  Batching is
  what makes scattering pay: the per-level numpy overhead is amortised
  over the batch instead of paid per sub-query.
* Frame-delta planning becomes shard-aware: one
  :class:`~repro.server.planner.FrontierPlanner` per shard, keyed off
  the shard's own packed index, with per-client memos per shard.
  ``reset_client`` forgets the client in every shard's planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.fleet import FleetTick
from repro.errors import ShardError
from repro.geometry.box import Box
from repro.index.packed import RowResult
from repro.net.messages import (
    LATEST_EPOCH,
    RetrieveBatchResponse,
    RetrieveRequest,
)
from repro.server.planner import FrontierPlanner
from repro.server.server import DEFAULT_MAX_CLIENTS, Server
from repro.shard.database import ShardedDatabase
from repro.store.columns import CoefficientStore
from repro.store.scene import FootprintDelta
from repro.store.uids import sorted_unique

__all__ = ["ShardCoordinator", "FleetShipping", "FleetTickResult"]


class FleetShipping:
    """Vectorised shipped-bases state for whole-fleet ticks.

    The server's per-client shipped-base sets are an LRU table of
    Python sets -- correct, but 100k dictionary touches per tick would
    dominate an otherwise fully vectorised fleet path.  This is the
    same state as one boolean ``(clients, objects)`` matrix: cell
    ``[c, o]`` says client ``c`` has object ``o``'s base mesh, and a
    whole tick's worth of first-sightings flips in one fancy-indexed
    assignment.  Unlike the server table it never evicts, so it matches
    the per-request path exactly whenever the fleet fits the server's
    ``max_clients`` (the parity tests pin this).
    """

    def __init__(
        self,
        client_count: int,
        object_ids: np.ndarray,
        base_bytes: np.ndarray,
    ) -> None:
        if client_count < 1:
            raise ShardError(
                f"shipping table needs >= 1 client, got {client_count}"
            )
        self._object_ids = np.asarray(object_ids, dtype=np.int64)
        if self._object_ids.size == 0 or bool(
            (np.diff(self._object_ids) <= 0).any()
        ):
            raise ShardError(
                "shipping table needs strictly ascending unique object ids"
            )
        self.base_bytes = np.asarray(base_bytes, dtype=np.int64)
        if self.base_bytes.shape != self._object_ids.shape:
            raise ShardError("one base-mesh byte size per object required")
        self.shipped = np.zeros(
            (client_count, self._object_ids.size), dtype=bool
        )

    @property
    def client_count(self) -> int:
        return int(self.shipped.shape[0])

    @property
    def object_count(self) -> int:
        return int(self._object_ids.size)

    def object_index(self, object_ids: np.ndarray) -> np.ndarray:
        """Dense column indices of (known) object ids."""
        idx = np.searchsorted(self._object_ids, object_ids)
        if bool((idx >= self._object_ids.size).any()) or not np.array_equal(
            self._object_ids[idx], object_ids
        ):
            raise ShardError("shipping table asked about unknown object ids")
        return idx


@dataclass(frozen=True)
class FleetTickResult:
    """One whole-fleet tick's responses, kept columnar end to end.

    Client ``i`` of the tick owns ``rows[offsets[i]:offsets[i + 1]]``
    (global store rows in the canonical ascending packed-uid order --
    the exact row sequence its
    :class:`~repro.net.messages.RetrieveBatchResponse` batch would
    carry), shipped ``payload_bytes[i]`` (coefficient payload plus
    first-shipped base-mesh connectivity, matching
    ``RetrieveBatchResponse.payload_bytes``), billed
    ``io[i] = (node_reads, leaf_reads, entries_scanned)`` over
    ``consulted[i]`` shards, and received ``new_base_counts[i]`` base
    meshes it had not seen before.
    """

    rows: np.ndarray
    offsets: np.ndarray
    io: np.ndarray
    consulted: np.ndarray
    payload_bytes: np.ndarray
    new_base_counts: np.ndarray

    @property
    def client_count(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def total_rows(self) -> int:
        return int(self.rows.size)

    @property
    def total_payload_bytes(self) -> int:
        return int(self.payload_bytes.sum())


class ShardCoordinator(Server):
    """Server front end scattering fetches over a sharded database."""

    def __init__(
        self,
        database: ShardedDatabase,
        *,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        plan_deltas: bool = False,
    ) -> None:
        if not isinstance(database, ShardedDatabase):
            raise ShardError(
                "ShardCoordinator requires a ShardedDatabase; wrap a plain "
                "database with ShardedDatabase.from_database first"
            )
        super().__init__(
            database, max_clients=max_clients, plan_deltas=plan_deltas
        )
        self._shard_planners: dict[int, FrontierPlanner] = {}

    @property
    def sharded(self) -> ShardedDatabase:
        db = self._db
        assert isinstance(db, ShardedDatabase)
        return db

    # -- shard-aware frame-delta planning --------------------------------------

    def _shard_planner(self, shard: int) -> FrontierPlanner:
        planner = self._shard_planners.get(shard)
        if planner is None:
            planner = FrontierPlanner(
                self.sharded.slices[shard].packed_method(),
                max_clients=self.max_clients,
            )
            self._shard_planners[shard] = planner
        return planner

    @property
    def shard_planners(self) -> dict[int, FrontierPlanner]:
        """Live per-shard planners (built lazily; counters for tests)."""
        return self._shard_planners

    def _client_evicted(self, client_id: int) -> None:
        """Resets *and* LRU evictions drop the shard-level memos too."""
        super()._client_evicted(client_id)
        for planner in self._shard_planners.values():
            planner.forget(client_id)

    def _on_epoch(
        self,
        footprint: FootprintDelta,
        old_store: CoefficientStore | None,
        new_store: CoefficientStore,
    ) -> None:
        """Epoch invalidation runs per shard, on the shard's row space.

        Each shard planner sees only the footprint restricted to its
        member objects and re-bases surviving memos against the shard's
        own slice stores -- memos in shards the delta never touched
        survive verbatim.
        """
        super()._on_epoch(footprint, old_store, new_store)
        db = self.sharded
        for shard, planner in self._shard_planners.items():
            planner.apply_epoch(
                footprint.restricted(db.member_ids(shard)),
                *db.slice_uid_step(shard),
            )

    def _region_rows(
        self,
        client_id: int,
        region: Box,
        w_min: float,
        w_max: float,
        *,
        epoch: int | None = None,
    ) -> RowResult:
        if epoch is not None and epoch != self._db.current_epoch:
            # Pinned past epochs bypass both the scatter and the shard
            # planners: the epoch-capable sharded database answers them
            # from its retained global views.
            return super()._region_rows(
                client_id, region, w_min, w_max, epoch=epoch
            )
        if not self._plan_deltas:
            # The sharded database itself scatters; canonicalisation in
            # _canonical is a no-op on its already-sorted gather.
            return super()._region_rows(client_id, region, w_min, w_max)
        db = self.sharded
        parts: list[RowResult] = []
        for shard in db.plan(region, w_min, w_max):
            shard = int(shard)
            result = self._shard_planner(shard).query_rows(
                client_id, region, w_min, w_max
            )
            parts.append(
                RowResult(
                    rows=db.slices[shard].row_map[result.rows], io=result.io
                )
            )
        return self._canonical(db.gather_rows(parts))

    def _fetch_blocks(
        self, client_id: int, low: np.ndarray, high: np.ndarray, w_min: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One scatter for the whole block list (serial under planning)."""
        if self._plan_deltas:
            return super()._fetch_blocks(client_id, low, high, w_min)
        db = self.sharded
        qlow, qhigh = db.lower_regions(low, high, w_min, 1.0)
        gather = db.assemble_flat(*db.scatter(qlow, qhigh), len(low))
        return gather.rows, gather.qid, gather.io[:, 0]

    # -- batched scatter-gather ------------------------------------------------

    def execute_many(
        self, requests: Iterable[RetrieveRequest]
    ) -> list[RetrieveBatchResponse]:
        """Answer a request batch with one scattered task per shard.

        Falls back to the serial per-request loop under frame-delta
        planning (memos are per-client warm state, not batchable).
        Responses come back in request order and match a serial
        :meth:`execute_batch` loop bit for bit.
        """
        requests = list(requests)
        current = self._db.current_epoch
        pinned = any(
            request.epoch not in (LATEST_EPOCH, current)
            for request in requests
        )
        if self._plan_deltas or pinned or len(requests) == 0:
            # Frame-delta memos are per-client warm state and pinned
            # epochs answer from retained views, neither batchable.
            return super().execute_many(requests)
        db = self.sharded
        # Flatten every (request, region) sub-query, then plan and
        # scatter the whole batch at once.
        flat: list[tuple[Box, float, float]] = []
        bounds: list[int] = [0]
        for request in requests:
            for region_req in request.regions:
                flat.append(
                    (region_req.region, region_req.w_min, region_req.w_max)
                )
            bounds.append(len(flat))
        qlow, qhigh = db.lower(flat)
        assignments, batches = db.scatter(qlow, qhigh)
        # Gather per sub-query (tasks come back in ascending shard
        # order), then run the response stage in request order so
        # state mutation matches the serial loop exactly.
        fetched = db.assemble(assignments, batches, len(flat))
        return [
            self.gather_batch(
                request, fetched[bounds[req_idx] : bounds[req_idx + 1]]
            )
            for req_idx, request in enumerate(requests)
        ]

    # -- whole-fleet batched planning ------------------------------------------

    def fleet_shipping(self, client_count: int) -> FleetShipping:
        """A fresh shipped-bases table over this database's objects."""
        object_ids = np.sort(
            np.fromiter(
                (obj.object_id for obj in self._db.objects),
                dtype=np.int64,
                count=self._db.object_count,
            )
        )
        base_bytes = np.fromiter(
            (
                max(self._base_connectivity_bytes(int(oid)), 1)
                for oid in object_ids
            ),
            dtype=np.int64,
            count=object_ids.size,
        )
        return FleetShipping(client_count, object_ids, base_bytes)

    def execute_fleet_tick(
        self, tick: FleetTick, shipping: FleetShipping
    ) -> FleetTickResult:
        """Answer an entire flat-drive tick as one scatter-gather.

        The fleet-scale sibling of :meth:`execute_many`: the tick's
        window columns are already corner stacks, so one
        :meth:`~repro.shard.database.ShardedDatabase.scatter` plans and
        runs every client's query at once, and the response stage (payload
        pricing, first-shipment base-mesh accounting) runs as numpy
        reductions over the flat gather.  Per client, the rows, their
        order, the I/O counters and the payload bytes are identical to
        an :meth:`execute_many` pass over :meth:`FleetTick.to_requests`
        -- with base shipments tracked in ``shipping`` (build one via
        :meth:`fleet_shipping`) instead of the server's LRU table.

        Not available under frame-delta planning (per-client memos are
        not batchable); ticks always run at the current epoch.
        """
        if self._plan_deltas:
            raise ShardError(
                "execute_fleet_tick needs cold planning; frame-delta memos "
                "are per-client warm state"
            )
        db = self.sharded
        count = tick.count
        if count == 0:
            empty = np.empty(0, dtype=np.int64)
            return FleetTickResult(
                rows=empty,
                offsets=np.zeros(1, dtype=np.int64),
                io=np.zeros((0, 3), dtype=np.int64),
                consulted=empty,
                payload_bytes=empty,
                new_base_counts=empty,
            )
        if bool((tick.client_ids < 0).any()) or bool(
            (tick.client_ids >= shipping.client_count).any()
        ):
            raise ShardError(
                f"tick client ids must fall in [0, {shipping.client_count}) "
                "to index the shipping table"
            )
        sd = db.spatial_dims
        if tick.low.shape[1] != sd:
            raise ShardError(
                f"tick windows are {tick.low.shape[1]}-D, database expects "
                f"{sd}-D"
            )
        # The tick's columns are pre-lowered (x, y[, z], w) corners.
        qlow = np.concatenate([tick.low, tick.w_min[:, None]], axis=1)
        qhigh = np.concatenate([tick.high, tick.w_max[:, None]], axis=1)
        assignments, batches = db.scatter(qlow, qhigh)
        gather = db.assemble_flat(assignments, batches, count)
        # Response stage, columnar.  Single closed-band region per
        # client with no excludes: nothing to filter, and rows are
        # already uid-unique per client (each store row occurs in
        # exactly one shard), so the first-occurrence merge is the
        # identity and payloads price straight off the size column.
        store = db.store
        rows = gather.rows
        qid = gather.qid
        payload = np.bincount(
            qid, weights=store.sizes[rows], minlength=count
        ).astype(np.int64)
        # Base meshes: connectivity bytes for (client, object) pairs the
        # shipping table has not seen, committed in one assignment.
        base_mask = store.levels[rows] == -1
        base_qid = qid[base_mask]
        base_cols = shipping.object_index(store.object_ids[rows[base_mask]])
        pair_keys = sorted_unique(base_qid * shipping.object_count + base_cols)
        pair_qid = pair_keys // shipping.object_count
        pair_cols = pair_keys % shipping.object_count
        pair_clients = tick.client_ids[pair_qid]
        fresh = ~shipping.shipped[pair_clients, pair_cols]
        new_qid = pair_qid[fresh]
        new_cols = pair_cols[fresh]
        payload += np.bincount(
            new_qid, weights=shipping.base_bytes[new_cols], minlength=count
        ).astype(np.int64)
        shipping.shipped[tick.client_ids[new_qid], new_cols] = True
        return FleetTickResult(
            rows=rows,
            offsets=gather.offsets,
            io=gather.io,
            consulted=gather.consulted,
            payload_bytes=payload,
            new_base_counts=np.bincount(new_qid, minlength=count).astype(
                np.int64, copy=False
            ),
        )
