"""The data server.

Executes :class:`~repro.net.messages.RetrieveRequest`s: runs each
``(region, band)`` sub-query separately against the access method
(mirroring Section IV, where the difference region is split into
rectangles and executed as separate sub-queries), filters out records
the client already holds (the server-side filtering step of Figure 3),
and ships base meshes for objects the client sees for the first time.

The hot path is columnar: sub-queries return row-id arrays into the
database's :class:`~repro.store.columns.CoefficientStore`, the
already-delivered filter is one sorted-uid :func:`numpy.searchsorted`
join against the request's packed
:class:`~repro.store.uids.UidSet`, and cross-region deduplication is a
single :func:`numpy.unique` merge -- no per-record Python objects or
hash lookups.  :meth:`Server.execute_per_record` keeps the original
object-at-a-time implementation for comparison benchmarks.

Query answering is decomposed coordinator-style into two stages so a
sharded backend (:mod:`repro.shard`) can swap the fetch stage without
touching the merge semantics: *fetch* (:meth:`Server._region_rows`, one
:class:`RowResult` per sub-query) and *gather*
(:meth:`Server.gather_batch`, the half-open / no-reship filters plus
the first-occurrence uid merge).  Every fetch result is canonicalised
to ascending packed-uid order, which makes the response independent of
the access method's traversal order -- a scatter-gather over spatial
shards reassembles bit-identical responses because each shard's rows
land in the same canonical sequence the monolithic index would yield.

Per-client state is bounded: the server remembers which base meshes it
shipped to at most ``max_clients`` clients, evicting the least recently
served client when the table is full and on explicit
:meth:`Server.reset_client` / :meth:`Server.disconnect`.  Block
shipping is split into a side-effect-free *quote* and an explicit
*commit*, so a transfer that dies on the wire never marks its records
as delivered.  A contact's blocks are quoted together
(:meth:`Server.quote_blocks`): one batched fetch, one shared join.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.geometry.box import Box
from repro.index.packed import (
    RowResult,
    corners_query_batch,
    region_corners,
)
from repro.net.messages import (
    LATEST_EPOCH,
    BaseMeshPayload,
    CoefficientBatch,
    RegionRequest,
    RetrieveBatchResponse,
    RetrieveRequest,
    RetrieveResponse,
)
from repro.server.database import ObjectDatabase
from repro.server.planner import FrontierPlanner
from repro.store.columns import CoefficientStore
from repro.store.scene import FootprintDelta, SceneDelta
from repro.store.uids import UidSet, pack_uid
from repro.wavelets.coefficients import CoefficientRecord

__all__ = ["Server", "BlockQuote"]

#: Default cap on how many clients' shipped-base sets the server keeps.
DEFAULT_MAX_CLIENTS = 1024


@dataclass(frozen=True)
class BlockQuote:
    """A priced but uncommitted block shipment.

    ``payload_bytes`` includes base-mesh connectivity for objects in
    ``new_base_ids`` -- objects this client would see for the first
    time.  Committing the quote marks those bases as shipped.
    ``new_uids`` is a packed :class:`UidSet` (it compares equal to the
    legacy ``frozenset`` of uid triples).
    """

    client_id: int
    payload_bytes: int
    io_node_reads: int
    new_uids: UidSet
    new_base_ids: frozenset[int]


class Server:
    """Query-processing front end over an :class:`ObjectDatabase`.

    The server is stateless with respect to clients except for the
    ``known_objects`` hint carried in requests and the bounded
    shipped-bases table, which keep the protocol one-round-trip.
    """

    def __init__(
        self,
        database: ObjectDatabase,
        *,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        plan_deltas: bool = False,
    ):
        if max_clients < 1:
            raise ConfigurationError(
                f"max_clients must be >= 1, got {max_clients}"
            )
        self._db = database
        self._max_clients = max_clients
        # Opt-in frame-delta planning: per-client frontier memos over the
        # packed index answer queries contained in the previous frame's
        # inflated window without a root traversal.  Off by default
        # because warm frames bill fewer node reads than the cold walk,
        # which would break I/O-accounting parity with the per-record
        # reference path.  Silently degrades to cold traversal when the
        # database has no global packed index (a sharded database, whose
        # coordinator plans per shard instead).
        self._plan_deltas = plan_deltas
        self._planner: FrontierPlanner | None = None
        # Per-client set of object ids whose base mesh has been shipped,
        # in least-recently-served order for eviction.
        self._shipped_bases: OrderedDict[int, set[int]] = OrderedDict()

    @property
    def database(self) -> ObjectDatabase:
        return self._db

    @property
    def max_clients(self) -> int:
        return self._max_clients

    @property
    def client_count(self) -> int:
        """Clients with live shipped-base state."""
        return len(self._shipped_bases)

    def _client_bases(self, client_id: int) -> set[int]:
        """The client's shipped set, created and LRU-touched."""
        if client_id in self._shipped_bases:
            self._shipped_bases.move_to_end(client_id)
            return self._shipped_bases[client_id]
        while len(self._shipped_bases) >= self._max_clients:
            evicted, _ = self._shipped_bases.popitem(last=False)
            self._client_evicted(evicted)
        shipped: set[int] = set()
        self._shipped_bases[client_id] = shipped
        return shipped

    def _client_evicted(self, client_id: int) -> None:
        """A client left the shipped-bases table; drop derived state.

        Called on explicit resets *and* on LRU eviction, so planner
        memos (here and, via override, in every shard of a sharded
        coordinator) never outlive the client slot that anchored them
        -- an evicted client that reconnects must refresh cold rather
        than warm-hit a memo built for state the server forgot.
        """
        if self._planner is not None:
            self._planner.forget(client_id)

    def reset_client(self, client_id: int) -> None:
        """Forget which base meshes a client already received."""
        self._shipped_bases.pop(client_id, None)
        self._client_evicted(client_id)

    def disconnect(self, client_id: int) -> None:
        """Drop all per-client state (alias of :meth:`reset_client`)."""
        self.reset_client(client_id)

    # -- query answering (columnar) --------------------------------------------

    @property
    def planner(self) -> FrontierPlanner | None:
        """The live frame-delta planner, or None when it cannot apply.

        Built lazily (constructing it forces the index build) and torn
        down and rebuilt whenever the database rebuilds its index
        -- e.g. after ``add_object`` invalidates it -- so memos
        never outlive the packed arrays they point into.
        """
        if not self._plan_deltas:
            return None
        method = self._db.packed_access_method()
        if method is None:
            return None
        if self._planner is None or self._planner.method is not method:
            self._planner = FrontierPlanner(
                method, max_clients=self._max_clients
            )
        return self._planner

    def _resolve_epoch(self, request: RetrieveRequest) -> int:
        """The epoch this request is answered at.

        :data:`~repro.net.messages.LATEST_EPOCH` resolves to the
        database's current epoch (0 for static databases); a pinned
        epoch must not lie in the future.
        """
        current = self._db.current_epoch
        if request.epoch == LATEST_EPOCH:
            return current
        if request.epoch > current:
            raise ProtocolError(
                f"request pins epoch {request.epoch} but the server is "
                f"at epoch {current}"
            )
        return request.epoch

    def _canonical(
        self, result: RowResult, store: CoefficientStore | None = None
    ) -> RowResult:
        """Re-order a sub-query's rows into ascending packed-uid order.

        The canonical delivery order decouples responses from the
        access method's traversal order: any backend producing the same
        row *set* (static or dynamic packed index, sharded
        scatter-gather) yields a bit-identical response.  ``store`` is
        the row space the result indexes into -- the live store by
        default, a pinned epoch's view for as-of-epoch answers.
        """
        if store is None:
            store = self._db.store
        rows = result.rows
        if rows.size > 1:
            order = np.argsort(store.packed_uids[rows], kind="stable")
            rows = rows[order]
        return RowResult(rows=rows, io=result.io)

    def _region_rows(
        self,
        client_id: int,
        region: Box,
        w_min: float,
        w_max: float,
        *,
        epoch: int | None = None,
    ) -> RowResult:
        """One sub-query: via the client's frontier memo when planning.

        A pinned past epoch bypasses the planner (memos track the live
        index only) and queries the retained epoch view directly.
        """
        if epoch is not None and epoch != self._db.current_epoch:
            return self._canonical(
                self._db.query_region_rows_at(epoch, region, w_min, w_max),
                self._db.store_at(epoch),
            )
        planner = self.planner
        if planner is not None:
            return self._canonical(
                planner.query_rows(client_id, region, w_min, w_max)
            )
        return self._canonical(self._db.query_region_rows(region, w_min, w_max))

    def fetch_batch(self, request: RetrieveRequest) -> list[RowResult]:
        """Fetch stage: one canonical :class:`RowResult` per sub-query.

        The default implementation runs the sub-queries serially
        against the database; a sharded coordinator overrides this with
        a scatter-gather over the intersecting shards.
        """
        epoch = self._resolve_epoch(request)
        return [
            self._region_rows(
                request.client_id,
                region_req.region,
                region_req.w_min,
                region_req.w_max,
                epoch=epoch,
            )
            for region_req in request.regions
        ]

    def execute_batch(self, request: RetrieveRequest) -> RetrieveBatchResponse:
        """Answer one retrieve request on the columnar path.

        Sub-queries return row ids; the incremental-band and
        already-delivered filters are vectorised masks, and the
        cross-region merge keeps the first occurrence of each uid
        (matching the per-record dict merge exactly).
        """
        return self.gather_batch(request, self.fetch_batch(request))

    def execute_many(
        self, requests: Iterable[RetrieveRequest]
    ) -> list[RetrieveBatchResponse]:
        """Answer several requests; a hook for batch-amortised backends.

        The base server simply loops; a sharded coordinator groups all
        sub-queries per shard and scatters each group as one batched
        traversal, which is where process-parallel execution pays off.
        """
        return [self.execute_batch(request) for request in requests]

    def gather_batch(
        self, request: RetrieveRequest, region_results: list[RowResult]
    ) -> RetrieveBatchResponse:
        """Gather stage: filter, merge and price fetched sub-queries.

        ``region_results`` holds one canonical-order :class:`RowResult`
        per ``request.regions`` entry.  All per-client state mutation
        (shipped-base bookkeeping) happens here, in request order, so
        any fetch strategy that produces the same row sets commits the
        same state.
        """
        epoch = self._resolve_epoch(request)
        store = self._db.store_at(epoch)
        exclude = request.exclude_uids
        kept: list[np.ndarray] = []
        io_total = 0
        filtered = 0
        for region_req, result in zip(request.regions, region_results):
            io_total += result.io.node_reads
            rows = result.rows
            if region_req.half_open and rows.size:
                # Incremental band [w_min, w_max): the upper edge was
                # already delivered at the previous resolution.
                in_band = store.values[rows] < region_req.w_max
                filtered += int(rows.size - np.count_nonzero(in_band))
                rows = rows[in_band]
            if rows.size:
                fresh = ~exclude.contains_packed(store.packed_uids[rows])
                filtered += int(rows.size - np.count_nonzero(fresh))
                rows = rows[fresh]
            kept.append(rows)
        merged = self._merge_first_occurrence(store.packed_uids, kept)
        base_meshes = self._base_payloads_rows(
            request.client_id, merged, store
        )
        return RetrieveBatchResponse(
            request=request,
            base_meshes=base_meshes,
            batch=CoefficientBatch(store=store, rows=merged),
            io_node_reads=io_total,
            filtered_out=filtered,
            epoch=epoch,
        )

    @staticmethod
    def _merge_first_occurrence(
        packed_uids: np.ndarray, row_groups: list[np.ndarray]
    ) -> np.ndarray:
        """Concatenate row groups, dropping repeated uids after the first."""
        if not row_groups:
            return np.empty(0, dtype=np.int64)
        rows = np.concatenate(row_groups)
        if rows.size == 0:
            return rows
        _, first = np.unique(packed_uids[rows], return_index=True)
        first.sort()
        return rows[first]

    def execute(self, request: RetrieveRequest) -> RetrieveResponse:
        """Answer one retrieve request as a legacy per-record response."""
        return self.execute_batch(request).to_response()

    # -- epoch advance ---------------------------------------------------------

    def advance_epoch(self, delta: SceneDelta) -> FootprintDelta:
        """Apply one scene delta and invalidate every dependent cache.

        Requires an epoch-capable database
        (:class:`~repro.server.scene.SceneDatabase`); static databases
        raise.  After the store and index have stepped, :meth:`_on_epoch`
        walks the server-side caches: planner memos intersecting a
        changed object's dirty footprint are dropped (survivors are
        re-based into the new row space), and the changed object ids
        leave every client's shipped-bases set so re-meshed or moved
        bases ship again.  Untouched objects' cached state survives.
        """
        old_store = self._db.store if self._db.object_count else None
        footprint = self._db.advance_epoch(delta)
        self._on_epoch(footprint, old_store, self._db.store)
        return footprint

    def _on_epoch(
        self,
        footprint: FootprintDelta,
        old_store: CoefficientStore | None,
        new_store: CoefficientStore,
    ) -> None:
        """Scoped cache invalidation for one epoch step."""
        if self._planner is not None and old_store is not None:
            self._planner.apply_epoch(
                footprint, old_store.packed_uids, new_store.packed_uids
            )
        if not footprint.is_empty:
            changed = {int(i) for i in footprint.changed_ids}
            for shipped in self._shipped_bases.values():
                shipped -= changed

    def execute_per_record(self, request: RetrieveRequest) -> RetrieveResponse:
        """The original object-at-a-time implementation.

        Kept as the reference path for parity tests and the datapath
        benchmark; result sets are identical to :meth:`execute`.
        """
        merged: dict[tuple[int, int, int], CoefficientRecord] = {}
        io_total = 0
        filtered = 0
        exclude = request.exclude_uids
        for region_req in request.regions:
            result = self._db.query_region(
                region_req.region, region_req.w_min, region_req.w_max
            )
            io_total += result.io.node_reads
            # Canonical per-region delivery order (ascending packed uid),
            # mirroring the batch path's _canonical re-ordering.
            records = sorted(
                result.records,
                key=lambda r: pack_uid(r.object_id, r.key.level, r.key.index),
            )
            for record in records:
                if region_req.half_open and record.value >= region_req.w_max:
                    filtered += 1
                    continue
                if record.uid in exclude:
                    filtered += 1
                    continue
                merged[record.uid] = record
        records = tuple(merged.values())
        displacements = tuple(
            tuple(float(x) for x in self._db.displacement(r.uid)) for r in records
        )
        base_meshes = self._base_payloads(request.client_id, records)
        return RetrieveResponse(
            request=request,
            base_meshes=base_meshes,
            records=records,
            displacements=displacements,
            io_node_reads=io_total,
            filtered_out=filtered,
        )

    def retrieve(
        self,
        client_id: int,
        timestamp: float,
        regions: list[RegionRequest],
        exclude_uids: UidSet | Iterable[tuple[int, int, int]] | None = None,
    ) -> RetrieveResponse:
        """Convenience wrapper building the request object."""
        if not regions:
            raise ProtocolError("retrieve needs at least one region")
        request = RetrieveRequest(
            timestamp=timestamp,
            client_id=client_id,
            regions=tuple(regions),
            exclude_uids=UidSet.coerce(exclude_uids),
        )
        return self.execute(request)

    # -- block quoting ---------------------------------------------------------

    def _base_connectivity_bytes(self, object_id: int) -> int:
        obj = self._db.get_object(object_id)
        return obj.base_bytes - (
            obj.decomposition.base.vertex_count
            * self._db.encoding.base_vertex_bytes()
        )

    def _fetch_blocks(
        self, client_id: int, low: np.ndarray, high: np.ndarray, w_min: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fetch stage of :meth:`quote_blocks`: ``(rows, qid, node_reads)``.

        ``rows`` are the store rows answering the blocks' ``[w_min, 1]``
        queries, ``qid`` the block each row answers and ``node_reads``
        the per-block I/O.  A live packed index answers the whole list
        in one shared frontier walk; frame-delta planning (memos are
        per-client warm state, not batchable) and a database without a
        global packed index (a sharded one served by a plain server) run
        the serial per-block :meth:`_region_rows` loop.
        """
        method = self._db.packed_access_method()
        if method is not None and self.planner is None:
            rows, counts, io = corners_query_batch(
                method.packed,
                *region_corners(low, high, w_min, 1.0, method.spatial_dims),
            )
            return rows, np.repeat(np.arange(len(low)), counts), io[:, 0]
        results = [
            self._region_rows(client_id, Box(lo, hi), w_min, 1.0)
            for lo, hi in zip(low, high)
        ]
        return (
            np.concatenate([r.rows for r in results]),
            np.repeat(np.arange(len(low)), [r.rows.size for r in results]),
            np.array([r.io.node_reads for r in results], dtype=np.int64),
        )

    def quote_blocks(
        self,
        client_id: int,
        regions: tuple[np.ndarray, np.ndarray],
        w_min: float,
        exclude_uids: UidSet | Iterable[tuple[int, int, int]] | None,
        *,
        assume_shipped_bases: frozenset[int] = frozenset(),
    ) -> tuple[list[BlockQuote], UidSet, frozenset[int]]:
        """Price a list of block shipments without committing any state.

        ``regions`` is the blocks' ``(low, high)`` corner stacks, each
        ``(n, ndim)``.  Block ``k`` is quoted as if blocks ``< k`` had
        already been delivered: it excludes ``exclude_uids`` plus every
        uid an earlier block quoted, and a base mesh two blocks share
        is charged to the first of them only (``assume_shipped_bases``
        names meshes quoted earlier in the same round trip).  Returns
        the quotes, the exclude set grown by every quoted uid, and the
        assumed bases grown by every quoted base.
        """
        low, high = regions
        count = len(low)
        exclude = UidSet.coerce(exclude_uids)
        if count == 0:
            return [], exclude, assume_shipped_bases
        store = self._db.store
        rows, qid, node_reads = self._fetch_blocks(client_id, low, high, w_min)
        # Canonical order, every block at once: ascending packed uid
        # within ascending block, from one (block, uid rank) key sort.
        qid, rank = np.divmod(
            np.sort(qid * len(store) + store.uid_rank[rows]), len(store)
        )
        uids = store.packed_uids[store.uid_order[rank]]
        # No-reship join, then each uid stays with the first block that
        # holds it; both keep the (block, uid) order.
        fresh = np.flatnonzero(~exclude.contains_packed(uids))
        fresh = fresh[np.sort(np.unique(uids[fresh], return_index=True)[1])]
        qid, uids = qid[fresh], uids[fresh]
        rows = store.uid_order[rank[fresh]]
        payload = np.bincount(
            qid, weights=store.sizes[rows], minlength=count
        ).astype(np.int64)
        # A base mesh ships (and its connectivity is charged) with the
        # first block that carries one of its vertices.
        shipped = self._shipped_bases.get(client_id, set())
        new_bases: list[set[int]] = [set() for _ in range(count)]
        base = np.flatnonzero(store.levels[rows] == -1)
        oids, first = np.unique(store.object_ids[rows[base]], return_index=True)
        for oid, block in zip(oids.tolist(), qid[base[first]].tolist()):
            if oid not in shipped and oid not in assume_shipped_bases:
                new_bases[block].add(oid)
                payload[block] += self._base_connectivity_bytes(oid)
        bounds = np.searchsorted(qid, np.arange(count + 1)).tolist()
        quotes = [
            BlockQuote(
                client_id=client_id,
                payload_bytes=int(payload[k]),
                io_node_reads=int(node_reads[k]),
                new_uids=UidSet.from_packed(uids[bounds[k] : bounds[k + 1]]),
                new_base_ids=frozenset(new_bases[k]),
            )
            for k in range(count)
        ]
        return (
            quotes,
            exclude.union(uids),
            assume_shipped_bases.union(*new_bases),
        )

    def quote_block(
        self,
        client_id: int,
        region: Box,
        w_min: float,
        exclude_uids: UidSet | Iterable[tuple[int, int, int]] | None,
        *,
        assume_shipped_bases: frozenset[int] = frozenset(),
    ) -> BlockQuote:
        """Price one block shipment: :meth:`quote_blocks` of one."""
        quotes, _, _ = self.quote_blocks(
            client_id,
            (region.low[None], region.high[None]),
            w_min,
            exclude_uids,
            assume_shipped_bases=assume_shipped_bases,
        )
        return quotes[0]

    def commit_quote(self, quote: BlockQuote) -> None:
        """Mark a quoted shipment as delivered (bases now shipped)."""
        if quote.new_base_ids:
            self._client_bases(quote.client_id).update(quote.new_base_ids)

    # -- base-mesh shipping ----------------------------------------------------

    def _base_payloads_rows(
        self,
        client_id: int,
        rows: np.ndarray,
        store: CoefficientStore | None = None,
    ) -> tuple[BaseMeshPayload, ...]:
        """Base meshes to ship for a merged row batch (first-seen order)."""
        if store is None:
            store = self._db.store
        base_rows = rows[store.levels[rows] == -1]
        if base_rows.size == 0:
            # Still touch the client's LRU slot, as the legacy path did.
            self._client_bases(client_id)
            return ()
        oids = store.object_ids[base_rows]
        _, first = np.unique(oids, return_index=True)
        first.sort()
        return self._ship_bases(client_id, (int(oids[i]) for i in first))

    def _base_payloads(
        self, client_id: int, records: tuple[CoefficientRecord, ...]
    ) -> tuple[BaseMeshPayload, ...]:
        """Per-record twin of :meth:`_base_payloads_rows`."""
        ordered: dict[int, None] = {}
        for record in records:
            if record.key.is_base:
                ordered.setdefault(record.object_id, None)
        return self._ship_bases(client_id, iter(ordered))

    def _ship_bases(
        self, client_id: int, object_ids: Iterable[int]
    ) -> tuple[BaseMeshPayload, ...]:
        shipped = self._client_bases(client_id)
        payloads = []
        for oid in object_ids:
            if oid in shipped:
                continue
            shipped.add(oid)
            obj = self._db.get_object(oid)
            connectivity = self._base_connectivity_bytes(oid)
            payloads.append(
                BaseMeshPayload(
                    object_id=oid,
                    mesh=obj.decomposition.base,
                    size_bytes=max(connectivity, 1),
                )
            )
        return tuple(payloads)
