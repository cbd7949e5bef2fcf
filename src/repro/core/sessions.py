"""Concrete session policies: the pluggable quarters of each client.

The unified drive loop lives in :class:`repro.sim.session.ClientSession`;
this module supplies the :class:`~repro.sim.session.SessionPolicy`
implementations that turn it into each of the repo's clients:

* :class:`MotionAwareSessionPolicy` -- the paper's full stack: speed ->
  ``w_min`` mapping raised by a :class:`DegradationController`, the
  motion-aware buffer manager (Kalman prediction + direction-allocated
  prefetching + probability eviction), quote/commit server shipping
  with the no-reship ``UidSet``, and rollback of phantom blocks on
  failed transfers.
* :class:`NaiveSessionPolicy` -- highest-resolution, object-granular
  retrieval over a whole-object R*-tree with plain LRU caching; no
  resolution to shed on failure.
* :class:`IncrementalSessionPolicy` -- Algorithm 1's incremental
  continuous retrieval (a :class:`ContinuousRetrievalClient`) as a
  policy, used by the fleet simulation.

``MotionAwareSystem``/``NaiveSystem`` and the fleet are thin
configurations of ``ClientSession`` over these policies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.buffering.manager import MotionAwareBufferManager, TickResult
from repro.core.resilience import DegradationController
from repro.core.resolution import LinearMapper, SpeedResolutionMapper, clamp_speed
from repro.core.retrieval import ContinuousRetrievalClient, PreparedStep
from repro.geometry.box import Box
from repro.geometry.grid import Grid
from repro.index.bulk import bulk_load
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree
from repro.server.server import BlockQuote, Server
from repro.sim.session import SessionResult, TickPlan, TransferOutcome
from repro.store.uids import EMPTY_UIDS, UidSet

if TYPE_CHECKING:
    from repro.core.system import SystemConfig

__all__ = [
    "MotionAwareSessionPolicy",
    "NaiveSessionPolicy",
    "IncrementalSessionPolicy",
    "LRUObjectCache",
    "build_naive_index",
]


class LRUObjectCache:
    """Byte-bounded LRU cache of whole objects (naive client state)."""

    def __init__(self, capacity_bytes: int) -> None:
        self._capacity = capacity_bytes
        self._items: OrderedDict[int, int] = OrderedDict()  # id -> bytes
        self._bytes = 0

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._items

    def touch(self, object_id: int) -> None:
        self._items.move_to_end(object_id)

    def add(self, object_id: int, size: int) -> None:
        if object_id in self._items:
            self.touch(object_id)
            return
        while self._bytes + size > self._capacity and self._items:
            _, evicted = self._items.popitem(last=False)
            self._bytes -= evicted
        if self._bytes + size <= self._capacity:
            self._items[object_id] = size
            self._bytes += size


def build_naive_index(server: Server) -> RTree:
    """Whole-object R*-tree over the database footprints.

    Built once and shared when many naive clients run against one
    server (the index is read-only at query time).
    """
    items = [(obj.footprint, obj.object_id) for obj in server.database.objects]
    return bulk_load(items, tree_class=RStarTree)


@dataclass
class _MotionTickState:
    """Opaque plan state threaded from ``plan`` to ``commit``/``abort``."""

    tick: TickResult
    demand_quotes: list[BlockQuote]
    exclude: UidSet
    bases: frozenset[int]
    w_min: float
    demand_io: int


class MotionAwareSessionPolicy:
    """The paper's motion-aware stack as a session policy."""

    def __init__(
        self,
        server: Server,
        config: "SystemConfig",
        *,
        client_id: int = 0,
        mapper: SpeedResolutionMapper | None = None,
    ) -> None:
        self._server = server
        self._config = config
        self._client_id = client_id
        self._mapper = mapper if mapper is not None else LinearMapper()
        self._grid = Grid(config.space, config.grid_shape)
        self._manager = MotionAwareBufferManager(
            self._grid,
            config.buffer_bytes,
            server.database.block_bytes_fn(self._grid),
            block_rows=server.database.block_rows_fn(self._grid),
        )
        self._sent_uids: UidSet = EMPTY_UIDS
        self._degradation = DegradationController(config.resilience)

    @property
    def manager(self) -> MotionAwareBufferManager:
        return self._manager

    @property
    def sent_uids(self) -> UidSet:
        """Every record uid the client has successfully received."""
        return self._sent_uids

    def quote_cells(
        self,
        cells: tuple[tuple[int, ...], ...],
        w_min: float,
        exclude: UidSet,
        assume_bases: frozenset[int],
    ) -> tuple[list[BlockQuote], UidSet, frozenset[int]]:
        """Price a set of blocks without committing server state."""
        if len(cells) == 1:
            # The batch of one, through the server's single-block entry:
            # the end-to-end trace hangs its `server.server.quote` span
            # on `quote_block`, which this keeps on the client's path.
            quote = self._server.quote_block(
                self._client_id,
                self._grid.cell_box(cells[0]),
                w_min,
                exclude,
                assume_shipped_bases=assume_bases,
            )
            return (
                [quote],
                exclude | quote.new_uids,
                assume_bases | quote.new_base_ids,
            )
        return self._server.quote_blocks(
            self._client_id,
            self._grid.cell_boxes(
                np.asarray(cells, dtype=int).reshape(-1, self._grid.ndim)
            ),
            w_min,
            exclude,
            assume_shipped_bases=assume_bases,
        )

    # -- SessionPolicy interface -----------------------------------------------------

    def resolution(self, now: float, speed: float) -> tuple[float, bool]:
        base_w_min = float(self._mapper(speed))
        return (
            self._degradation.effective_w_min(now, base_w_min),
            self._degradation.is_degraded(now),
        )

    def plan(
        self,
        index: int,
        now: float,
        position: np.ndarray,
        speed: float,
        w_min: float,
    ) -> TickPlan:
        query = self._config.query_box(position)
        tick = self._manager.tick(position, speed, query, w_min)
        if not tick.contacted_server:
            return TickPlan(contacted=False)
        demand_quotes, exclude, bases = self.quote_cells(
            tick.demand_cells, w_min, self._sent_uids, frozenset()
        )
        demand_payload = sum(q.payload_bytes for q in demand_quotes)
        demand_io = sum(q.io_node_reads for q in demand_quotes)
        return TickPlan(
            contacted=True,
            demand_payload_bytes=demand_payload,
            response_io_reads=demand_io,
            state=_MotionTickState(
                tick=tick,
                demand_quotes=demand_quotes,
                exclude=exclude,
                bases=bases,
                w_min=w_min,
                demand_io=demand_io,
            ),
        )

    def commit(
        self, plan: TickPlan, outcome: TransferOutcome, result: SessionResult
    ) -> int:
        st: _MotionTickState = plan.state
        prefetch_quotes, exclude, _ = self.quote_cells(
            st.tick.prefetch_cells, st.w_min, st.exclude, st.bases
        )
        for quote in st.demand_quotes + prefetch_quotes:
            self._server.commit_quote(quote)
            result.records_shipped += len(quote.new_uids)
        self._sent_uids = exclude
        prefetch_payload = sum(q.payload_bytes for q in prefetch_quotes)
        prefetch_io = sum(q.io_node_reads for q in prefetch_quotes)
        result.demand_bytes += plan.demand_payload_bytes
        result.prefetch_bytes += prefetch_payload
        result.io_node_reads += st.demand_io + prefetch_io
        return prefetch_payload

    def abort(
        self,
        plan: TickPlan,
        outcome: TransferOutcome,
        failed_at: float,
        result: SessionResult,
    ) -> None:
        # Stale-serve: render from what the buffer still holds, drop
        # the phantom blocks, degrade.
        st: _MotionTickState = plan.state
        self._manager.rollback(st.tick.demand_cells + st.tick.prefetch_cells)
        result.io_node_reads += st.demand_io
        self._degradation.note_failure(failed_at)


@dataclass
class _NaiveTickState:
    missing: list[int]
    io_reads: int


class NaiveSessionPolicy:
    """Highest-resolution, object-granular retrieval with LRU caching.

    The naive client has no resolution to shed: a failed transfer
    simply leaves its objects uncached, to be refetched in full next
    tick -- which is exactly why it suffers more under a degraded link.
    ``index`` lets fleets share one read-only whole-object R*-tree
    across clients (see :func:`build_naive_index`).
    """

    def __init__(
        self,
        server: Server,
        config: "SystemConfig",
        *,
        index: RTree | None = None,
        page_bytes: int = 4096,
    ) -> None:
        db = server.database
        self._config = config
        self._index = index if index is not None else build_naive_index(server)
        self._sizes = {obj.object_id: obj.total_bytes for obj in db.objects}
        # I/O to read one object's full data off disk, in pages.
        self._object_io = {
            oid: max(size // page_bytes, 1) for oid, size in self._sizes.items()
        }
        self._cache = LRUObjectCache(config.buffer_bytes)

    # -- SessionPolicy interface -----------------------------------------------------

    def resolution(self, now: float, speed: float) -> tuple[float, bool]:
        return 0.0, False

    def plan(
        self,
        index: int,
        now: float,
        position: np.ndarray,
        speed: float,
        w_min: float,
    ) -> TickPlan:
        query = self._config.query_box(position)
        self._index.stats.push()
        object_ids = self._index.search(query)
        index_io = self._index.stats.pop_delta().node_reads
        payload = 0
        data_io = 0
        missing = [oid for oid in object_ids if oid not in self._cache]
        for oid in object_ids:
            if oid in self._cache:
                self._cache.touch(oid)
        for oid in missing:
            payload += self._sizes[oid]
            data_io += self._object_io[oid]
        if not missing:
            return TickPlan(contacted=False)
        return TickPlan(
            contacted=True,
            demand_payload_bytes=payload,
            response_io_reads=index_io + data_io,
            state=_NaiveTickState(missing=missing, io_reads=index_io + data_io),
        )

    def commit(
        self, plan: TickPlan, outcome: TransferOutcome, result: SessionResult
    ) -> int:
        st: _NaiveTickState = plan.state
        for oid in st.missing:
            self._cache.add(oid, self._sizes[oid])
        result.demand_bytes += plan.demand_payload_bytes
        result.records_shipped += len(st.missing)
        result.io_node_reads += st.io_reads
        return 0

    def abort(
        self,
        plan: TickPlan,
        outcome: TransferOutcome,
        failed_at: float,
        result: SessionResult,
    ) -> None:
        st: _NaiveTickState = plan.state
        result.io_node_reads += st.io_reads


class IncrementalSessionPolicy:
    """Algorithm 1's incremental retrieval client as a session policy.

    The fleet's default client: plans region differences against its
    history, answers them server-side (``prepare_step``), and
    integrates once the session's transport has moved the bytes
    (``finalize_step``).  On a failed transfer nothing is integrated
    and the planning state is not advanced, so the next frame replans
    the same missing region.
    """

    def __init__(
        self,
        client: ContinuousRetrievalClient,
        space: Box,
        query_frac: float,
    ) -> None:
        self._client = client
        self._space = space
        self._query_frac = query_frac

    @property
    def client(self) -> ContinuousRetrievalClient:
        return self._client

    def resolution(self, now: float, speed: float) -> tuple[float, bool]:
        return float(self._client.mapper(clamp_speed(speed))), False

    def plan(
        self,
        index: int,
        now: float,
        position: np.ndarray,
        speed: float,
        w_min: float,
    ) -> TickPlan:
        frame = Box.from_center(position, self._query_frac * self._space.extents)
        prepared = self._client.prepare_step(position, speed, frame, now=now)
        if not prepared.contacted:
            # Nothing to transport: settle the bookkeeping immediately.
            self._client.finalize_step(prepared, 0.0)
            return TickPlan(contacted=False)
        return TickPlan(
            contacted=True,
            demand_payload_bytes=prepared.payload_bytes,
            state=prepared,
        )

    def commit(
        self, plan: TickPlan, outcome: TransferOutcome, result: SessionResult
    ) -> int:
        prepared: PreparedStep = plan.state
        step = self._client.finalize_step(prepared, outcome.elapsed_s)
        result.demand_bytes += step.payload_bytes
        result.records_shipped += step.records_received
        result.io_node_reads += step.io_node_reads
        return 0

    def abort(
        self,
        plan: TickPlan,
        outcome: TransferOutcome,
        failed_at: float,
        result: SessionResult,
    ) -> None:
        prepared: PreparedStep = plan.state
        result.io_node_reads += prepared.io_node_reads
