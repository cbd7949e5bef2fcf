"""End-to-end systems: the paper's motion-aware stack vs the naive stack.

These drivers reproduce the overall-performance comparison of
Section VII-E (Figures 14/15):

* :class:`MotionAwareSystem` -- multi-resolution retrieval (speed ->
  ``w_min``), motion-aware buffer manager (Kalman prediction +
  direction-allocated prefetching + probability eviction), wavelet
  support-region index, and incremental delta requests (already-sent
  records are never re-shipped).
* :class:`NaiveSystem` -- always fetches objects at the highest
  resolution, indexes whole objects with an R*-tree (no multiresolution
  entries), and caches whole objects with plain LRU.

Both are thin configurations of the unified
:class:`~repro.sim.session.ClientSession` engine: the per-tick skeleton
(resolution -> plan -> transport -> commit/abort -> account) lives in
:mod:`repro.sim.session`, the behaviours that differ live in the
:mod:`repro.core.sessions` policies, and :meth:`run` drives the session
through the tour on the discrete-event kernel.

Both run over the same database, link model and tours.  Per tick the
*query response time* is the time until the current frame's data is
available: zero when everything is cached, otherwise the resilient
exchange of the demanded payload (retransmissions, bounded retries and
backoff included) plus server I/O time.  Prefetch traffic is shipped in
the background: it counts toward total bytes but not response time.

Fault tolerance: demand traffic flows through a real
:class:`~repro.net.link.WirelessLink` carrying the configured
:class:`~repro.net.faults.FaultSchedule`.  A request that exhausts its
bounded retries is *stale-served*: the tick renders from whatever the
buffer holds, the fetched blocks are rolled back (the data never
arrived), nothing is marked as shipped, and the motion-aware client
degrades -- it raises its effective ``w_min`` for a window and recovers
monotonically (:mod:`repro.core.resilience`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.buffering.manager import MotionAwareBufferManager
from repro.core.resilience import ResiliencePolicy, ResilientExchanger
from repro.core.resolution import SpeedResolutionMapper
from repro.core.sessions import MotionAwareSessionPolicy, NaiveSessionPolicy
from repro.errors import ConfigurationError
from repro.geometry.box import Box
from repro.index.rtree import RTree
from repro.motion.trajectory import Trajectory
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.link import LinkConfig, WirelessLink
from repro.server.server import Server
from repro.sim.resources import FifoResource
from repro.sim.session import ClientSession, SessionResult, run_tour
from repro.sim.streams import (
    BACKOFF_STREAM,
    LINK_FAULTS_STREAM,
    LINK_LOSS_STREAM,
    derive_rng,
)
from repro.store.uids import UidSet

__all__ = ["SystemConfig", "SystemRunResult", "MotionAwareSystem", "NaiveSystem"]

#: One tour's aggregates.  The dataclass itself now lives with the
#: session engine (:class:`repro.sim.session.SessionResult`); the old
#: name remains the public spelling at this layer.
SystemRunResult = SessionResult


@dataclass(frozen=True)
class SystemConfig:
    """Shared configuration of the end-to-end simulations.

    ``faults`` injects deterministic link misbehaviour; ``resilience``
    bounds what the client does about it; ``seed`` feeds every random
    stream (link loss, fault sampling, backoff jitter) so a run is a
    pure function of its configuration and tour.
    """

    space: Box
    grid_shape: tuple[int, int] = (20, 20)
    buffer_bytes: int = 64 * 1024
    query_frac: float = 0.05
    link: LinkConfig = LinkConfig()
    io_time_per_node_s: float = 0.005
    faults: FaultSchedule | None = None
    resilience: ResiliencePolicy = ResiliencePolicy()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.space.ndim != 2:
            raise ConfigurationError("system space must be 2-D")
        if not 0.0 < self.query_frac <= 1.0:
            raise ConfigurationError(
                f"query_frac must be in (0, 1], got {self.query_frac}"
            )
        if self.buffer_bytes <= 0:
            raise ConfigurationError("buffer must be positive")
        if self.io_time_per_node_s < 0:
            raise ConfigurationError("io time must be non-negative")

    def query_box(self, position: np.ndarray) -> Box:
        extents = self.query_frac * self.space.extents
        return Box.from_center(position, extents)

    def build_link(self, client_id: int) -> WirelessLink:
        """A fault-injected link with streams derived from ``seed``."""
        injector = None
        if self.faults is not None:
            injector = FaultInjector(
                self.faults,
                rng=derive_rng(self.seed, client_id, LINK_FAULTS_STREAM),
            )
        return WirelessLink(
            self.link,
            rng=derive_rng(self.seed, client_id, LINK_LOSS_STREAM),
            faults=injector,
        )

    def build_exchanger(self, link: WirelessLink, client_id: int) -> ResilientExchanger:
        """The bounded-retry wrapper with its own jitter stream."""
        return ResilientExchanger(
            link,
            self.resilience,
            rng=derive_rng(self.seed, client_id, BACKOFF_STREAM),
        )


class MotionAwareSystem:
    """The paper's full stack over a motion-aware database/server."""

    def __init__(
        self,
        server: Server,
        config: SystemConfig,
        *,
        client_id: int = 0,
        mapper: SpeedResolutionMapper | None = None,
    ) -> None:
        self._config = config
        self._policy = MotionAwareSessionPolicy(
            server, config, client_id=client_id, mapper=mapper
        )
        self._link = config.build_link(client_id)
        self._exchanger = config.build_exchanger(self._link, client_id)

    @property
    def policy(self) -> MotionAwareSessionPolicy:
        return self._policy

    @property
    def manager(self) -> MotionAwareBufferManager:
        return self._policy.manager

    @property
    def link(self) -> WirelessLink:
        return self._link

    @property
    def sent_uids(self) -> UidSet:
        """Every record uid the client has successfully received."""
        return self._policy.sent_uids

    def session(
        self,
        *,
        uplink: FifoResource | None = None,
        uplink_bps: float = 0.0,
        result: SessionResult | None = None,
    ) -> ClientSession:
        """This system's client as a :class:`ClientSession`."""
        return ClientSession(
            self._policy,
            self._exchanger,
            io_time_per_node_s=self._config.io_time_per_node_s,
            uplink=uplink,
            uplink_bps=uplink_bps,
            result=result,
        )

    def run(self, tour: Trajectory) -> SystemRunResult:
        """Drive the whole tour; returns the aggregates."""
        return run_tour(self.session(), tour)


class NaiveSystem:
    """Highest-resolution, object-granular retrieval with LRU caching.

    The naive client shares the resilient transport (bounded retries,
    timeouts) but has no resolution to shed: a failed transfer simply
    leaves its objects uncached, to be refetched in full next tick --
    which is exactly why it suffers more under a degraded link.
    """

    def __init__(
        self,
        server: Server,
        config: SystemConfig,
        *,
        client_id: int = 0,
        index: RTree | None = None,
    ) -> None:
        self._config = config
        self._policy = NaiveSessionPolicy(server, config, index=index)
        self._link = config.build_link(client_id)
        self._exchanger = config.build_exchanger(self._link, client_id)

    @property
    def policy(self) -> NaiveSessionPolicy:
        return self._policy

    @property
    def link(self) -> WirelessLink:
        return self._link

    def session(
        self,
        *,
        uplink: FifoResource | None = None,
        uplink_bps: float = 0.0,
        result: SessionResult | None = None,
    ) -> ClientSession:
        """This system's client as a :class:`ClientSession`."""
        return ClientSession(
            self._policy,
            self._exchanger,
            io_time_per_node_s=self._config.io_time_per_node_s,
            uplink=uplink,
            uplink_bps=uplink_bps,
            result=result,
        )

    def run(self, tour: Trajectory) -> SystemRunResult:
        """Drive the whole tour; returns the aggregates."""
        return run_tour(self.session(), tour)
