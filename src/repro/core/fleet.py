"""Multi-client simulation: many tourists sharing one server.

The paper's motivation has *many* mobile clients querying the server at
once; its related work cites the server-side load of large query
volumes.  This module simulates a fleet of clients whose responses
share the server's finite uplink, on the discrete-event kernel
(:mod:`repro.sim`):

* every client is a :class:`~repro.sim.session.ClientSession` over its
  own policy, link and seeded random streams (derived exactly like
  :meth:`~repro.core.system.SystemConfig.build_link`, so two clients
  never share a generator and adding a client never shifts another's
  draws);
* tick ``t`` fires as a kernel event at ``t * tick_seconds`` for every
  client, in client order -- the ``(time, seq)`` event ordering
  reproduces round-robin service within a tick;
* the server uplink is one shared :class:`~repro.sim.resources.FifoResource`:
  a transfer holds it for its serialisation time and the backlog
  *carries across ticks*, so a saturated tick leaves the next one
  queueing behind it (the pre-kernel loop wrongly reset the backlog
  every tick).  Demand queueing delay counts toward response time;
  prefetch holds the link without charging the tick that issued it.

The headline system property it demonstrates: because motion-aware
clients ship far fewer bytes, a server sustains many more of them
before queueing delay explodes (see ``benchmarks/bench_fleet.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.resilience import ResiliencePolicy, ResilientExchanger
from repro.core.resolution import LinearMapper, SpeedResolutionMapper
from repro.core.retrieval import ContinuousRetrievalClient
from repro.core.sessions import (
    IncrementalSessionPolicy,
    MotionAwareSessionPolicy,
    NaiveSessionPolicy,
    build_naive_index,
)
from repro.core.system import SystemConfig
from repro.errors import ConfigurationError
from repro.geometry.box import Box
from repro.motion.trajectory import Trajectory
from repro.net.faults import FaultInjector, FaultSchedule
from repro.net.link import LinkConfig, WirelessLink
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.net.simclock import SimClock
from repro.server.server import Server
from repro.sim.kernel import Action, EventKernel
from repro.sim.resources import FifoResource
from repro.sim.session import ClientSession, LinkTransport, Transport
from repro.sim.streams import (
    BACKOFF_STREAM,
    FLEET_TOUR_STREAM,
    LINK_FAULTS_STREAM,
    LINK_LOSS_STREAM,
    derive_rng,
)
from repro.store.uids import sorted_unique

__all__ = [
    "FleetConfig",
    "FleetResult",
    "FleetTick",
    "make_flat_ticks",
    "drain_uplink",
    "simulate_fleet",
    "simulate_system_fleet",
]


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of a fleet simulation.

    Attributes
    ----------
    query_frac:
        Query frame side as a fraction of the space side.
    link:
        Per-client wireless link parameters.
    server_uplink_bps:
        Total bytes-per-second the server can push to all clients
        combined; transfers queue behind each other once it saturates.
    tick_seconds:
        Simulated time between consecutive query frames.  Stretching it
        gives the shared uplink longer to drain between ticks, so the
        same payloads queue less.
    seed:
        Root of every random stream in the fleet; per-client generators
        are derived as ``(seed, client_id, role)``.
    faults, resilience:
        Optional link fault schedule and bounded-retry policy applied
        to every client (``resilience=None`` sends demand traffic over
        the bare link).
    grid_shape, buffer_bytes, io_time_per_node_s:
        Client-side buffer/IO parameters, used when the fleet runs full
        system stacks (:func:`simulate_system_fleet`).
    drive:
        ``"flat"`` (default) runs the tick loop directly -- every tick
        event is known up front at ``t * tick_seconds`` in ``(t,
        client)`` order, so the nested loop reproduces the kernel's
        ``(time, seq)`` service order exactly without materialising one
        closure per (tick, client); at 10k+ clients that removes the
        dominant scheduling overhead.  ``"kernel"`` keeps the explicit
        event-kernel scheduling as the bit-identical cross-check.
    """

    space: Box
    query_frac: float = 0.08
    link: LinkConfig = LinkConfig()
    server_uplink_bps: float = 1_024_000.0
    tick_seconds: float = 1.0
    seed: int = 0
    faults: FaultSchedule | None = None
    resilience: ResiliencePolicy | None = None
    grid_shape: tuple[int, int] = (20, 20)
    buffer_bytes: int = 64 * 1024
    io_time_per_node_s: float = 0.0
    drive: str = "flat"

    def __post_init__(self) -> None:
        if self.drive not in ("flat", "kernel"):
            raise ConfigurationError(
                f"unknown fleet drive {self.drive!r} "
                "(expected 'flat' or 'kernel')"
            )
        if self.space.ndim != 2:
            raise ConfigurationError("fleet space must be 2-D")
        if not 0.0 < self.query_frac <= 1.0:
            raise ConfigurationError("query_frac must be in (0, 1]")
        if self.server_uplink_bps <= 0:
            raise ConfigurationError("server uplink must be positive")
        if self.tick_seconds <= 0:
            raise ConfigurationError("tick duration must be positive")
        if self.buffer_bytes <= 0:
            raise ConfigurationError("buffer must be positive")
        if self.io_time_per_node_s < 0:
            raise ConfigurationError("io time must be non-negative")

    def build_link(self, client_id: int) -> WirelessLink:
        """Client ``client_id``'s fault-injected link, seeded per client."""
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

    def build_transport(self, link: WirelessLink, client_id: int) -> Transport:
        """The demand-path transport over ``link`` (resilient when configured)."""
        if self.resilience is not None:
            return ResilientExchanger(
                link,
                self.resilience,
                rng=derive_rng(self.seed, client_id, BACKOFF_STREAM),
            )
        return LinkTransport(link)

    def system_config(self) -> SystemConfig:
        """This fleet's parameters as a per-client :class:`SystemConfig`."""
        return SystemConfig(
            space=self.space,
            grid_shape=self.grid_shape,
            buffer_bytes=self.buffer_bytes,
            query_frac=self.query_frac,
            link=self.link,
            io_time_per_node_s=self.io_time_per_node_s,
            faults=self.faults,
            resilience=(
                self.resilience if self.resilience is not None else ResiliencePolicy()
            ),
            seed=self.seed,
        )


@dataclass
class FleetResult:
    """Aggregates of one fleet run."""

    clients: int = 0
    ticks: int = 0
    demand_bytes: int = 0
    prefetch_bytes: int = 0
    total_requests: int = 0
    total_records: int = 0
    failed_requests: int = 0
    response_times: list[float] = field(default_factory=list)
    max_queue_delay_s: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.demand_bytes + self.prefetch_bytes

    @property
    def avg_response_s(self) -> float:
        if not self.response_times:
            return 0.0
        return float(np.mean(self.response_times))

    @property
    def p95_response_s(self) -> float:
        if not self.response_times:
            return 0.0
        return float(np.percentile(self.response_times, 95))


@dataclass(frozen=True)
class FleetTick:
    """One tick of an entire flat-drive fleet, as columns not objects.

    Row ``i`` is client ``client_ids[i]``'s query for this tick: the
    window ``[low[i], high[i]]`` at value band ``[w_min[i], w_max[i]]``
    (closed, single region, no excludes -- the cold flat-drive shape).
    The coordinator's whole-fleet path
    (:meth:`~repro.shard.coordinator.ShardCoordinator.execute_fleet_tick`)
    consumes these columns directly: one plan broadcast and one scatter
    per shard for the *whole fleet*, instead of one coordinator entry
    per client.  :meth:`to_requests` lowers a tick to the equivalent
    per-client :class:`~repro.net.messages.RetrieveRequest` objects,
    which is what the parity tests diff against.
    """

    timestamp: int
    client_ids: np.ndarray  # (C,) int64, unique within the tick
    low: np.ndarray  # (C, d) query-window corners
    high: np.ndarray  # (C, d)
    w_min: np.ndarray  # (C,)
    w_max: np.ndarray  # (C,)

    def __post_init__(self) -> None:
        count = int(self.client_ids.shape[0])
        if self.low.shape != self.high.shape or self.low.ndim != 2:
            raise ConfigurationError(
                f"tick corners must be matching (C, d) stacks, got "
                f"{self.low.shape} and {self.high.shape}"
            )
        if self.low.shape[0] != count or self.w_min.shape != (count,) or (
            self.w_max.shape != (count,)
        ):
            raise ConfigurationError(
                f"tick columns disagree on client count {count}"
            )
        if count and sorted_unique(self.client_ids).size != count:
            raise ConfigurationError(
                "tick client ids must be unique (one query per client)"
            )
        bad_band = (
            (self.w_min < 0.0) | (self.w_max > 1.0) | (self.w_min > self.w_max)
        )
        if bool(bad_band.any()):
            i = int(np.flatnonzero(bad_band)[0])
            raise ConfigurationError(
                f"invalid value band [{self.w_min[i]}, {self.w_max[i]}] for "
                f"client {int(self.client_ids[i])}; need 0 <= min <= max <= 1"
            )
        if bool((self.low > self.high).any()):
            raise ConfigurationError("tick windows must have low <= high")

    @property
    def count(self) -> int:
        return int(self.client_ids.shape[0])

    def to_requests(self) -> list[RetrieveRequest]:
        """This tick as per-client requests (the parity reference)."""
        return [
            RetrieveRequest(
                timestamp=self.timestamp,
                client_id=int(self.client_ids[i]),
                regions=(
                    RegionRequest(
                        region=Box(self.low[i], self.high[i]),
                        w_min=float(self.w_min[i]),
                        w_max=float(self.w_max[i]),
                    ),
                ),
            )
            for i in range(self.count)
        ]


def make_flat_ticks(
    space: Box,
    clients: int,
    ticks: int,
    *,
    seed: int,
    query_frac: float = 0.08,
    w_max_range: tuple[float, float] = (0.5, 1.0),
) -> list[FleetTick]:
    """Synthesise a whole fleet's linear tours as per-tick columns.

    Every client walks a straight tour between two seeded points of
    ``space`` and queries the ``query_frac``-sized window centred on
    its position with a fixed per-client band ``[0, w_max]`` -- the
    cold flat-drive workload at fleet scale, built entirely with
    vectorised numpy (no per-client Python objects, which is what lets
    ``bench_fleet --drive flat`` reach 100k+ clients).  Draws come from
    one derived stream in a single ``(C, 5)`` block, so a larger fleet
    extends a smaller one's tours rather than reshuffling them.

    Per-client bands are quantised to eight resolution stops over
    ``w_max_range`` -- clients request discrete resolutions, exactly as
    the speed-resolution mapper hands them out -- so the top stop (the
    full band, which is what pulls base rows and hence base-mesh
    shipping) is actually reachable, not a measure-zero draw.
    """
    if clients < 1:
        raise ConfigurationError(f"fleet needs >= 1 client, got {clients}")
    if ticks < 1:
        raise ConfigurationError(f"fleet needs >= 1 tick, got {ticks}")
    if not 0.0 < query_frac <= 1.0:
        raise ConfigurationError("query_frac must be in (0, 1]")
    lo, hi = w_max_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise ConfigurationError(
            f"w_max_range must satisfy 0 <= lo <= hi <= 1, got {w_max_range}"
        )
    rng = derive_rng(seed, 0, FLEET_TOUR_STREAM)
    draws = rng.random((clients, 5))
    span = space.high - space.low
    starts = space.low + draws[:, 0:2] * span
    ends = space.low + draws[:, 2:4] * span
    stops = 8
    w_max = lo + np.ceil(draws[:, 4] * stops) / stops * (hi - lo)
    w_min = np.zeros(clients, dtype=np.float64)
    half = 0.5 * query_frac * span
    client_ids = np.arange(clients, dtype=np.int64)
    out: list[FleetTick] = []
    for t in range(ticks):
        frac = 0.0 if ticks == 1 else t / (ticks - 1)
        centres = starts + frac * (ends - starts)
        low = np.clip(centres - half, space.low, space.high)
        high = np.clip(centres + half, space.low, space.high)
        out.append(
            FleetTick(
                timestamp=t,
                client_ids=client_ids,
                low=low,
                high=high,
                w_min=w_min,
                w_max=w_max,
            )
        )
    return out


def drain_uplink(
    payload_bytes: np.ndarray,
    uplink_bps: float,
    tick_seconds: float,
    backlog_s: float = 0.0,
) -> tuple[np.ndarray, float]:
    """FIFO-serialise one tick's responses through the shared uplink.

    The vectorised twin of queueing the tick's transfers through a
    :class:`~repro.sim.resources.FifoResource` in client order:
    response ``i`` finishes at ``backlog + cumsum(bytes / bps)[i]``
    after its query fired, and whatever has not drained within
    ``tick_seconds`` carries into the next tick's backlog.  Returns
    ``(response_s, new_backlog_s)``.
    """
    if uplink_bps <= 0:
        raise ConfigurationError("server uplink must be positive")
    if tick_seconds <= 0:
        raise ConfigurationError("tick duration must be positive")
    if backlog_s < 0:
        raise ConfigurationError("backlog must be non-negative")
    transfer_s = np.asarray(payload_bytes, dtype=np.float64) / uplink_bps
    if transfer_s.ndim != 1:
        raise ConfigurationError("payload_bytes must be a flat array")
    response_s = backlog_s + np.cumsum(transfer_s)
    end = float(response_s[-1]) if response_s.size else backlog_s
    return response_s, max(0.0, end - tick_seconds)


def _tick_action(session: ClientSession, tour: Trajectory, t: int) -> Action:
    def fire(kernel: EventKernel) -> None:
        session.tick(t, kernel.now, tour.positions[t], tour.nominal_speed)

    return fire


def _drive_fleet(
    sessions: list[ClientSession],
    tours: list[Trajectory],
    config: FleetConfig,
    uplink: FifoResource,
) -> FleetResult:
    """Fire every (tick, client) event and aggregate the fleet.

    All tick events happen at ``t * tick_seconds`` in ``(t, client)``
    order, serving clients round-robin within each tick with the
    uplink backlog carrying across ticks.  The default ``"flat"``
    drive runs exactly that nested loop; the ``"kernel"`` drive
    schedules one event per (tick, client) on the
    :class:`~repro.sim.kernel.EventKernel`, whose ``(time, seq)``
    total order fires them in the same sequence -- the two drives are
    bit-identical, the flat one just skips building ``ticks x
    clients`` closures (the scheduling cost that dominated 10k-client
    fleets).
    """
    ticks = min(len(tour) for tour in tours)
    if config.drive == "flat":
        for t in range(ticks):
            when = t * config.tick_seconds
            for session, tour in zip(sessions, tours):
                session.tick(t, when, tour.positions[t], tour.nominal_speed)
    else:
        kernel = EventKernel()
        for t in range(ticks):
            when = t * config.tick_seconds
            for i, (session, tour) in enumerate(zip(sessions, tours)):
                kernel.schedule_at(
                    when,
                    _tick_action(session, tour, t),
                    label=f"tick:{t}:client:{i}",
                )
        kernel.run()
    result = FleetResult(
        clients=len(sessions),
        ticks=ticks,
        max_queue_delay_s=uplink.max_queued_s,
    )
    for session in sessions:
        r = session.result
        result.response_times.extend(r.responses)
        result.demand_bytes += r.demand_bytes
        result.prefetch_bytes += r.prefetch_bytes
        result.total_requests += r.contacts
        result.total_records += r.records_shipped
        result.failed_requests += r.stale_served_ticks
    return result


def simulate_fleet(
    server: Server,
    tours: list[Trajectory],
    config: FleetConfig,
    *,
    mapper: SpeedResolutionMapper | None = None,
    use_coverage: bool = True,
) -> FleetResult:
    """Run one incremental-retrieval client per tour on the kernel.

    Each client plans region differences against its own history
    (Algorithm 1 with semantic caching by default) and ships the
    demanded payload over its own seeded link, serialised through the
    shared server uplink.
    """
    if not tours:
        raise ConfigurationError("fleet needs at least one tour")
    mapper = mapper if mapper is not None else LinearMapper()
    uplink = FifoResource(name="server-uplink")
    sessions: list[ClientSession] = []
    for i, tour in enumerate(tours):
        server.reset_client(i)
        link = config.build_link(i)
        client = ContinuousRetrievalClient(
            server,
            link,
            SimClock(),
            client_id=i,
            mapper=mapper,
            use_coverage=use_coverage,
        )
        policy = IncrementalSessionPolicy(client, config.space, config.query_frac)
        sessions.append(
            ClientSession(
                policy,
                config.build_transport(link, i),
                io_time_per_node_s=config.io_time_per_node_s,
                uplink=uplink,
                uplink_bps=config.server_uplink_bps,
            )
        )
    return _drive_fleet(sessions, tours, config, uplink)


def simulate_system_fleet(
    server: Server,
    tours: list[Trajectory],
    config: FleetConfig,
    *,
    system: str = "motion",
    mapper: SpeedResolutionMapper | None = None,
) -> FleetResult:
    """Run one full system stack per tour on the kernel.

    ``system="motion"`` fleets :class:`MotionAwareSessionPolicy` clients
    (buffer manager, prefetch, degradation); ``system="naive"`` fleets
    :class:`NaiveSessionPolicy` clients sharing one read-only
    whole-object R*-tree.  Both share the server uplink, which is where
    the byte savings of the motion-aware stack turn into a latency
    cliff for the naive one as the fleet grows.
    """
    if not tours:
        raise ConfigurationError("fleet needs at least one tour")
    if system not in ("motion", "naive"):
        raise ConfigurationError(
            f"unknown fleet system {system!r} (expected 'motion' or 'naive')"
        )
    sys_cfg = config.system_config()
    uplink = FifoResource(name="server-uplink")
    shared_index = build_naive_index(server) if system == "naive" else None
    sessions: list[ClientSession] = []
    for i, tour in enumerate(tours):
        server.reset_client(i)
        link = config.build_link(i)
        if system == "motion":
            policy: MotionAwareSessionPolicy | NaiveSessionPolicy = (
                MotionAwareSessionPolicy(server, sys_cfg, client_id=i, mapper=mapper)
            )
        else:
            policy = NaiveSessionPolicy(server, sys_cfg, index=shared_index)
        sessions.append(
            ClientSession(
                policy,
                config.build_transport(link, i),
                io_time_per_node_s=config.io_time_per_node_s,
                uplink=uplink,
                uplink_bps=config.server_uplink_bps,
            )
        )
    return _drive_fleet(sessions, tours, config, uplink)
