"""The two single-process workloads: ``tour_motion`` and ``fleet_flat``.

Both do fixed work, so their counts (bytes, rows, hit rates) repeat bit
for bit on one seed; ``--seconds`` chooses *how much* fixed work by a
formula, never by the clock.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Callable

import numpy as np

from repro.core.fleet import FleetConfig, drain_uplink
from repro.core.system import MotionAwareSystem, SystemConfig
from repro.motion.trajectory import Trajectory, make_tours
from repro.server.server import Server
from repro.shard.coordinator import ShardCoordinator
from repro.sim.session import SessionResult, run_tour

from benchmarks.e2e import oracle, setups, shims
from benchmarks.e2e.layers import RunResult, close_layers, span_metrics
from benchmarks.e2e.scenario import (
    SETUP_REPEATS,
    SPACE,
    Seeds,
    city_config,
    iqr,
    median,
    peak_rss_mb,
    percentile,
    scaled,
    tail_mean,
)
from benchmarks.e2e.tracing import Tracer

#: ``tour_motion``: tour length, and clients at ``RUN_SECONDS`` (half
#: trams at speed 0.8, half pedestrians at 0.3).
TOUR_STEPS = 49
TOUR_CLIENTS = 64
#: Buffer blocks per side.  Once a client has seen a few empty blocks its
#: prefetch reach is the whole grid, so a contacted tick evaluates every
#: cell at every forecast step: 0.15-0.3 s on this grid, 0.6-1.2 s on the
#: default 20x20 -- which leaves a 10 s run some fifteen heavy ticks and
#: a spread of 0.45 between seeds.
TOUR_GRID = (10, 10)
#: A fifth of the city's bytes, the share a 64 KB buffer is of a
#: three-level city48.
TOUR_BUFFER_BYTES = 16 * 1024

#: ``fleet_flat``: passes at ``RUN_SECONDS`` and oracle sample size.
FLEET_PASSES = 5
FLEET_ORACLE_CLIENTS = 32


def repeat_setup(
    build: Callable[[dict], object], repeats: int
) -> tuple[object, dict, list[float]]:
    """Run ``build(timings)`` ``repeats`` times; keep the last system."""
    walls: list[float] = []
    system, timings = None, {}
    for _ in range(repeats):
        system = None
        gc.collect()
        timings = {}
        started = time.perf_counter()
        system = build(timings)
        walls.append(time.perf_counter() - started)
    return system, timings, walls


# -- tour_motion ---------------------------------------------------------------


def _tours(seeds: Seeds, clients: int, steps: int) -> list[Trajectory]:
    half = clients // 2
    trams = make_tours(
        SPACE, "tram", count=half, speed=0.8, steps=steps, base_seed=seeds.tours
    )
    walkers = make_tours(
        SPACE,
        "pedestrian",
        count=half,
        speed=0.3,
        steps=steps,
        base_seed=seeds.tours + half,
    )
    return trams + walkers


def _run_client(
    server: Server,
    client_id: int,
    tour: Trajectory,
    tracer: Tracer,
    walls: list[float],
) -> tuple[MotionAwareSystem, SessionResult]:
    """One client's whole tour, each ``ClientSession.tick`` timed."""
    system = MotionAwareSystem(
        server,
        SystemConfig(
            space=SPACE, grid_shape=TOUR_GRID, buffer_bytes=TOUR_BUFFER_BYTES
        ),
        client_id=client_id,
    )
    session = system.session()
    tick = session.tick

    def timed_tick(index, now, position, speed):
        started = time.perf_counter()
        with tracer.span("sim.session", "tick", trace=(client_id, index)):
            response_s = tick(index, now, position, speed)
        walls.append(time.perf_counter() - started)
        return response_s

    session.tick = timed_tick
    return system, run_tour(session, tour)


def tour_motion(
    seeds: Seeds, seconds: float, tracer: Tracer, *, smoke: bool = False
) -> RunResult:
    config = city_config(smoke=smoke)
    server, timings, setup_walls = repeat_setup(
        lambda t: Server(setups.static_city(config, t)),
        1 if smoke else SETUP_REPEATS,
    )
    clients = 2 if smoke else 2 * scaled(TOUR_CLIENTS // 2, seconds)
    tours = _tours(seeds, clients, 9 if smoke else TOUR_STEPS)
    if tracer.enabled:
        shims.install_tour(tracer, server)
    walls: list[float] = []
    runs = [
        _run_client(server, client_id, tour, tracer, walls)
        for client_id, tour in enumerate(tours)
    ]
    tracer.restore()
    # Oracle: the first tour, rerun from a fresh server, must repeat bit
    # for bit (bytes, simulated response times, I/O, shipped records).
    _, again = _run_client(
        Server(server.database), 0, tours[0], Tracer(enabled=False), []
    )
    mismatches = int(dataclasses.asdict(again) != dataclasses.asdict(runs[0][1]))

    results = [result for _, result in runs]
    ticks = sum(r.ticks for r in results)
    stale = sum(r.stale_served_ticks for r in results)
    link_bytes = sum(r.total_bytes for r in results)
    walls_ms = np.asarray(walls) * 1e3
    end_to_end = {
        "setup_s": median(setup_walls),
        "peak_rss_mb": peak_rss_mb(),
        "frame_p50_ms": percentile(walls_ms, 50),
        "frame_tail_ms": tail_mean(walls_ms),
        "capacity_rps": ticks / float(np.sum(walls)),
        "wire_bytes_per_frame": link_bytes / ticks,
    }
    stats = [system.manager.stats for system, _ in runs]
    new_blocks = sum(s.new_blocks for s in stats)
    per_layer: dict[str, float] = {}
    if tracer.enabled:
        per_layer = span_metrics(tracer.records(), ticks)
        close_layers(per_layer, float(np.mean(walls_ms)), end_to_end["frame_p50_ms"])
        per_layer.update(timings)
        per_layer.update(
            {
                "buffering.manager.hit_rate": (
                    sum(s.new_hits for s in stats) / new_blocks if new_blocks else 1.0
                ),
                "buffering.manager.prefetch_blocks": (
                    sum(sum(s.per_contact_blocks) - s.misses for s in stats) / ticks
                ),
                "net.link.exchanges": (
                    sum(system.link.request_count for system, _ in runs) / ticks
                ),
                "net.link.bytes": (
                    sum(system.link.total_bytes for system, _ in runs) / ticks
                ),
                "sim.session.response_tail_s": tail_mean(
                    [s for r in results for s in r.responses]
                ),
                "index.packed.node_reads": (
                    sum(r.io_node_reads for r in results) / ticks
                ),
            }
        )
    return RunResult(
        end_to_end=end_to_end,
        attempted=ticks + 1,
        failed=stale + mismatches,
        per_layer=per_layer,
        detail={
            "clients": clients,
            "ticks": ticks,
            "setup_walls_s": setup_walls,
            "oracle_mismatches": mismatches,
            "contacts": sum(r.contacts for r in results),
            "demand_bytes": sum(r.demand_bytes for r in results),
            "prefetch_bytes": sum(r.prefetch_bytes for r in results),
        },
        spans=tracer.records() if tracer.enabled else [],
    )


# -- fleet_flat ----------------------------------------------------------------


def fleet_flat(
    seeds: Seeds, seconds: float, tracer: Tracer, *, smoke: bool = False
) -> RunResult:
    config = city_config(smoke=smoke)
    sharded, timings, setup_walls = repeat_setup(
        lambda t: setups.fleet_database(config, t),
        1 if smoke else SETUP_REPEATS,
    )
    ticks = setups.fleet_ticks(seeds, smoke=smoke)
    clients = ticks[0].count
    passes = 2 if smoke else scaled(FLEET_PASSES, seconds, least=2)
    uplink = FleetConfig(space=SPACE)
    sample = np.unique(
        np.linspace(0, clients - 1, FLEET_ORACLE_CLIENTS).astype(np.int64)
    )
    checked: list[tuple[int, int, np.ndarray]] = []
    if tracer.enabled:
        shims.install_fleet(tracer, sharded)
    tick_walls: list[float] = []
    pass_walls: list[float] = []
    rows = payload = node_reads = 0
    with sharded:
        for pass_index in range(passes):
            coordinator = ShardCoordinator(sharded)
            shipping = coordinator.fleet_shipping(clients)
            if tracer.enabled:
                shims.install_coordinator(tracer, coordinator)
            backlog_s = 0.0
            pass_started = time.perf_counter()
            for index, tick in enumerate(ticks):
                started = time.perf_counter()
                with tracer.span(
                    "core.fleet", "tick", trace=(pass_index, index)
                ):
                    result = coordinator.execute_fleet_tick(tick, shipping)
                    with tracer.span("core.fleet", "drain"):
                        _, backlog_s = drain_uplink(
                            result.payload_bytes,
                            uplink.server_uplink_bps,
                            uplink.tick_seconds,
                            backlog_s,
                        )
                tick_walls.append(time.perf_counter() - started)
                if pass_index == 0:
                    rows += result.total_rows
                    payload += result.total_payload_bytes
                    node_reads += int(result.io[:, 0].sum())
                    if index in (0, len(ticks) - 1):
                        checked.extend(
                            (
                                index,
                                int(c),
                                result.rows[
                                    result.offsets[c] : result.offsets[c + 1]
                                ].copy(),
                            )
                            for c in sample
                        )
            pass_walls.append(time.perf_counter() - pass_started)
        tracer.restore()
        store = sharded.store
        mismatches = sum(
            not np.array_equal(
                np.sort(store.packed_uids[got]),
                oracle.expected_uids(
                    store,
                    ticks[index].low[c],
                    ticks[index].high[c],
                    float(ticks[index].w_min[c]),
                    float(ticks[index].w_max[c]),
                ),
            )
            for index, c, got in checked
        )
    frames = clients * len(ticks)
    walls_ms = np.asarray(tick_walls) * 1e3
    end_to_end = {
        "setup_s": median(setup_walls),
        "peak_rss_mb": peak_rss_mb(),
        "frame_p50_ms": percentile(walls_ms, 50),
        "frame_tail_ms": tail_mean(walls_ms),
        "capacity_rps": median([frames / wall for wall in pass_walls]),
        "wire_bytes_per_frame": payload / frames,
    }
    per_layer: dict[str, float] = {}
    if tracer.enabled:
        per_layer = span_metrics(tracer.records(), len(tick_walls))
        close_layers(per_layer, float(np.mean(walls_ms)), end_to_end["frame_p50_ms"])
        per_layer.update(timings)
        per_layer["core.fleet.rows_per_tick"] = rows / len(ticks)
        per_layer["index.packed.node_reads"] = node_reads / len(ticks)
    return RunResult(
        end_to_end=end_to_end,
        attempted=len(tick_walls) + len(checked),
        failed=mismatches,
        per_layer=per_layer,
        detail={
            "clients": clients,
            "ticks_per_pass": len(ticks),
            "passes": passes,
            "pass_walls_s": pass_walls,
            "pass_wall_iqr_s": iqr(pass_walls),
            "setup_walls_s": setup_walls,
            "oracle_checked": len(checked),
            "oracle_mismatches": mismatches,
            "rows_per_tick": rows / len(ticks),
        },
        spans=tracer.records() if tracer.enabled else [],
    )
