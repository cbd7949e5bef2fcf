"""Set-up of each workload's system under test, from public ``repro`` APIs.

Every builder records how long its stages took under the per-layer
set-up metric names (``workloads.cityscape.build_s`` ...), so work moved
between set-up stages stays visible.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.core.fleet import FleetTick, make_flat_ticks
from repro.server.database import ObjectDatabase
from repro.server.server import Server
from repro.shard.coordinator import ShardCoordinator
from repro.shard.database import ShardedDatabase
from repro.shard.mapping import ShardMap
from repro.shard.scene import ShardedSceneDatabase
from repro.store.scene import SceneDelta
from repro.workloads.cityscape import CityConfig, build_city
from repro.workloads.dynamics import dynamic_city, rush_hour_deltas

from benchmarks.e2e.scenario import (
    CHURN_AMPLITUDE,
    PRIME_EPOCHS,
    SHARDS,
    SPACE,
    Seeds,
    churn_ids,
)

#: Fleet size and tick count of ``fleet_flat`` (per pass).
FLEET_CLIENTS = 2000
FLEET_TICKS = 24
FLEET_QUERY_FRAC = 0.12


@contextmanager
def timed(timings: dict, name: str) -> Iterator[None]:
    started = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - started


def static_city(config: CityConfig, timings: dict) -> ObjectDatabase:
    """The city, decomposed and with its packed index compiled."""
    with timed(timings, "workloads.cityscape.build_s"):
        city = build_city(config)
    with timed(timings, "index.bulk.build_s"):
        city.access_method
    return city


def tram_server(config: CityConfig, timings: dict) -> Server:
    """``serve_tram``: a monolithic static server with frame-delta planning."""
    return Server(static_city(config, timings), plan_deltas=True)


def churn_deltas(config: CityConfig, seeds: Seeds) -> Callable[[int], SceneDelta]:
    """The rush-hour schedule: call ``k`` advances the scene to epoch ``k + 1``."""
    return rush_hour_deltas(
        churn_ids(config), amplitude=CHURN_AMPLITUDE, seed=seeds.deltas
    )


def churn_server(
    config: CityConfig, seeds: Seeds, timings: dict
) -> tuple[ShardCoordinator, Callable[[int], SceneDelta]]:
    """``serve_churn``: a sharded dynamic server, primed into steady state."""
    with timed(timings, "workloads.cityscape.build_s"):
        source = dynamic_city(config)
    with timed(timings, "index.bulk.build_s"):
        source.access_method
    with timed(timings, "shard.database.split_s"):
        shard_map = ShardMap.build(
            [obj.footprint for obj in source.objects], SHARDS
        )
        sharded = ShardedSceneDatabase(source, shard_map)
    timings["shard.mapping.row_imbalance"] = row_imbalance(sharded)
    server = ShardCoordinator(sharded, plan_deltas=True)
    next_delta = churn_deltas(config, seeds)
    with timed(timings, "server.scene.prime_s"):
        for k in range(PRIME_EPOCHS):
            server.advance_epoch(next_delta(k))
    return server, next_delta


def fleet_database(config: CityConfig, timings: dict) -> ShardedDatabase:
    """``fleet_flat``: the static city split four ways, in-process executor."""
    city = static_city(config, timings)
    with timed(timings, "shard.database.split_s"):
        sharded = ShardedDatabase.from_database(city, SHARDS)
    timings["shard.mapping.row_imbalance"] = row_imbalance(sharded)
    return sharded


def fleet_ticks(seeds: Seeds, *, smoke: bool = False) -> list[FleetTick]:
    return make_flat_ticks(
        SPACE,
        40 if smoke else FLEET_CLIENTS,
        3 if smoke else FLEET_TICKS,
        seed=seeds.ticks,
        query_frac=FLEET_QUERY_FRAC,
    )


def row_imbalance(sharded: ShardedDatabase) -> float:
    """Largest shard's store rows over the mean (1.0 is perfectly even)."""
    rows = [shard_slice.row_count for shard_slice in sharded.slices]
    return max(rows) * len(rows) / sum(rows)
