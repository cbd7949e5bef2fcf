"""Serving-layer load benchmark: throughput and p95 vs connection count.

Drives the asyncio socket service (:mod:`repro.serve`) with fleets of
tram tours from the sim workload generators: every connection is one
moving viewer retrieving its window frame by frame with an
accumulating exclude set, exactly the continuous-retrieval protocol
the paper's clients speak.  Reported per point: aggregate request
throughput and client-observed p50/p95 latency.

Before any timing the benchmark proves the transport is a *transport*:
one seeded tour over the socket must be byte-identical, frame by
frame, to the same tour through ``Server.execute_batch`` in process
(the ``identical_socket_vs_inprocess`` parity flag the bench gate
pins).  The gate also pins the pipelining speedup: issuing requests
concurrently over one connection must beat strict request-response
ping-pong, because responses overlap the client's think time.

Run directly (not under pytest)::

    python benchmarks/bench_serve.py            # full curve, up to 1000 connections
    python benchmarks/bench_serve.py --smoke    # CI-sized quick check
    python benchmarks/bench_serve.py --json out.json
    python benchmarks/bench_serve.py --shards 1 2 4 8   # coordinator sweep

The ``--shards`` sweep serves the same city through a
:class:`~repro.shard.coordinator.ShardCoordinator` per count; the
pinned ``identical_across_shards`` flag asserts the scattered responses
stay byte-identical to the unsharded server's.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.geometry.box import Box
from repro.motion.trajectory import Trajectory, make_tours
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.serve import ServeClient, ServeConfig, RetrieveService, wire
from repro.server.server import Server
from repro.shard.coordinator import ShardCoordinator
from repro.shard.database import ShardedDatabase
from repro.store.uids import EMPTY_UIDS, UidSet
from repro.workloads.cityscape import CityConfig, build_city

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))

#: Half-extent of each viewer's query window.
WINDOW_HALF = 150.0

#: In-flight request depth for the pipelining comparison.
PIPELINE_DEPTH = 16

#: Connections are opened in chunks so a thousand simultaneous SYNs do
#: not overflow the listen backlog and stall the setup phase.
CONNECT_CHUNK = 64


def frame_request(
    client_id: int, t: float, position: np.ndarray, exclude: UidSet
) -> RetrieveRequest:
    window = Box(position - WINDOW_HALF, position + WINDOW_HALF)
    return RetrieveRequest(
        timestamp=float(t),
        client_id=client_id,
        regions=(RegionRequest(window, 0.0, 1.0),),
        exclude_uids=exclude,
    )


async def run_tour(
    client: ServeClient, tour: Trajectory, latencies: list[float]
) -> int:
    """One viewer's full tour on an open connection; returns requests sent."""
    sent = EMPTY_UIDS
    requests = 0
    for t, position in zip(tour.times, tour.positions):
        request = frame_request(client.client_id, t, position, sent)
        started = time.perf_counter()
        response = await client.retrieve(request)
        latencies.append(time.perf_counter() - started)
        sent = sent.union(UidSet.from_tuples(response.batch.uids))
        requests += 1
    return requests


async def connect_fleet(port: int, count: int) -> list[ServeClient]:
    clients: list[ServeClient] = []
    for base in range(0, count, CONNECT_CHUNK):
        chunk = range(base, min(base + CONNECT_CHUNK, count))
        clients.extend(
            await asyncio.gather(
                *(
                    ServeClient.connect("127.0.0.1", port, client_id=cid)
                    for cid in chunk
                )
            )
        )
    return clients


async def load_point(service: RetrieveService, tours: list[Trajectory]) -> dict:
    """One curve point: every tour on its own connection, concurrently."""
    clients = await connect_fleet(service.port, len(tours))
    latencies: list[float] = []
    try:
        started = time.perf_counter()
        counts = await asyncio.gather(
            *(
                run_tour(client, tour, latencies)
                for client, tour in zip(clients, tours)
            )
        )
        wall_s = time.perf_counter() - started
    finally:
        for client in clients:
            await client.close()
    requests = int(sum(counts))
    ordered = np.sort(np.asarray(latencies))
    return {
        "connections": len(tours),
        "requests": requests,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(requests / wall_s, 1),
        "p50_ms": round(float(np.percentile(ordered, 50)) * 1e3, 3),
        "p95_ms": round(float(np.percentile(ordered, 95)) * 1e3, 3),
        "max_ms": round(float(ordered[-1]) * 1e3, 3),
    }


async def check_parity(service: RetrieveService, mirror: Server) -> dict:
    """One seeded tour over the socket vs in process: byte-identical."""
    (tour,) = make_tours(SPACE, "tram", count=1, speed=0.8, steps=12)
    identical = True
    frames = 0
    async with await ServeClient.connect(
        "127.0.0.1", service.port, client_id=0
    ) as client:
        sent = EMPTY_UIDS
        for t, position in zip(tour.times, tour.positions):
            request = frame_request(0, t, position, sent)
            expected = wire.encode_response(mirror.execute_batch(request))
            response = await client.retrieve(request)
            identical &= wire.encode_response(response) == expected
            sent = sent.union(UidSet.from_tuples(response.batch.uids))
            frames += 1
    return {"identical_socket_vs_inprocess": bool(identical), "frames": frames}


async def measure_pipelining(service: RetrieveService, requests: int) -> dict:
    """Sequential ping-pong vs PIPELINE_DEPTH-deep pipelining, one conn."""
    rng = np.random.default_rng(2024)
    positions = rng.uniform(200.0, 800.0, (requests, 2))

    async with await ServeClient.connect(
        "127.0.0.1", service.port, client_id=1
    ) as client:
        started = time.perf_counter()
        for i in range(requests):
            await client.retrieve(frame_request(1, float(i), positions[i], EMPTY_UIDS))
        sequential_s = time.perf_counter() - started

    async with await ServeClient.connect(
        "127.0.0.1", service.port, client_id=2
    ) as client:
        started = time.perf_counter()
        for base in range(0, requests, PIPELINE_DEPTH):
            chunk = range(base, min(base + PIPELINE_DEPTH, requests))
            await asyncio.gather(
                *(
                    client.retrieve(
                        frame_request(2, float(i), positions[i], EMPTY_UIDS)
                    )
                    for i in chunk
                )
            )
        pipelined_s = time.perf_counter() - started

    return {
        "requests": requests,
        "depth": PIPELINE_DEPTH,
        "sequential_rps": round(requests / sequential_s, 1),
        "pipelined_rps": round(requests / pipelined_s, 1),
        "speedup": round(sequential_s / pipelined_s, 2),
    }


async def check_shard_parity(service: RetrieveService, mirror: Server) -> bool:
    """One seeded socket tour over the coordinator vs the unsharded server.

    Delivered data must be byte-identical; the I/O counter is excluded
    from the comparison because per-shard traversals are shallower than
    one global traversal (their sum only matches exactly at one shard).
    """

    def payload_bytes(response) -> bytes:
        return wire.encode_response(
            dataclasses.replace(response, io_node_reads=0)
        )

    (tour,) = make_tours(SPACE, "tram", count=1, speed=0.8, steps=12)
    identical = True
    async with await ServeClient.connect(
        "127.0.0.1", service.port, client_id=0
    ) as client:
        sent = EMPTY_UIDS
        for t, position in zip(tour.times, tour.positions):
            request = frame_request(0, t, position, sent)
            expected = payload_bytes(mirror.execute_batch(request))
            response = await client.retrieve(request)
            identical &= payload_bytes(response) == expected
            sent = sent.union(UidSet.from_tuples(response.batch.uids))
    return bool(identical)


async def shard_sweep(
    city, shard_counts: list[int], connections: int, steps: int
) -> dict:
    """Serve the same city through a shard coordinator per count.

    Every count first proves parity -- one seeded socket tour over the
    coordinator must deliver byte-identical data to the unsharded
    in-process server -- then runs a fixed fleet for the throughput
    row.  The parity conjunction is the pinned
    ``identical_across_shards`` flag.
    """
    identical = True
    points = []
    tours = make_tours(SPACE, "tram", count=connections, speed=0.8, steps=steps)
    for count in shard_counts:
        service = RetrieveService(
            ShardCoordinator(ShardedDatabase.from_database(city, count)),
            ServeConfig(max_connections=connections + 8),
        )
        await service.start()
        try:
            identical &= await check_shard_parity(service, Server(city))
            point = await load_point(service, tours)
        finally:
            await service.shutdown()
        points.append({"shards": count, **point})
    return {
        "counts": shard_counts,
        "identical_across_shards": bool(identical),
        "points": points,
    }


async def run_async(smoke: bool, shard_counts: list[int] | None = None) -> dict:
    if smoke:
        city_config = CityConfig(
            space=SPACE, object_count=16, levels=2, seed=11,
            min_size_frac=0.03, max_size_frac=0.08,
        )
        connection_counts, steps, pipeline_requests = [4, 16], 6, 64
        if shard_counts is None:
            shard_counts = [1, 2]
    else:
        city_config = CityConfig(
            space=SPACE, object_count=32, levels=2, seed=11,
            min_size_frac=0.03, max_size_frac=0.08,
        )
        connection_counts, steps, pipeline_requests = [16, 64, 256, 1000], 5, 400
        if shard_counts is None:
            shard_counts = [1, 2, 4]
    city = build_city(city_config)

    service = RetrieveService(
        Server(city), ServeConfig(max_connections=max(connection_counts) + 8)
    )
    await service.start()
    try:
        parity = await check_parity(service, Server(city))
        pipelining = await measure_pipelining(service, pipeline_requests)
        curve = []
        for count in connection_counts:
            tours = make_tours(SPACE, "tram", count=count, speed=0.8, steps=steps)
            curve.append(await load_point(service, tours))
    finally:
        await service.shutdown()

    sharding = await shard_sweep(
        city, shard_counts, connections=connection_counts[0], steps=steps
    )

    return {
        "config": {
            "object_count": city_config.object_count,
            "levels": city_config.levels,
            "records": city.record_count,
            "dataset_bytes": city.total_bytes,
            "window_half": WINDOW_HALF,
            "steps": steps,
            "smoke": smoke,
        },
        "parity": parity,
        "pipelining": pipelining,
        "shard_sweep": sharding,
        "curve": curve,
    }


def run(smoke: bool, shard_counts: list[int] | None = None) -> dict:
    return asyncio.run(run_async(smoke, shard_counts))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small city / small fleets (CI sanity run)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the result document to PATH",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=None, metavar="N",
        help="shard counts for the coordinator sweep "
        "(default: 1 2 4, or 1 2 under --smoke)",
    )
    args = parser.parse_args()
    if args.shards is not None and any(n < 1 for n in args.shards):
        parser.error("--shards counts must be >= 1")
    result = run(smoke=args.smoke, shard_counts=args.shards)
    document = json.dumps(result, indent=2)
    print(document)
    if args.json is not None:
        args.json.write_text(document + "\n")
    if not result["parity"]["identical_socket_vs_inprocess"]:
        print("FAIL: socket tour diverged from in-process execution",
              file=sys.stderr)
        return 1
    if not result["shard_sweep"]["identical_across_shards"]:
        print("FAIL: sharded coordinator diverged from the unsharded server",
              file=sys.stderr)
        return 1
    if not args.smoke:
        last = result["curve"][-1]
        if last["connections"] < 1000:
            print("FAIL: full run must scale to 1000 connections",
                  file=sys.stderr)
            return 1
        # Each tour yields steps + 1 sampled frames.
        expected = last["connections"] * (result["config"]["steps"] + 1)
        if last["requests"] != expected:
            print("FAIL: dropped requests under full load", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
