"""Sharded scatter-gather benchmark: batched, pruned retrieval.

Builds the default-scale cityscape, replays a fleet of moving-window
retrieve requests against three server stacks, and reports:

* ``scatter_gather`` -- the headline: the sharded coordinator
  (``execute_many`` batching every sub-query per shard) against the
  single-process unsharded per-request loop.  Both produce
  bit-identical responses (rows, uid merge order, base shipping,
  filter counts); the speedup comes from (a) batching all sub-queries
  bound for a shard into one shared frontier walk and (b) shard
  pruning skipping non-intersecting slices.
* ``shard_scaling`` -- wall time per (shard count x client count)
  combination: the scaling curve.
* ``shard_skew`` -- object/row balance of the headline tiling.
* ``fleet_tick`` -- whole-fleet batched planning: one
  ``execute_fleet_tick`` per tick against the per-request loop over
  identical queries, plus the headline sweep (a 100k-client flat-drive
  tick at full scale).

Before any timing, responses of every stack are digested and compared,
so the reported speedups are for *identical* answers.  Every timed
region starts from a collected, frozen heap (``settle_gc``), so no
timing includes a full garbage collection of the city.

Run directly (not under pytest)::

    python benchmarks/bench_shard.py            # full run, default scale
    python benchmarks/bench_shard.py --smoke    # CI-sized quick check
    python benchmarks/bench_shard.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_fleet import machine_context, settle_gc  # sibling script: one definition
from repro.core.fleet import make_flat_ticks
from repro.geometry.box import Box
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.server.server import Server
from repro.shard import ShardCoordinator, ShardedDatabase
from repro.store.uids import UidSet
from repro.workloads.cityscape import CityConfig, build_city

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))

#: Shard counts of the scaling curve (1 == sharding machinery, no cut).
SHARD_COUNTS = [1, 4, 8]

#: Request-stream counts of the scaling curve ("clients" per tick).
CLIENT_COUNTS = [64, 256, 1024]


def make_requests(count: int, ticks: int, seed: int) -> list[RetrieveRequest]:
    """``count`` clients x ``ticks`` moving two-region window requests."""
    rng = np.random.default_rng(seed)
    extent = SPACE.extents
    origin = rng.uniform(SPACE.low + 0.1 * extent, SPACE.high - 0.2 * extent,
                         size=(count, 2))
    velocity = rng.uniform(-0.01, 0.01, size=(count, 2)) * extent
    half = rng.uniform(0.02, 0.05, size=count)[:, None] * extent
    w_min = rng.uniform(0.0, 0.3, size=count)
    requests = []
    for t in range(ticks):
        for i in range(count):
            centre = origin[i] + t * velocity[i]
            lead = centre + 0.4 * velocity[i]
            regions = (
                RegionRequest(
                    region=Box(centre - half[i], centre + half[i]),
                    w_min=float(w_min[i]), w_max=1.0,
                ),
                RegionRequest(
                    region=Box(lead - half[i], lead + half[i]),
                    w_min=float(min(w_min[i] + 0.2, 1.0)), w_max=1.0,
                    half_open=False,
                ),
            )
            requests.append(
                RetrieveRequest(
                    timestamp=float(t), client_id=i, regions=regions,
                    exclude_uids=UidSet.coerce(None),
                )
            )
    return requests


def digest(responses) -> list[tuple]:
    return [
        (
            tuple(r.batch.store.packed_uids[r.batch.rows].tolist()),
            r.filtered_out,
            tuple(p.object_id for p in r.base_meshes),
        )
        for r in responses
    ]


def time_baseline(city, requests) -> tuple[float, list[tuple]]:
    server = Server(city)
    server.execute_batch(requests[0])  # warm the index build
    settle_gc()
    started = time.perf_counter()
    responses = [server.execute_batch(r) for r in requests]
    return time.perf_counter() - started, digest(responses)


def time_sharded(city, requests, shards: int) -> tuple[float, list[tuple]]:
    coordinator = ShardCoordinator(ShardedDatabase.from_database(city, shards))
    coordinator.execute_many(requests[:1])  # warm the indexes
    settle_gc()
    started = time.perf_counter()
    responses = coordinator.execute_many(requests)
    return time.perf_counter() - started, digest(responses)


def skew_section(city, shards: int) -> dict:
    """Shard balance of the headline tiling, in objects and store rows."""
    db = ShardedDatabase.from_database(city, shards)
    rows_of_object = np.fromiter(
        (len(obj.store) for obj in city.objects),
        dtype=np.int64,
        count=city.object_count,
    )
    return db.shard_map.skew_stats(rows_of_object)


def fleet_parity(city, shards: int, clients: int, tick_count: int) -> bool:
    """Fleet-tick columns vs a per-request pass: rows, payload, bases, io."""
    ticks = make_flat_ticks(SPACE, clients, tick_count, seed=9, query_frac=0.2)
    fleet = ShardCoordinator(ShardedDatabase.from_database(city, shards))
    shipping = fleet.fleet_shipping(clients)
    reference = ShardCoordinator(ShardedDatabase.from_database(city, shards))
    for tick in ticks:
        result = fleet.execute_fleet_tick(tick, shipping)
        for i, resp in enumerate(reference.execute_many(tick.to_requests())):
            lo, hi = result.offsets[i], result.offsets[i + 1]
            if not (
                np.array_equal(result.rows[lo:hi], resp.batch.rows)
                and int(result.payload_bytes[i]) == resp.payload_bytes
                and int(result.new_base_counts[i]) == len(resp.base_meshes)
                and int(result.io[i, 0]) == resp.io_node_reads
            ):
                return False
    return True


def time_fleet_ticks(city, shards: int, clients: int, tick_count: int) -> dict:
    """Mean wall time per whole-fleet tick through the batched path."""
    ticks = make_flat_ticks(SPACE, clients, tick_count, seed=9)
    fleet = ShardCoordinator(ShardedDatabase.from_database(city, shards))
    shipping = fleet.fleet_shipping(clients)
    fleet.execute_fleet_tick(ticks[0], fleet.fleet_shipping(clients))
    rows = payload = 0
    settle_gc()
    started = time.perf_counter()
    for tick in ticks:
        result = fleet.execute_fleet_tick(tick, shipping)
        rows += result.total_rows
        payload += result.total_payload_bytes
    elapsed = time.perf_counter() - started
    return {
        "clients": clients,
        "ticks": tick_count,
        "tick_s": round(elapsed / tick_count, 4),
        "rows_per_tick": rows // tick_count,
        "payload_bytes_per_tick": payload // tick_count,
    }


def time_fleet_per_request(
    city, shards: int, clients: int, tick_count: int
) -> float:
    """The same ticks through the per-request path, per tick."""
    ticks = make_flat_ticks(SPACE, clients, tick_count, seed=9)
    coordinator = ShardCoordinator(
        ShardedDatabase.from_database(city, shards),
        max_clients=max(clients, 1024),
    )
    coordinator.execute_many(ticks[0].to_requests())
    settle_gc()
    started = time.perf_counter()
    for tick in ticks:
        coordinator.execute_many(tick.to_requests())
    return (time.perf_counter() - started) / tick_count


def run(smoke: bool) -> dict:
    if smoke:
        city_config = CityConfig(
            space=SPACE, object_count=24, levels=2, seed=11,
            min_size_frac=0.02, max_size_frac=0.05,
        )
        headline_shards, clients, ticks = 4, 32, 2
        shard_counts, client_counts = [1, 4], [16, 32]
    else:
        city_config = CityConfig(
            space=SPACE, object_count=100, levels=3, seed=11,
            min_size_frac=0.02, max_size_frac=0.05,
        )
        headline_shards, clients, ticks = 8, 256, 4
        shard_counts, client_counts = SHARD_COUNTS, CLIENT_COUNTS
    city = build_city(city_config)
    requests = make_requests(clients, ticks, seed=3)

    baseline_s, reference = time_baseline(city, requests)
    serial_s, serial_digest = time_sharded(city, requests, headline_shards)
    scatter_gather = {
        "shards": headline_shards,
        "requests": len(requests),
        "subqueries": 2 * len(requests),
        "baseline_single_process_s": round(baseline_s, 4),
        "sharded_serial_s": round(serial_s, 4),
        "batched_serial_speedup": round(baseline_s / serial_s, 2),
        "identical_responses": reference == serial_digest,
    }

    curve = []
    for shards in shard_counts:
        for count in client_counts:
            tick_requests = make_requests(count, 1, seed=5)
            serial_point_s, _ = time_sharded(city, tick_requests, shards)
            curve.append(
                {
                    "shards": shards,
                    "clients": count,
                    "serial_s": round(serial_point_s, 4),
                }
            )

    # Whole-fleet flat-drive ticks: the batched columnar path vs the
    # per-request loop over the same queries, plus the headline sweep
    # (100k clients per tick at full scale).
    parity_clients, ratio_clients = (32, 256) if smoke else (64, 2048)
    sweep_clients = [2_000] if smoke else [10_000, 100_000]
    tick_count = 3
    per_request_s = time_fleet_per_request(
        city, headline_shards, ratio_clients, tick_count
    )
    batched = time_fleet_ticks(city, headline_shards, ratio_clients, tick_count)
    sweep = [
        time_fleet_ticks(city, headline_shards, count, tick_count)
        for count in sweep_clients
    ]
    fleet_tick = {
        "shards": headline_shards,
        "parity_clients": parity_clients,
        "identical_fleet_tick": fleet_parity(
            city, headline_shards, parity_clients, tick_count
        ),
        "ratio_clients": ratio_clients,
        "per_request_s": round(per_request_s, 4),
        "fleet_tick_s": batched["tick_s"],
        "tick_speedup": round(per_request_s / batched["tick_s"], 2),
        "sweep": sweep,
        # Tick cost of the largest fleet over the smallest (10x the
        # clients at full scale; linear would read 10, and a lone smoke
        # point reads 1).  Deliberately not named ``*_speedup``: it is
        # a trajectory figure, not a gated ratio.
        "sweep_tick_ratio": round(sweep[-1]["tick_s"] / sweep[0]["tick_s"], 2),
    }

    return {
        "config": {
            "object_count": city_config.object_count,
            "levels": city_config.levels,
            "records": city.record_count,
            "dataset_bytes": city.total_bytes,
            "clients": clients,
            "ticks": ticks,
            "smoke": smoke,
        },
        "machine": machine_context(),
        "scatter_gather": scatter_gather,
        "shard_skew": skew_section(city, headline_shards),
        "shard_scaling": curve,
        "fleet_tick": fleet_tick,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small city / small request batch (CI sanity run)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the result document to PATH",
    )
    args = parser.parse_args()
    result = run(smoke=args.smoke)
    document = json.dumps(result, indent=2)
    print(document)
    if args.json is not None:
        args.json.write_text(document + "\n")
    headline = result["scatter_gather"]
    if not headline["identical_responses"]:
        print("FAIL: sharded responses diverged from baseline", file=sys.stderr)
        return 1
    if not result["fleet_tick"]["identical_fleet_tick"]:
        print(
            "FAIL: fleet-tick responses diverged from the per-request path",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and headline["batched_serial_speedup"] < 1.0:
        print(
            "FAIL: batched scatter-gather speedup "
            f"{headline['batched_serial_speedup']}x is below 1x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
