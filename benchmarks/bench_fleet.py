"""Fleet benchmark: clients-vs-p95 scaling on the shared server uplink.

Runs growing fleets of full client stacks on the discrete-event kernel
(:func:`repro.core.fleet.simulate_system_fleet`), motion-aware vs
naive, all sharing one FIFO server uplink whose backlog carries across
ticks.  The paper's system claim at fleet scale: because motion-aware
clients demand far fewer response-critical bytes, the server sustains
many more of them before queueing delay explodes -- the naive fleet's
p95 response time climbs off a cliff first.

Before any timing, the benchmark asserts the simulation is
deterministic (two runs of the smallest fleet are bit-identical), so
the reported latencies are reproducible facts of the configuration,
not sampling noise.

``--drive flat`` switches to the whole-fleet batched tick path: no
per-client session objects at all -- every tick is one columnar
:meth:`~repro.shard.coordinator.ShardCoordinator.execute_fleet_tick`
scatter-gather plus one vectorised
:func:`~repro.core.fleet.drain_uplink` pass through the shared uplink.
That is what lets the sweep reach 100k clients per tick::

    python benchmarks/bench_fleet.py --drive flat --clients 100000

Run directly (not under pytest)::

    python benchmarks/bench_fleet.py            # full curve, up to 200 clients
    python benchmarks/bench_fleet.py --smoke    # CI-sized quick check
    python benchmarks/bench_fleet.py --json out.json
    python benchmarks/bench_fleet.py --smoke --check BENCH_fleet.json

``--check`` compares everything the run computed *except* host wall
time with the committed document -- the full curve against ``curve``,
a ``--smoke`` run against ``smoke_curve`` -- and fails on any
difference: the simulated latencies and byte counts are a pure function
of the configuration, so a changed digit is a changed decision.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.fleet import (
    FleetConfig,
    drain_uplink,
    make_flat_ticks,
    simulate_system_fleet,
)
from repro.geometry.box import Box
from repro.motion.trajectory import make_tours
from repro.server.server import Server
from repro.shard import ShardCoordinator, ShardedDatabase
from repro.workloads.cityscape import CityConfig, build_city

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))

#: Tight enough that a large naive fleet saturates it, roomy enough
#: that a motion-aware fleet keeps its queueing delay bounded.
UPLINK_BPS = 16_000.0

#: The flat-drive sweep scales the uplink with the fleet (the full-stack
#: curve's 16 kB/s serves 200 clients, i.e. 80 bytes/s each), so
#: queueing behaviour stays comparable across fleet sizes.
PER_CLIENT_UPLINK_BPS = 80.0


def machine_context() -> dict:
    """Where the absolute ``wall_s`` figures were measured."""
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cores": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def settle_gc() -> None:
    """Collect now, then freeze the survivors before a timed region.

    Without this a timed region pays for whichever generation-2
    collection happens to fall inside it, walking the whole city's
    object graph built before the timer started.
    """
    gc.collect()
    gc.freeze()


def without_wall(curve: list[dict]) -> list[dict]:
    """The curve's simulated (machine-independent) fields only."""
    return [
        {
            key: (
                {k: v for k, v in value.items() if k != "wall_s"}
                if isinstance(value, dict)
                else value
            )
            for key, value in point.items()
        }
        for point in curve
    ]


def make_fleet_config(uplink_bps: float) -> FleetConfig:
    return FleetConfig(
        space=SPACE,
        query_frac=0.12,
        server_uplink_bps=uplink_bps,
        tick_seconds=1.0,
        seed=7,
    )


def run_point(city, tours, config, system: str) -> dict:
    started = time.perf_counter()
    result = simulate_system_fleet(Server(city), tours, config, system=system)
    wall_s = time.perf_counter() - started
    return {
        "clients": result.clients,
        "ticks": result.ticks,
        "p95_response_s": round(result.p95_response_s, 4),
        "avg_response_s": round(result.avg_response_s, 4),
        "max_queue_delay_s": round(result.max_queue_delay_s, 4),
        "demand_bytes": result.demand_bytes,
        "prefetch_bytes": result.prefetch_bytes,
        "failed_requests": result.failed_requests,
        "wall_s": round(wall_s, 3),
    }


def assert_deterministic(city, config) -> None:
    tours = make_tours(SPACE, "tram", count=2, speed=0.8, steps=10)
    first = simulate_system_fleet(Server(city), tours, config, system="motion")
    second = simulate_system_fleet(Server(city), tours, config, system="motion")
    assert first.response_times == second.response_times, (
        "fleet simulation is not deterministic"
    )
    assert first.max_queue_delay_s == second.max_queue_delay_s


def run_point_flat(city, shards: int, clients: int, ticks_n: int) -> dict:
    """One flat-drive point: whole-fleet ticks plus the uplink drain."""
    ticks = make_flat_ticks(SPACE, clients, ticks_n, seed=7, query_frac=0.12)
    uplink_bps = PER_CLIENT_UPLINK_BPS * clients
    response_parts: list[np.ndarray] = []
    rows = payload = 0
    backlog = 0.0
    fleet = ShardCoordinator(ShardedDatabase.from_database(city, shards))
    shipping = fleet.fleet_shipping(clients)
    started = time.perf_counter()
    for tick in ticks:
        result = fleet.execute_fleet_tick(tick, shipping)
        rows += result.total_rows
        payload += result.total_payload_bytes
        response_s, backlog = drain_uplink(
            result.payload_bytes, uplink_bps, tick_seconds=1.0,
            backlog_s=backlog,
        )
        response_parts.append(response_s)
    wall_s = time.perf_counter() - started
    responses = np.concatenate(response_parts)
    return {
        "clients": clients,
        "ticks": ticks_n,
        "tick_s": round(wall_s / ticks_n, 4),
        "rows_per_tick": rows // ticks_n,
        "payload_bytes_per_tick": payload // ticks_n,
        "p95_response_s": round(float(np.percentile(responses, 95)), 4),
        "avg_response_s": round(float(np.mean(responses)), 4),
        "end_backlog_s": round(backlog, 4),
        "wall_s": round(wall_s, 3),
    }


def assert_flat_deterministic(city, shards: int) -> None:
    first = run_point_flat(city, shards, clients=64, ticks_n=3)
    second = run_point_flat(city, shards, clients=64, ticks_n=3)
    for key in ("rows_per_tick", "payload_bytes_per_tick", "p95_response_s"):
        assert first[key] == second[key], (
            f"flat fleet drive is not deterministic ({key})"
        )


def run_flat(
    smoke: bool,
    clients: list[int] | None = None,
    shards: int = 8,
) -> dict:
    """The flat-drive sweep: batched whole-fleet ticks at scale."""
    if smoke:
        city_config = CityConfig(
            space=SPACE, object_count=16, levels=2, seed=11,
            min_size_frac=0.03, max_size_frac=0.08,
        )
        fleet_sizes, ticks_n = [1_000, 2_000], 3
    else:
        city_config = CityConfig(
            space=SPACE, object_count=32, levels=2, seed=11,
            min_size_frac=0.03, max_size_frac=0.08,
        )
        fleet_sizes, ticks_n = [10_000, 50_000, 100_000], 5
    if clients:
        fleet_sizes = sorted(clients)
    city = build_city(city_config)
    shards = min(shards, city_config.object_count)
    assert_flat_deterministic(city, shards)
    curve = [
        run_point_flat(city, shards, count, ticks_n)
        for count in fleet_sizes
    ]
    return {
        "config": {
            "drive": "flat",
            "object_count": city_config.object_count,
            "levels": city_config.levels,
            "records": city.record_count,
            "dataset_bytes": city.total_bytes,
            "per_client_uplink_bps": PER_CLIENT_UPLINK_BPS,
            "tick_seconds": 1.0,
            "shards": shards,
            "smoke": smoke,
        },
        "curve": curve,
    }


def run(smoke: bool, clients: list[int] | None = None) -> dict:
    if smoke:
        city_config = CityConfig(
            space=SPACE, object_count=16, levels=2, seed=11,
            min_size_frac=0.03, max_size_frac=0.08,
        )
        fleet_sizes, steps = [4, 8], 10
    else:
        city_config = CityConfig(
            space=SPACE, object_count=32, levels=2, seed=11,
            min_size_frac=0.03, max_size_frac=0.08,
        )
        fleet_sizes, steps = [25, 50, 100, 200], 20
    if clients:
        fleet_sizes = sorted(clients)
    city = build_city(city_config)
    config = make_fleet_config(UPLINK_BPS)
    assert_deterministic(city, config)

    curve = []
    for count in fleet_sizes:
        tours = make_tours(SPACE, "tram", count=count, speed=0.8, steps=steps)
        motion = run_point(city, tours, config, "motion")
        naive = run_point(city, tours, config, "naive")
        point = {
            "clients": count,
            "motion": motion,
            "naive": naive,
            "p95_ratio_naive_over_motion": (
                round(naive["p95_response_s"] / motion["p95_response_s"], 2)
                if motion["p95_response_s"] > 0
                else None
            ),
        }
        curve.append(point)

    return {
        "config": {
            "object_count": city_config.object_count,
            "levels": city_config.levels,
            "records": city.record_count,
            "dataset_bytes": city.total_bytes,
            "server_uplink_bps": UPLINK_BPS,
            "tick_seconds": 1.0,
            "steps": steps,
            "smoke": smoke,
        },
        "machine": machine_context(),
        "curve": curve,
    }


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
        "--check", type=Path, default=None, metavar="PATH",
        help="fail unless every non-wall field of the curve equals the "
        "committed document's (``smoke_curve`` under --smoke)",
    )
    parser.add_argument(
        "--clients", type=int, nargs="+", default=None, metavar="N",
        help="explicit fleet sizes to sweep (overrides the built-in "
        "curve; the flat tick driver sustains 100k+)",
    )
    parser.add_argument(
        "--drive", default="system", choices=("system", "flat"),
        help="'system' runs full per-client stacks on the event kernel; "
        "'flat' runs whole-fleet batched ticks through the shard "
        "coordinator (columnar, scales to 100k clients per tick)",
    )
    parser.add_argument(
        "--shards", type=int, default=8, metavar="N",
        help="shard count of the flat drive's scatter-gather",
    )
    args = parser.parse_args()
    if args.check is not None and (args.drive != "system" or args.clients):
        parser.error("--check pins the built-in system-drive curves only")
    if args.drive == "flat":
        result = run_flat(
            smoke=args.smoke, clients=args.clients, shards=args.shards
        )
    else:
        result = run(smoke=args.smoke, clients=args.clients)
        if not args.smoke and args.clients is None:
            # The committed document also pins the CI-sized curve.
            result["smoke_curve"] = without_wall(run(smoke=True)["curve"])
    document = json.dumps(result, indent=2)
    print(document)
    if args.json is not None:
        args.json.write_text(document + "\n")
    if args.check is not None:
        golden = json.loads(args.check.read_text())
        expected = golden["smoke_curve" if args.smoke else "curve"]
        if without_wall(result["curve"]) != without_wall(expected):
            print(
                f"FAIL: simulated fleet results differ from {args.check}",
                file=sys.stderr,
            )
            return 1
    last = result["curve"][-1]
    if not args.smoke and args.clients is None and args.drive == "system":
        if last["clients"] < 200:
            print("FAIL: full run must scale to 200 clients", file=sys.stderr)
            return 1
        ratio = last["p95_ratio_naive_over_motion"]
        if ratio is None or ratio < 2.0:
            print(
                f"FAIL: at {last['clients']} clients the naive/motion p95 ratio "
                f"{ratio} is below the 2x target",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
