"""The server process of the two socket workloads.

Started by the load generator with ``python -m
benchmarks.e2e.server_child``.  It composes the system under test from
public ``repro`` APIs, starts a :class:`RetrieveService` on an ephemeral
port and prints one JSON line (port, set-up stage times).  After that
it obeys one-word commands on stdin, each answered with one JSON line:

* ``epoch`` -- apply the next rush-hour delta through
  ``RetrieveService.advance_epoch`` and report its wall time;
* ``stats`` -- engine, service and planner counters so far;
* ``quit`` -- drain, report peak RSS (and the spans of a traced run),
  exit.

End of input is a ``quit``: the child never outlives its generator.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import sys
import time

from repro.serve.service import RetrieveService, ServeConfig
from repro.shard.coordinator import ShardCoordinator

from benchmarks.e2e import setups, shims
from benchmarks.e2e.scenario import Seeds, city_config, peak_rss_mb
from benchmarks.e2e.tracing import Tracer


def _reply(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def _planner_counters(server) -> dict:
    """Warm/cold frame-delta lookups, summed over shard planners."""
    planners = (
        list(server.shard_planners.values())
        if isinstance(server, ShardCoordinator)
        else [server.planner]
    )
    return {
        "warm": sum(p.counters.warm for p in planners),
        "cold": sum(p.counters.cold for p in planners),
    }


def _index_counters(server) -> dict:
    """Patch-vs-rebuild choices of every dynamic index behind ``server``."""
    if not isinstance(server, ShardCoordinator):
        return {"patches": 0, "rebuilds": 0}
    sharded = server.sharded
    indexes = [sharded.source.dynamic_index.index] + [
        shard_slice.db.dynamic_index.index for shard_slice in sharded.slices
    ]
    return {
        "patches": sum(i.patches for i in indexes),
        "rebuilds": sum(i.rebuilds for i in indexes),
    }


async def _stdin_lines() -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    await asyncio.get_running_loop().connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    return reader


async def serve(args: argparse.Namespace) -> None:
    seeds = Seeds.derive(args.seed)
    config = city_config(smoke=args.smoke)
    timings: dict = {}
    if args.workload == "serve_tram":
        server, next_delta = setups.tram_server(config, timings), None
    else:
        server, next_delta = setups.churn_server(config, seeds, timings)
    service = RetrieveService(server, ServeConfig())
    tracer = Tracer(enabled=bool(args.trace))
    if tracer.enabled:
        shims.install_service(tracer, service)
    await service.start()
    commands = await _stdin_lines()
    primed = _index_counters(server)
    _reply(
        {
            "port": service.port,
            "records": server.database.record_count,
            "epoch": server.database.current_epoch,
            "setup": timings,
        }
    )
    applied = 0
    while True:
        command = (await commands.readline()).decode().strip()
        if command == "epoch":
            delta = next_delta(server.database.current_epoch)
            # The operation root of an epoch; the sync server call and
            # the awaited broadcast attach beneath it.
            root = tracer.open(
                "serve.service", "advance_epoch", trace=("epoch", applied)
            )
            tracer.async_parent = root
            started = time.perf_counter()
            frame = await service.advance_epoch(delta)
            apply_ms = (time.perf_counter() - started) * 1e3
            tracer.async_parent = None
            tracer.close(root)
            applied += 1
            _reply({"epoch": frame.epoch, "apply_ms": apply_ms})
        elif command == "stats":
            engine = dataclasses.asdict(service.engine.stats)
            engine["clients"] = len(engine["clients"])
            _reply(
                {
                    "engine": engine,
                    "service": dataclasses.asdict(service.stats),
                    "planner": _planner_counters(server),
                }
            )
        elif command in ("quit", ""):
            break
        else:
            _reply({"error": f"unknown command {command!r}"})
    # Let the generator's closed connections be noticed, so the drain
    # below has no live handler to cancel.
    for _ in range(100):
        if not service.connection_count:
            break
        await asyncio.sleep(0.01)
    await asyncio.sleep(0.05)  # ... and their sockets finish closing
    await service.shutdown()
    counters = _index_counters(server)
    _reply(
        {
            "peak_rss_mb": peak_rss_mb(),
            "index": {k: counters[k] - primed[k] for k in counters},
            "spans": tracer.records(),
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", required=True, choices=("serve_tram", "serve_churn")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--cpu", type=int, default=None, help="pin to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
