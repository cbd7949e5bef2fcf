"""Run a retrieval service over a generated cityscape.

Quickstart::

    python -m repro.serve --port 9917 --objects 16 --levels 2

then, from any asyncio program::

    from repro.geometry.box import Box
    from repro.serve import ServeClient

    client = await ServeClient.connect("127.0.0.1", 9917, client_id=1)
    response = await client.retrieve_window(
        0.0, Box((100.0, 100.0), (400.0, 400.0)), w_min=0.2
    )
    print(response.record_count, response.payload_bytes)
"""

from __future__ import annotations

import argparse
import asyncio

from repro.geometry.box import Box
from repro.serve.service import RetrieveService, ServeConfig
from repro.server.server import Server
from repro.shard import ShardCoordinator, ShardedDatabase
from repro.workloads.cityscape import CityConfig, build_city

__all__ = ["main", "build_server"]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9917)
    parser.add_argument(
        "--objects", type=int, default=16, help="cityscape object count"
    )
    parser.add_argument(
        "--levels", type=int, default=2, help="wavelet decomposition levels"
    )
    parser.add_argument("--seed", type=int, default=11, help="cityscape seed")
    parser.add_argument(
        "--max-connections", type=int, default=1024,
        help="concurrent connection cap",
    )
    parser.add_argument(
        "--plan-deltas", action="store_true",
        help="enable per-client frame-delta planning",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="spatial shard count; N > 1 serves scatter-gather over a "
        "sharded database (responses are wire-identical)",
    )
    return parser


def build_server(args: argparse.Namespace) -> Server:
    """The configured query front end: plain server or shard coordinator."""
    city = build_city(
        CityConfig(
            space=Box((0.0, 0.0), (1000.0, 1000.0)),
            object_count=args.objects,
            levels=args.levels,
            seed=args.seed,
            min_size_frac=0.02,
            max_size_frac=0.05,
        )
    )
    if args.shards > 1:
        sharded = ShardedDatabase.from_database(city, args.shards)
        return ShardCoordinator(sharded, plan_deltas=args.plan_deltas)
    return Server(city, plan_deltas=args.plan_deltas)


async def _serve(args: argparse.Namespace) -> None:  # pragma: no cover
    server = build_server(args)
    config = ServeConfig(
        host=args.host, port=args.port, max_connections=args.max_connections
    )
    service = RetrieveService(server, config)
    await service.start()
    print(
        f"serving {server.database.record_count} coefficient records on "
        f"{args.host}:{service.port} "
        f"(plan_deltas={args.plan_deltas}, shards={args.shards}, "
        f"ctrl-c to stop)"
    )
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await service.shutdown()


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
