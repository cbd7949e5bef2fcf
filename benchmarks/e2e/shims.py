"""Which public ``repro`` callables a traced run wraps, layer by layer.

Layer names are the ``repro`` module that owns the callable.  Class-
and module-level shims are process-wide, so every installer here is
only called by a traced run and undone by ``Tracer.restore``.
"""

from __future__ import annotations

import repro.buffering.manager as manager_mod
import repro.serve.client as client_mod
import repro.serve.engine as engine_mod
import repro.shard.parallel as parallel_mod
from repro.buffering.manager import MotionAwareBufferManager
from repro.index.dynamic import DynamicAccessMethod
from repro.index.packed import PackedIndex
from repro.core.sessions import MotionAwareSessionPolicy
from repro.motion.predictor import KalmanMotionPredictor
from repro.serve.service import RetrieveService
from repro.server.planner import FrontierPlanner
from repro.server.scene import SceneDatabase
from repro.server.server import Server
from repro.shard.coordinator import ShardCoordinator
from repro.shard.database import ShardedDatabase
from repro.shard.scene import ShardedSceneDatabase
from repro.store.scene import SceneStore

from benchmarks.e2e.tracing import Tracer


def _index_and_shards(tracer: Tracer) -> None:
    """The layers every workload reaches: packed index, shard fan-out."""
    for attr in ("query_rows", "candidates", "query_slots_many"):
        tracer.wrap(PackedIndex, attr, "index.packed", "query")
    tracer.wrap(
        ShardedDatabase,
        "plan_corners",
        "shard.database",
        "plan",
        counts=lambda hits, args: {
            "shards_consulted": int(hits.sum()),
            "queries": int(hits.shape[0]),
        },
    )
    for attr in ("plan", "plan_many"):
        tracer.wrap(ShardedDatabase, attr, "shard.database", "plan")
    for attr in ("assemble", "assemble_flat", "gather_rows"):
        tracer.wrap(ShardedDatabase, attr, "shard.database", "assemble")
    # The in-process executor answers each task through this module name.
    tracer.wrap(parallel_mod, "corners_query_batch", "index.packed", "query")


def _server(tracer: Tracer, server: Server) -> None:
    tracer.wrap(
        server,
        "fetch_batch",
        "server.server",
        "fetch",
        counts=lambda results, args: {
            "rows_fetched": sum(int(r.rows.size) for r in results)
        },
    )
    tracer.wrap(
        server,
        "gather_batch",
        "server.server",
        "gather",
        counts=lambda response, args: {"rows_shipped": response.record_count},
    )
    tracer.wrap(server, "quote_block", "server.server", "quote")
    tracer.wrap(FrontierPlanner, "query_rows", "server.planner", "query")
    if isinstance(server.database, ShardedDatabase):
        tracer.wrap(server.database.executor, "run", "shard.parallel", "run")


def install_service(tracer: Tracer, service: RetrieveService) -> None:
    """Child process: the serving pipeline and everything beneath it."""
    engine = service.engine
    tracer.wrap(engine, "handle", "serve.engine", "handle", root=True)
    tracer.wrap(
        engine,
        "decode",
        "serve.engine",
        "handle",
        # The request names the trace its whole handle span belongs to.
        counts=lambda request, args: tracer.set_trace(
            (request.client_id, int(request.timestamp))
        )
        or {},
    )
    for stage in ("plan", "execute", "encode"):
        tracer.wrap(engine, stage, "serve.engine", "handle")
    tracer.wrap(engine_mod, "decode_request", "serve.wire", "decode")
    tracer.wrap(
        engine_mod,
        "encode_response",
        "serve.wire",
        "encode",
        counts=lambda payload, args: {"response_bytes": len(payload)},
    )
    tracer.wrap(engine_mod, "encode_frame", "serve.framing", "encode")
    _server(tracer, engine.server)
    _index_and_shards(tracer)
    # The epoch path: service -> server -> (sharded) scene -> store, index.
    tracer.wrap(service, "broadcast_invalidation", "serve.service", "broadcast")
    tracer.wrap(engine.server, "advance_epoch", "server.server", "advance_epoch")
    tracer.wrap(FrontierPlanner, "apply_epoch", "server.planner", "apply_epoch")
    tracer.wrap(ShardedSceneDatabase, "advance_epoch", "shard.scene", "advance")
    tracer.wrap(SceneDatabase, "advance_epoch", "server.scene", "advance")
    tracer.wrap(SceneStore, "apply", "store.scene", "apply")
    tracer.wrap(DynamicAccessMethod, "apply", "index.dynamic", "apply")


def install_generator(tracer: Tracer) -> None:
    """Generator process: the client codec around each socket frame."""
    tracer.wrap(
        client_mod,
        "encode_request",
        "serve.client",
        "encode",
        counts=lambda payload, args: {"request_bytes": len(payload)},
    )
    tracer.wrap(
        client_mod,
        "decode_response",
        "serve.client",
        "decode",
        counts=lambda response, args: tracer.set_trace(
            (response.request.client_id, int(response.request.timestamp))
        )
        or {},
        root=True,
    )


def install_tour(tracer: Tracer, server: Server) -> None:
    """One process: the client-side tick and the server calls it makes."""
    tracer.wrap(MotionAwareBufferManager, "tick", "buffering.manager", "tick")
    tracer.wrap(manager_mod, "visit_probabilities", "motion.predictor", "visit_prob")
    # Managers bind their allocator from this module name when built.
    tracer.wrap(manager_mod, "allocate_blocks", "buffering.cost", "allocate")
    tracer.wrap(KalmanMotionPredictor, "observe", "motion.kalman", "observe")
    tracer.wrap(
        KalmanMotionPredictor, "forecast_positions", "motion.predictor", "forecast"
    )
    tracer.wrap(MotionAwareSessionPolicy, "plan", "core.sessions", "plan")
    tracer.wrap(MotionAwareSessionPolicy, "commit", "core.sessions", "commit")
    _server(tracer, server)
    _index_and_shards(tracer)


def install_fleet(tracer: Tracer, sharded: ShardedDatabase) -> None:
    """One process: the batch-first path beneath the coordinator."""
    _index_and_shards(tracer)
    tracer.wrap(sharded.executor, "run", "shard.parallel", "run")


def install_coordinator(tracer: Tracer, coordinator: ShardCoordinator) -> None:
    """Per pass: ``fleet_flat`` builds a fresh coordinator each time."""
    tracer.wrap(coordinator, "execute_fleet_tick", "shard.coordinator", "self")
