"""Spatial sharding with scatter-gather retrieval.

Splits the cityscape into spatial shards -- each with its own
coefficient-store slice and packed index -- and answers retrieve
requests coordinator-style: plan the ``(box, w-band)`` query against
the shard map, scatter one batched task to each intersecting shard
(in process, one shard after another), and gather with the server's
canonical uid merge so responses stay bit-identical to the
single-index path.  See DESIGN.md section 13.
"""

from __future__ import annotations

from repro.shard.coordinator import (
    FleetShipping,
    FleetTickResult,
    ShardCoordinator,
)
from repro.shard.database import FlatGather, ShardedDatabase
from repro.shard.mapping import TILINGS, ShardMap
from repro.shard.scene import ShardedSceneDatabase
from repro.shard.parallel import (
    SerialShardExecutor,
    ShardBatchResult,
    ShardCornerTask,
    ShardSlice,
)

__all__ = [
    "ShardMap",
    "TILINGS",
    "ShardedDatabase",
    "ShardedSceneDatabase",
    "ShardCoordinator",
    "ShardSlice",
    "ShardCornerTask",
    "ShardBatchResult",
    "SerialShardExecutor",
    "FlatGather",
    "FleetShipping",
    "FleetTickResult",
]
