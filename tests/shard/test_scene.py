"""Epoch-versioned sharding: lockstep stepping and exact parity.

Two contracts:

* **Parity** -- at every epoch and every shard count, the scattered
  coordinator answers bit-identically (same uids, same base meshes,
  same epoch stamp) to a monolithic server stepped through the same
  deltas; and each shard's incrementally patched slice store equals the
  global view restricted to its members.
* **Cache scoping** -- a client evicted from the coordinator's
  top-level LRU (or explicitly reset) loses its memos in *every*
  shard-level planner, including shards none of the surviving clients
  ever query (the leak the ``_client_evicted`` hook closes); epoch
  advances drop shard-planner memos only in shards the delta touched.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ShardError, WorkloadError
from repro.geometry.box import Box
from repro.geometry.grid import Grid
from repro.net.messages import LATEST_EPOCH, RegionRequest, RetrieveRequest
from repro.server.scene import DEFAULT_RETAINED_EPOCHS, SceneDatabase
from repro.server.server import Server
from repro.shard.coordinator import ShardCoordinator
from repro.shard.mapping import ShardMap
from repro.shard.scene import ShardedSceneDatabase
from repro.store.scene import SceneDelta
from repro.store.uids import EMPTY_UIDS
from repro.workloads.dynamics import (
    construction_site_deltas,
    rush_hour_deltas,
)

WINDOW = Box((0.0, 0.0), (1000.0, 1000.0))

QUERIES = [
    (WINDOW, 0.0, 1.0),
    (Box((100.0, 100.0), (450.0, 450.0)), 0.2, 1.0),
    (Box((500.0, 200.0), (900.0, 800.0)), 0.0, 0.6),
]


def scene_copy(shard_city) -> SceneDatabase:
    db = SceneDatabase.from_objects(shard_city.objects)
    assert isinstance(db, SceneDatabase)
    return db


def sharded_pair(shard_city, shards: int):
    source = scene_copy(shard_city)
    shard_map = ShardMap.build(
        [obj.footprint for obj in source.objects], shards
    )
    return source, ShardedSceneDatabase(source, shard_map)


def request(client_id: int, epoch: int = LATEST_EPOCH) -> RetrieveRequest:
    return RetrieveRequest(
        timestamp=0.0,
        client_id=client_id,
        regions=tuple(RegionRequest(r, lo, hi) for r, lo, hi in QUERIES),
        exclude_uids=EMPTY_UIDS,
        epoch=epoch,
    )


def assert_same_response(got, want) -> None:
    assert got.epoch == want.epoch
    assert np.array_equal(got.batch.uids.packed, want.batch.uids.packed)
    assert got.filtered_out == want.filtered_out
    assert [p.object_id for p in got.base_meshes] == [
        p.object_id for p in want.base_meshes
    ]


def delta_schedule(mono_db, sharded_db, city):
    """Six epochs mixing commutes and re-meshes, shared by both sides."""
    ids = np.unique(city.store.object_ids)
    moves = rush_hour_deltas(
        ids[:6], amplitude=35.0, seed=11, epochs=None
    )
    remesh = construction_site_deltas(
        (mono_db, sharded_db), ids[-3:], levels=2, seed=12
    )
    deltas = []
    for k in range(6):
        deltas.append(moves(k) if k % 2 == 0 else remesh(k // 2))
    return deltas


@pytest.mark.parametrize("shards", [None, 3], ids=["monolithic", "sharded"])
def test_epoch_advance_drops_the_block_memo(shard_city, shards):
    """The value-keyed block-row memo is stale once geometry moves."""
    db = scene_copy(shard_city) if shards is None else sharded_pair(shard_city, shards)[1]
    ids = np.unique(shard_city.store.object_ids)
    moved = shard_city.get_object(int(ids[0])).footprint
    cell = Grid(WINDOW, (10, 10)).cell_of_point(moved.center)

    def rows_uids(rows):
        return db.store.packed_uids[rows]

    before = rows_uids(db.block_rows_fn(Grid(WINDOW, (10, 10)))(cell, 0.0))
    assert before.size
    db.advance_epoch(rush_hour_deltas(ids[:1], amplitude=400.0, seed=1)(0))
    grid = Grid(WINDOW, (10, 10))  # an equal grid: same memo key as before
    after = rows_uids(db.block_rows_fn(grid)(cell, 0.0))
    fresh = rows_uids(db.query_region_rows(grid.cell_box(cell), 0.0, 1.0).rows)
    assert np.array_equal(after, fresh)
    assert not np.array_equal(after, before)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_lockstep_parity_at_every_epoch(shard_city, shards):
    mono_db = scene_copy(shard_city)
    mono = Server(mono_db)
    source, sharded = sharded_pair(shard_city, shards)
    coord = ShardCoordinator(sharded)
    assert_same_response(coord.execute_batch(request(1)), mono.execute_batch(request(1)))
    for epoch, delta in enumerate(
        delta_schedule(mono_db, sharded, shard_city), start=1
    ):
        mono.advance_epoch(delta)
        coord.advance_epoch(delta)
        assert sharded.current_epoch == epoch == mono_db.current_epoch
        # Fresh client ids per epoch so base shipping stays comparable.
        client = 10 + epoch
        assert_same_response(
            coord.execute_batch(request(client)),
            mono.execute_batch(request(client)),
        )
        # Each slice's patched store is the global view restricted to
        # its members -- and equals its own from-scratch replay.
        global_uids = source.store.packed_uids
        seen = 0
        for shard_slice in sharded.slices:
            slice_db = shard_slice.db
            assert isinstance(slice_db, SceneDatabase)
            assert (
                slice_db.scene.at_epoch(epoch).data.tobytes()
                == slice_db.scene.rebuilt_at(epoch).data.tobytes()
            )
            members = sharded.member_ids(shard_slice.shard)
            mask = np.isin(source.store.object_ids, members)
            assert np.array_equal(
                slice_db.store.packed_uids, global_uids[mask]
            )
            seen += int(mask.sum())
        assert seen == global_uids.size
    # As-of-epoch answering agrees across the scatter boundary too.
    for epoch in source.pinned_epochs:
        assert_same_response(
            coord.execute_batch(request(99, epoch=epoch)),
            mono.execute_batch(request(99, epoch=epoch)),
        )


def test_stepped_epoch_views_are_freed(shard_city):
    """Neither the global store nor any slice keeps an evicted epoch.

    The coordinator plans (shard planners hold memos) and queries at
    every epoch, so a view surviving here would be held by a memo, a
    uid step or a pin -- not just by the store's own list.
    """
    source, sharded = sharded_pair(shard_city, 3)
    coord = ShardCoordinator(sharded, plan_deltas=True)
    moves = rush_hour_deltas(
        np.unique(shard_city.store.object_ids)[:6],
        amplitude=35.0,
        seed=11,
        epochs=None,
    )
    coord.advance_epoch(moves(0))
    coord.execute_batch(request(1))
    views = [weakref.ref(sharded.store_at(1).data)] + [
        weakref.ref(shard_slice.db.store_at(1).data)
        for shard_slice in sharded.slices
    ]
    for k in range(1, DEFAULT_RETAINED_EPOCHS + 2):
        coord.advance_epoch(moves(k))
        coord.execute_batch(request(1))
    gc.collect()
    assert [view() is None for view in views] == [True] * len(views)
    with pytest.raises(WorkloadError, match="no longer retained"):
        sharded.store_at(1)
    # A slice answers its current epoch only; history is the source's.
    for shard_slice in sharded.slices:
        assert shard_slice.db.pinned_epochs == (sharded.current_epoch,)
    assert len(source.pinned_epochs) == DEFAULT_RETAINED_EPOCHS


def test_sharded_scene_refuses_new_objects(shard_city, small_decomposition):
    _, sharded = sharded_pair(shard_city, 2)
    with pytest.raises(ShardError):
        sharded.register_epoch_object(9999, small_decomposition)
    rows = shard_city.store.data[:0]
    fresh = shard_city.store.data[
        shard_city.store.object_ids == shard_city.store.object_ids[0]
    ].copy()
    fresh["object_id"] = 9999
    with pytest.raises(ShardError):
        sharded.advance_epoch(SceneDelta(add_rows=fresh))
    assert rows.size == 0  # silence unused warnings


class TestShardPlannerScoping:
    def shard_window(self, sharded, shard: int) -> Box:
        """A query window planning onto ``shard`` alone."""
        data = sharded.source.store.data
        for oid in sharded.member_ids(shard):
            mask = data["object_id"] == oid
            low = data["sup_low"][mask].min(axis=0)[:2] - 2.0
            high = data["sup_high"][mask].max(axis=0)[:2] + 2.0
            window = Box(low, high)
            if sharded.plan(window, 0.0, 1.0).tolist() == [shard]:
                return window
        pytest.skip(f"no window isolating shard {shard} in this tiling")

    def test_eviction_reaches_unqueried_shards(self, shard_city):
        _, sharded = sharded_pair(shard_city, 2)
        coord = ShardCoordinator(sharded, max_clients=2, plan_deltas=True)
        w0 = self.shard_window(sharded, 0)
        w1 = self.shard_window(sharded, 1)
        coord.retrieve(1, 0.0, [RegionRequest(w0, 0.0, 1.0)])
        coord.retrieve(2, 0.0, [RegionRequest(w1, 0.0, 1.0)])
        assert coord.shard_planners[0].client_count == 1
        assert coord.shard_planners[1].client_count == 1
        # Client 3 queries shard 1 only; the top-level LRU evicts
        # client 1, whose memo lives in shard 0 -- a shard client 3
        # never touches.  The eviction hook must reach it anyway.
        coord.retrieve(3, 0.0, [RegionRequest(w1, 0.0, 1.0)])
        assert coord.client_count == 2
        assert coord.shard_planners[0].client_count == 0
        assert coord.shard_planners[1].client_count == 2

    def test_reset_client_reaches_every_shard(self, shard_city):
        _, sharded = sharded_pair(shard_city, 2)
        coord = ShardCoordinator(sharded, plan_deltas=True)
        w0 = self.shard_window(sharded, 0)
        w1 = self.shard_window(sharded, 1)
        coord.retrieve(1, 0.0, [RegionRequest(w0, 0.0, 1.0)])
        coord.retrieve(1, 0.0, [RegionRequest(w1, 0.0, 1.0)])
        assert all(
            planner.client_count == 1
            for planner in coord.shard_planners.values()
        )
        coord.reset_client(1)
        assert all(
            planner.client_count == 0
            for planner in coord.shard_planners.values()
        )

    def test_epoch_drops_only_touched_shards_memos(self, shard_city):
        _, sharded = sharded_pair(shard_city, 2)
        coord = ShardCoordinator(sharded, plan_deltas=True)
        w0 = self.shard_window(sharded, 0)
        w1 = self.shard_window(sharded, 1)
        coord.retrieve(1, 0.0, [RegionRequest(w0, 0.0, 1.0)])
        coord.retrieve(2, 0.0, [RegionRequest(w1, 0.0, 1.0)])
        moved = int(sharded.member_ids(0)[0])
        coord.advance_epoch(
            SceneDelta(
                move_ids=np.asarray([moved], dtype=np.int64),
                move_offsets=np.asarray([[8.0, 8.0, 0.0]]),
            )
        )
        # Shard 1 never changed: its memo survives (client 2 stays
        # warm); shard 0's memo dropped iff it overlapped the move.
        warm = coord.shard_planners[1].counters.warm
        got = coord.retrieve(2, 1.0, [RegionRequest(w1, 0.0, 1.0)])
        assert coord.shard_planners[1].counters.warm == warm + 1
        reference = ShardCoordinator(sharded)
        want = reference.retrieve(2, 1.0, [RegionRequest(w1, 0.0, 1.0)])
        assert [r.uid for r in got.records] == [r.uid for r in want.records]
