"""Epoch threading through the query server.

Covers the server-side halves of the dynamic-scene contract: as-of-epoch
answering from retained views, epoch resolution of requests, and the
scoped cache invalidation of :meth:`Server.advance_epoch` -- planner
memos and per-client shipped-base state drop *only* for objects whose
footprint changed.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ProtocolError, StoreError, WorkloadError
from repro.geometry.box import Box
from repro.net.messages import LATEST_EPOCH, RegionRequest, RetrieveRequest
from repro.server.scene import DEFAULT_RETAINED_EPOCHS, SceneDatabase
from repro.server.server import Server
from repro.store.scene import SceneDelta
from repro.store.uids import EMPTY_UIDS

WINDOW = Box((0.0, 0.0), (1000.0, 1000.0))


def scene_db(tiny_city, **kwargs) -> SceneDatabase:
    db = SceneDatabase(**kwargs)
    for obj in tiny_city.objects:
        db.add_object(obj.object_id, obj.decomposition)
    return db


def full_request(client_id=1, epoch=LATEST_EPOCH) -> RetrieveRequest:
    return RetrieveRequest(
        timestamp=0.0,
        client_id=client_id,
        regions=(RegionRequest(WINDOW, 0.0, 1.0),),
        exclude_uids=EMPTY_UIDS,
        epoch=epoch,
    )


def move(object_id: int, offset=(60.0, -40.0, 0.0)) -> SceneDelta:
    return SceneDelta(
        move_ids=np.asarray([object_id], dtype=np.int64),
        move_offsets=np.asarray([offset], dtype=np.float64),
    )


def object_window(db, object_id: int, pad: float = 5.0) -> Box:
    data = db.store.data
    mask = data["object_id"] == object_id
    low = data["sup_low"][mask].min(axis=0)[:2] - pad
    high = data["sup_high"][mask].max(axis=0)[:2] + pad
    return Box(low, high)


class TestEpochResolution:
    def test_sealed_scene_rejects_add_object(self, tiny_city, small_decomposition):
        db = scene_db(tiny_city)
        assert not db.sealed
        Server(db).execute_batch(full_request())
        assert db.sealed
        with pytest.raises(WorkloadError):
            db.add_object(999, small_decomposition)

    def test_latest_sentinel_tracks_the_scene(self, tiny_city):
        db = scene_db(tiny_city)
        server = Server(db)
        assert server.execute_batch(full_request()).epoch == 0
        moved = int(db.store.object_ids[0])
        server.advance_epoch(move(moved))
        assert server.execute_batch(full_request()).epoch == 1

    def test_future_epoch_rejected(self, tiny_city):
        server = Server(scene_db(tiny_city))
        with pytest.raises(ProtocolError):
            server.execute_batch(full_request(epoch=3))

    def test_unretained_epoch_rejected(self, tiny_city):
        db = scene_db(tiny_city, retained_epochs=2)
        server = Server(db)
        server.execute_batch(full_request())
        moved = int(db.store.object_ids[0])
        for k in range(3):
            server.advance_epoch(move(moved, (5.0 * (-1) ** k, 0.0, 0.0)))
        assert db.pinned_epochs == (2, 3)
        with pytest.raises(WorkloadError):
            server.execute_batch(full_request(epoch=0))


class TestAsOfEpoch:
    def test_pinned_answers_are_frozen(self, tiny_city):
        db = scene_db(tiny_city)
        server = Server(db)
        before = server.execute_batch(full_request(epoch=0))
        moved = int(db.store.object_ids[0])
        server.advance_epoch(move(moved))
        replay = server.execute_batch(full_request(client_id=2, epoch=0))
        assert replay.epoch == 0
        assert np.array_equal(
            replay.batch.uids.packed, before.batch.uids.packed
        )
        assert replay.batch.store.data.tobytes() == db.store_at(0).data.tobytes()
        assert replay.io_node_reads == before.io_node_reads
        # The live answer reflects the moved geometry instead.
        live = server.execute_batch(full_request(client_id=3))
        assert live.epoch == 1
        assert live.batch.store.data.tobytes() == db.store.data.tobytes()

    def test_pinned_epoch_matches_scratch_database(self, tiny_city):
        """As-of answering equals a database built at that epoch."""
        db = scene_db(tiny_city)
        server = Server(db)
        server.execute_batch(full_request())
        moved = int(db.store.object_ids[0])
        server.advance_epoch(move(moved))
        server.advance_epoch(move(moved, (-15.0, 25.0, 0.0)))
        for epoch in (1, 2):
            got = server.execute_batch(full_request(epoch=epoch))
            want_store = db.store_at(epoch)
            assert np.array_equal(
                got.batch.uids.packed,
                np.sort(want_store.packed_uids),
            )


class TestRetention:
    """The database holds only the epochs it can still answer."""

    def test_evicted_epoch_view_is_freed(self, tiny_city):
        db = scene_db(tiny_city)
        server = Server(db, plan_deltas=True)
        moved = int(db.store.object_ids[0])
        server.advance_epoch(move(moved))
        server.execute_batch(full_request(epoch=1))
        view = weakref.ref(db.store_at(1).data)
        for k in range(DEFAULT_RETAINED_EPOCHS + 1):
            server.advance_epoch(move(moved, (3.0 * (-1) ** k, 0.0, 0.0)))
            server.execute_batch(full_request(client_id=2))
        gc.collect()
        assert view() is None
        assert db.scene.at_epoch(0) is not None  # the seed stays

    def test_released_epoch_raises_everywhere(self, tiny_city):
        db = scene_db(tiny_city, retained_epochs=2)
        server = Server(db)
        moved = int(db.store.object_ids[0])
        for k in range(4):
            server.advance_epoch(move(moved, (5.0 * (-1) ** k, 0.0, 0.0)))
        assert db.pinned_epochs == (3, 4)
        for epoch in (0, 1, 2):
            with pytest.raises(WorkloadError, match="no longer retained"):
                db.store_at(epoch)
            with pytest.raises(WorkloadError, match="no longer retained"):
                db.query_region_rows_at(epoch, WINDOW, 0.0, 1.0)
        with pytest.raises(StoreError, match="released"):
            db.scene.at_epoch(2)
        for epoch in (3, 4):
            assert db.store_at(epoch) is db.scene.at_epoch(epoch)
        with pytest.raises(WorkloadError, match="outside recorded range"):
            db.store_at(5)


class TestCacheInvalidation:
    def test_only_changed_bases_reship(self, tiny_city):
        db = scene_db(tiny_city)
        server = Server(db)
        first = server.execute_batch(full_request())
        assert len(first.base_meshes) == db.object_count
        # Everything shipped: an identical request ships no bases.
        assert server.execute_batch(full_request()).base_meshes == ()
        moved = int(db.store.object_ids[0])
        server.advance_epoch(move(moved))
        reshipped = server.execute_batch(full_request())
        assert [p.object_id for p in reshipped.base_meshes] == [moved]

    def test_planner_memos_drop_by_footprint(self, tiny_city):
        db = scene_db(tiny_city)
        server = Server(db, plan_deltas=True)
        ids = np.unique(db.store.object_ids)
        near, far = int(ids[0]), int(ids[-1])
        near_box = object_window(db, near)
        far_box = object_window(db, far)
        for _ in range(2):  # second pass warms both memos
            server.retrieve(1, 0.0, [RegionRequest(near_box, 0.0, 1.0)])
            server.retrieve(2, 0.0, [RegionRequest(far_box, 0.0, 1.0)])
        planner = server.planner
        assert planner.client_count == 2
        warm_before = planner.counters.warm
        assert warm_before >= 2
        footprint = server.advance_epoch(move(near, (10.0, 10.0, 0.0)))
        assert footprint.changed_ids.tolist() == [near]
        # Client 1 hovered over the moved object: memo dropped.  Client
        # 2's memo misses the dirty region and survives, re-based.
        assert planner.client_count == 1
        cold_before = planner.counters.cold
        r2 = server.retrieve(2, 1.0, [RegionRequest(far_box, 0.0, 1.0)])
        assert planner.counters.warm == warm_before + 1
        r1 = server.retrieve(1, 1.0, [RegionRequest(near_box, 0.0, 1.0)])
        assert planner.counters.cold == cold_before + 1
        # Both answers equal the non-planning reference server.
        reference = Server(db)
        for client, box, got in ((2, far_box, r2), (1, near_box, r1)):
            want = reference.retrieve(
                client, 1.0, [RegionRequest(box, 0.0, 1.0)]
            )
            assert [r.uid for r in got.records] == [
                r.uid for r in want.records
            ]

    def test_reset_and_lru_eviction_drop_planner_memos(self, tiny_city):
        db = scene_db(tiny_city)
        server = Server(db, max_clients=2, plan_deltas=True)
        region = [RegionRequest(WINDOW, 0.0, 1.0)]
        server.retrieve(1, 0.0, region)
        server.retrieve(2, 0.0, region)
        planner = server.planner
        assert planner.client_count == 2
        server.reset_client(1)
        assert planner.client_count == 1
        server.retrieve(1, 0.0, region)
        assert planner.client_count == 2
        # Client 3 overflows the shipped-bases LRU: client 2 (least
        # recently served) must lose its memo along with its slot.
        server.retrieve(3, 0.0, region)
        assert server.client_count == 2
        assert planner.client_count == 2  # clients 1 and 3
        warm = planner.counters.warm
        server.retrieve(1, 0.0, region)
        assert planner.counters.warm == warm + 1  # survivor stayed warm
        cold = planner.counters.cold
        server.retrieve(2, 0.0, region)
        assert planner.counters.cold == cold + 1  # evictee refreshes cold

    def test_static_database_refuses_epochs(self, tiny_city):
        server = Server(tiny_city)
        with pytest.raises(WorkloadError):
            server.advance_epoch(move(0))
