"""Live epoch push: the serving layer under a changing scene.

When the server advances a scene epoch, :meth:`RetrieveService.advance_epoch`
broadcasts one INVALIDATION frame per connection; every
:class:`~repro.serve.client.ServeClient` must drop exactly the stale
slice of its delivered-uid cache so the next ``retrieve_delta`` step
re-fetches the changed objects' data -- and nothing else.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.geometry.box import Box
from repro.net.messages import RegionRequest
from repro.serve.client import ServeClient
from repro.server.scene import SceneDatabase
from repro.server.server import Server
from repro.store.scene import SceneDelta
from repro.store.uids import unpack_uid_arrays

from tests.serve.conftest import run, serving

WINDOW = (RegionRequest(Box((0.0, 0.0), (1000.0, 1000.0)), 0.0, 1.0),)


@pytest.fixture()
def scene_server(tiny_city) -> Server:
    """A server over an epoch-capable copy of the 6-object city."""
    db = SceneDatabase.from_objects(tiny_city.objects)
    assert isinstance(db, SceneDatabase)
    return Server(db)


def move_delta(object_id: int, offset=(40.0, -25.0, 0.0)) -> SceneDelta:
    return SceneDelta(
        move_ids=np.asarray([object_id], dtype=np.int64),
        move_offsets=np.asarray([offset], dtype=np.float64),
    )


class TestInvalidationPush:
    def test_client_drops_stale_slice_mid_tour(self, scene_server):
        async def body():
            async with serving(scene_server) as service:
                async with await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=1
                ) as client:
                    first = await client.retrieve_delta(0.0, WINDOW)
                    assert first.epoch == 0
                    assert first.record_count > 0
                    cached = client.delivered_uids.packed
                    moved = int(
                        scene_server.database.store.object_ids[0]
                    )
                    frame = await service.advance_epoch(move_delta(moved))
                    assert frame.epoch == 1
                    assert moved in frame.changed_ids.tolist()
                    # The PONG queues behind the broadcast frame, so
                    # after it the push has been applied.
                    await client.ping()
                    assert client.scene_epoch == 1
                    pushed = client.drain_invalidations()
                    assert len(pushed) == 1 and pushed[0] == frame
                    # Exactly the moved object's uids left the cache.
                    stale = cached[frame.mask_uids(cached)]
                    survivors = client.delivered_uids.packed
                    assert stale.size > 0
                    assert not np.isin(stale, survivors).any()
                    assert survivors.size == cached.size - stale.size
                    # The next tour step re-fetches the stale slice only.
                    second = await client.retrieve_delta(1.0, WINDOW)
                    assert second.epoch == 1
                    refetched = np.sort(second.batch.uids.packed)
                    object_ids, _, _ = unpack_uid_arrays(refetched)
                    assert set(object_ids.tolist()) == {moved}
                    assert np.array_equal(refetched, np.sort(stale))

        run(body())

    def test_pipelined_cache_equals_numpy_reference(self, scene_server):
        # Overlapping pipelined windows, one invalidation, then another
        # pipelined round: the delivered cache is the numpy set algebra
        # of everything the responses carried.
        windows = [
            Box((0.0, 0.0), (600.0, 600.0)),
            Box((300.0, 300.0), (1000.0, 1000.0)),
            Box((0.0, 400.0), (700.0, 1000.0)),
            Box((0.0, 0.0), (1000.0, 1000.0)),
        ]

        async def round_of(client, t0):
            responses = await asyncio.gather(
                *(
                    client.retrieve_window(t0 + i, box, w_min)
                    for i, (box, w_min) in enumerate(
                        zip(windows, (0.0, 0.2, 0.05, 0.5))
                    )
                )
            )
            return np.concatenate(
                [r.batch.uids.packed for r in responses]
            )

        async def body():
            async with serving(scene_server) as service:
                async with await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=3
                ) as client:
                    expected = np.unique(await round_of(client, 0.0))
                    assert np.array_equal(
                        client.delivered_uids.packed, expected
                    )
                    moved = int(scene_server.database.store.object_ids[1])
                    frame = await service.advance_epoch(move_delta(moved))
                    await client.ping()
                    object_ids, _, _ = unpack_uid_arrays(expected)
                    stale = np.isin(object_ids, frame.changed_ids)
                    assert 0 < int(stale.sum()) < expected.size
                    expected = expected[~stale]
                    assert np.array_equal(
                        client.delivered_uids.packed, expected
                    )
                    expected = np.union1d(
                        expected, await round_of(client, 10.0)
                    )
                    assert np.array_equal(
                        client.delivered_uids.packed, expected
                    )

        run(body())

    def test_every_connection_is_notified(self, scene_server):
        async def body():
            async with serving(scene_server) as service:
                seen: list[int] = []
                async with await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=1
                ) as one, await ServeClient.connect(
                    "127.0.0.1",
                    service.port,
                    client_id=2,
                    on_invalidation=lambda f: seen.append(f.epoch),
                ) as two:
                    await one.retrieve_delta(0.0, WINDOW)
                    await two.retrieve_delta(0.0, WINDOW)
                    moved = int(
                        scene_server.database.store.object_ids[0]
                    )
                    notified = await service.broadcast_invalidation(
                        await service.advance_epoch(move_delta(moved))
                        # advance_epoch already broadcast once; this
                        # second broadcast checks idempotent delivery.
                    )
                    assert notified == 2
                    await one.ping()
                    await two.ping()
                    assert one.scene_epoch == 1
                    assert two.scene_epoch == 1
                    assert seen == [1, 1]
                    assert service.stats.invalidations_sent == 4

        run(body())

    def test_static_server_refuses_epochs(self, tiny_serve_server):
        async def body():
            async with serving(tiny_serve_server) as service:
                with pytest.raises(WorkloadError):
                    await service.advance_epoch(move_delta(0))

        run(body())

    def test_responses_stamp_the_answering_epoch(self, scene_server):
        async def body():
            async with serving(scene_server) as service:
                async with await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=7
                ) as client:
                    moved = int(
                        scene_server.database.store.object_ids[0]
                    )
                    assert (await client.retrieve_delta(0.0, WINDOW)).epoch == 0
                    await service.advance_epoch(move_delta(moved))
                    await service.advance_epoch(
                        move_delta(moved, (5.0, 5.0, 0.0))
                    )
                    response = await client.retrieve_delta(1.0, WINDOW)
                    assert response.epoch == 2

        run(body())
