"""Concurrency semantics of the serving layer.

What must hold when many connections share one event loop and one
in-process server:

* per-client state (exclude frontiers, shipped bases, planner memos)
  stays isolated under interleaved execution;
* a slow reader exerts backpressure -- the send queue never grows past
  its bound, the read loop stalls instead of buffering unboundedly,
  and everything still completes once the peer starts reading;
* disconnecting mid-stream releases the client's LRU slot on the
  server;
* the connection limit rejects with SERVER_FULL without consuming a
  slot, and a freed slot is reusable;
* shutdown flushes already-queued responses and ends streams cleanly;
* pipelined responses correlate FIFO with their requests.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import RemoteServeError, ServeError
from repro.geometry.box import Box
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.serve import wire
from repro.serve.client import ServeClient
from repro.serve.framing import MessageTag, encode_frame, read_frame
from repro.serve.service import ServeConfig
from repro.server.database import ObjectDatabase
from repro.server.server import Server
from repro.store.uids import EMPTY_UIDS, UidSet

from tests.serve.conftest import run, serving
from tests.serve.test_parity import digest, frame_request, tour_frames

FULL_WINDOW = RegionRequest(Box((0.0, 0.0), (1000.0, 1000.0)), 0.0, 1.0)


def full_request(client_id: int, t: float = 0.0) -> RetrieveRequest:
    return RetrieveRequest(
        timestamp=t, client_id=client_id, regions=(FULL_WINDOW,)
    )


class TestClientIsolation:
    def test_interleaved_clients_keep_isolated_state(self, tiny_city):
        """Four clients run distinct tours concurrently (gathered per
        round, so requests genuinely interleave on the loop); each must
        see exactly what a lone in-process replay of its own tour sees,
        planner memos included."""
        client_ids = [31, 32, 33, 34]
        tours = {
            cid: tour_frames(steps=6, seed=cid) for cid in client_ids
        }
        packed_city = ObjectDatabase.from_objects(tiny_city.objects)

        mirror = Server(packed_city, plan_deltas=True)
        expected = {}
        for cid in client_ids:
            sent = EMPTY_UIDS
            frames_digests = []
            for t, frame in enumerate(tours[cid]):
                response = mirror.execute_batch(
                    frame_request(cid, t, frame, sent)
                )
                sent = sent.union(UidSet.from_tuples(response.batch.uids))
                frames_digests.append(digest(response))
            expected[cid] = frames_digests

        async def scenario():
            async with serving(Server(packed_city, plan_deltas=True)) as service:
                clients = {
                    cid: await ServeClient.connect(
                        "127.0.0.1", service.port, client_id=cid
                    )
                    for cid in client_ids
                }
                sent = {cid: EMPTY_UIDS for cid in client_ids}
                got = {cid: [] for cid in client_ids}
                try:
                    for t in range(6):
                        responses = await asyncio.gather(
                            *(
                                clients[cid].retrieve(
                                    frame_request(
                                        cid, t, tours[cid][t], sent[cid]
                                    )
                                )
                                for cid in client_ids
                            )
                        )
                        for cid, response in zip(client_ids, responses):
                            sent[cid] = sent[cid].union(
                                UidSet.from_tuples(response.batch.uids)
                            )
                            got[cid].append(digest(response))
                finally:
                    for client in clients.values():
                        await client.close()
                return got

        assert run(scenario()) == expected


class TestBackpressure:
    def test_slow_reader_bounds_server_memory(self, tiny_serve_server):
        """200 pipelined full-window requests (~70 KiB responses, ~14 MiB
        total) against a non-reading peer: the send queue must stay at
        its bound, the read loop must stall well short of the total, and
        the tour must complete once the peer drains."""
        total = 200
        config = ServeConfig(
            send_queue_frames=4, write_buffer_bytes=64 * 1024
        )

        async def scenario():
            async with serving(tiny_serve_server, config) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                request_frame = encode_frame(
                    MessageTag.REQUEST,
                    wire.encode_request(full_request(41)),
                )
                writer.write(request_frame * total)
                await writer.drain()
                # Let the pipeline run until it wedges on the dead queue.
                stalled_at = -1
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    now = service.engine.stats.requests
                    if now == stalled_at:
                        break
                    stalled_at = now
                assert 0 < stalled_at < total, (
                    f"read loop should stall partway, processed {stalled_at}"
                )
                assert (
                    service.stats.queue_high_water
                    <= config.send_queue_frames
                )
                # Drain: every response arrives once the peer reads.
                received = 0
                while received < total:
                    frame = await read_frame(reader)
                    assert frame is not None
                    assert frame[0] == MessageTag.RESPONSE
                    received += 1
                assert service.engine.stats.requests == total
                writer.close()

        run(scenario())


class TestConnectionLifecycle:
    def test_disconnect_frees_the_client_slot(self, tiny_serve_server):
        async def scenario():
            async with serving(tiny_serve_server) as service:
                client = await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=51
                )
                response = await client.retrieve(full_request(51))
                assert response.record_count > 0
                assert tiny_serve_server.client_count == 1
                await client.close()
                for _ in range(100):
                    if tiny_serve_server.client_count == 0:
                        break
                    await asyncio.sleep(0.02)
                assert tiny_serve_server.client_count == 0
                assert service.connection_count == 0

        run(scenario())

    def test_every_client_id_on_a_connection_is_released(
        self, tiny_serve_server
    ):
        """One connection multiplexing several client ids frees all of
        them on close."""

        async def scenario():
            async with serving(tiny_serve_server) as service:
                client = await ServeClient.connect("127.0.0.1", service.port)
                for cid in (61, 62, 63):
                    await client.retrieve(full_request(cid))
                assert tiny_serve_server.client_count == 3
                await client.close()
                for _ in range(100):
                    if tiny_serve_server.client_count == 0:
                        break
                    await asyncio.sleep(0.02)
                assert tiny_serve_server.client_count == 0

        run(scenario())

    def test_connection_limit_rejects_and_recovers(self, tiny_serve_server):
        config = ServeConfig(max_connections=2)

        async def scenario():
            async with serving(tiny_serve_server, config) as service:
                first = await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=71
                )
                second = await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=72
                )
                await first.ping()
                await second.ping()
                third = await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=73
                )
                with pytest.raises(RemoteServeError) as excinfo:
                    await third.retrieve(full_request(73))
                assert excinfo.value.code == wire.ErrorCode.SERVER_FULL
                await third.close()
                assert service.stats.connections_rejected == 1
                # The limited pair is unharmed and a freed slot reopens.
                assert (await first.retrieve(full_request(71))).record_count > 0
                await second.close()
                for _ in range(100):
                    if service.connection_count < 2:
                        break
                    await asyncio.sleep(0.02)
                replacement = await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=74
                )
                await replacement.ping()
                await replacement.close()
                await first.close()

        run(scenario())


class TestShutdown:
    def test_shutdown_flushes_queued_responses(self, tiny_serve_server):
        """Responses already queued when shutdown begins still reach the
        peer, every delivered frame is well-formed, and the stream ends
        with a clean EOF -- no mid-frame cuts."""

        async def scenario():
            service = None
            async with serving(tiny_serve_server) as svc:
                service = svc
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                request_frame = encode_frame(
                    MessageTag.REQUEST,
                    wire.encode_request(full_request(81)),
                )
                writer.write(request_frame * 20)
                await writer.drain()
                await asyncio.sleep(0.05)
            # serving() has now shut the service down.
            received = 0
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                assert frame[0] == MessageTag.RESPONSE
                wire.decode_response(frame[1])
                received += 1
            assert received >= 1
            writer.close()

        run(scenario())

    def test_client_calls_fail_typed_after_shutdown(self, tiny_serve_server):
        async def scenario():
            async with serving(tiny_serve_server) as service:
                client = await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=82
                )
                await client.ping()
            with pytest.raises(ServeError):
                await client.retrieve(full_request(82))
            await client.close()

        run(scenario())


class TestPipelining:
    def test_responses_correlate_fifo(self, tiny_serve_server):
        """Concurrent retrieves on one connection each get *their*
        response: the echoed request identifies the match."""

        async def scenario():
            async with serving(tiny_serve_server) as service:
                async with await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=91
                ) as client:
                    requests = [
                        full_request(91, t=float(t)) for t in range(12)
                    ]
                    responses = await asyncio.gather(
                        *(client.retrieve(r) for r in requests)
                    )
                    for request, response in zip(requests, responses):
                        assert response.request == request

        run(scenario())

    def test_pings_interleave_with_retrieves(self, tiny_serve_server):
        async def scenario():
            async with serving(tiny_serve_server) as service:
                async with await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=92
                ) as client:
                    results = await asyncio.gather(
                        client.retrieve(full_request(92, t=0.0)),
                        client.ping(),
                        client.retrieve(full_request(92, t=1.0)),
                        client.ping(),
                    )
                    assert results[0].request.timestamp == 0.0
                    assert results[2].request.timestamp == 1.0

        run(scenario())
