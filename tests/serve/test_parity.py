"""Socket serving vs in-process execution: exact parity.

The wire protocol is a transport, not a query engine: a tour driven
through a socket must produce byte-identical response frames to the
same tour driven straight through ``Server.execute_batch`` -- same uid
sets in the same order, same payload-byte and I/O accounting, same
base-mesh shipping -- both on the cold columnar path and with the
frame-delta planner (``plan_deltas=True``) engaged on the packed index.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box import Box
from repro.net.messages import (
    RegionRequest,
    RetrieveBatchResponse,
    RetrieveRequest,
)
from repro.serve import wire
from repro.serve.client import ServeClient
from repro.server.database import ObjectDatabase
from repro.server.server import Server
from repro.store.uids import EMPTY_UIDS, UidSet

from tests.serve.conftest import run, serving


def tour_frames(steps: int = 8, seed: int = 3):
    """A moving viewer: drifting window, varying resolution band."""
    rng = np.random.default_rng(seed)
    pos = np.array([150.0, 150.0])
    frames = []
    for _ in range(steps):
        pos = pos + rng.uniform(-20.0, 40.0, 2)
        band = np.sort(rng.uniform(0.0, 1.0, 2))
        frames.append((Box(pos, pos + 300.0), float(band[0]), float(band[1])))
    return frames


def frame_request(
    client_id: int, t: int, frame, exclude: UidSet
) -> RetrieveRequest:
    window, w_min, w_max = frame
    return RetrieveRequest(
        timestamp=float(t),
        client_id=client_id,
        regions=(RegionRequest(window, w_min, w_max),),
        exclude_uids=exclude,
    )


def digest(response: RetrieveBatchResponse) -> dict:
    """Every observable a response carries, in delivery order."""
    return {
        "uids": list(response.batch.uids),
        "payload_bytes": response.payload_bytes,
        "record_count": response.record_count,
        "io_node_reads": response.io_node_reads,
        "filtered_out": response.filtered_out,
        "bases": [b.object_id for b in response.base_meshes],
        "base_bytes": [b.size_bytes for b in response.base_meshes],
    }


def drive_inprocess(server: Server, client_id: int, frames) -> list:
    """The reference: the tour straight through execute_batch."""
    responses = []
    sent = EMPTY_UIDS
    for t, frame in enumerate(frames):
        response = server.execute_batch(
            frame_request(client_id, t, frame, sent)
        )
        sent = sent.union(UidSet.from_tuples(response.batch.uids))
        responses.append(response)
    return responses


async def drive_socket(port: int, client_id: int, frames) -> list:
    """The same tour, frame by frame, over one client connection."""
    responses = []
    sent = EMPTY_UIDS
    async with await ServeClient.connect(
        "127.0.0.1", port, client_id=client_id
    ) as client:
        for t, frame in enumerate(frames):
            response = await client.retrieve(
                frame_request(client_id, t, frame, sent)
            )
            sent = sent.union(UidSet.from_tuples(response.batch.uids))
            responses.append(response)
    return responses


def assert_identical(socket_responses, inprocess_responses) -> None:
    assert len(socket_responses) == len(inprocess_responses)
    for via_socket, via_calls in zip(socket_responses, inprocess_responses):
        # Field-level first (diagnosable), then the full frame bytes.
        assert digest(via_socket) == digest(via_calls)
        assert wire.encode_response(via_socket) == wire.encode_response(
            via_calls
        )


class TestSocketParity:
    def test_cold_columnar_path(self, tiny_city):
        frames = tour_frames()
        reference = drive_inprocess(Server(tiny_city), 21, frames)
        assert sum(d["record_count"] for d in map(digest, reference)) > 0

        async def scenario():
            async with serving(Server(tiny_city)) as service:
                return await drive_socket(service.port, 21, frames)

        assert_identical(run(scenario()), reference)

    def test_delta_planner_path(self, tiny_city):
        """plan_deltas=True on both sides: the planner's warm-frame I/O
        accounting must survive the wire exactly."""
        packed_city = ObjectDatabase.from_objects(tiny_city.objects)
        frames = tour_frames(steps=10, seed=8)
        reference_server = Server(packed_city, plan_deltas=True)
        reference = drive_inprocess(reference_server, 22, frames)
        assert reference_server.planner is not None

        async def scenario():
            socket_server = Server(packed_city, plan_deltas=True)
            async with serving(socket_server) as service:
                responses = await drive_socket(service.port, 22, frames)
                assert socket_server.planner is not None
                engine = service.engine
                plan = engine.plan(frame_request(22, 0, frames[0], EMPTY_UIDS))
                assert plan.delta_planned
                return responses

        assert_identical(run(scenario()), reference)

    def test_multi_region_half_open_frames(self, tiny_city):
        """Overlapping regions with half-open band splits (the frame-
        coherent delivery pattern) stay exact over the wire."""
        frames = tour_frames(steps=5, seed=13)
        requests = []
        for t, (window, w_min, w_max) in enumerate(frames):
            low = np.asarray(window.low)
            shifted = Box(low + 50.0, low + 350.0)
            requests.append(
                RetrieveRequest(
                    timestamp=float(t),
                    client_id=23,
                    regions=(
                        RegionRequest(window, w_min, 1.0),
                        RegionRequest(shifted, 0.0, w_min, half_open=True),
                    ),
                )
            )
        reference_server = Server(tiny_city)
        reference = [reference_server.execute_batch(r) for r in requests]

        async def scenario():
            async with serving(Server(tiny_city)) as service:
                out = []
                async with await ServeClient.connect(
                    "127.0.0.1", service.port, client_id=23
                ) as client:
                    for request in requests:
                        out.append(await client.retrieve(request))
                return out

        assert_identical(run(scenario()), reference)

    def test_engine_accounting_matches_the_tour(self, tiny_city):
        frames = tour_frames(steps=6, seed=4)

        async def scenario():
            async with serving(Server(tiny_city)) as service:
                responses = await drive_socket(service.port, 24, frames)
                stats = service.engine.stats
                assert stats.requests == len(frames)
                assert stats.clients == {24}
                assert stats.rows_shipped == sum(
                    r.record_count for r in responses
                )
                assert stats.bytes_out == sum(
                    len(wire.to_bytes(r)) for r in responses
                )
                assert service.stats.frames_sent == len(frames)
                return responses

        run(scenario())
