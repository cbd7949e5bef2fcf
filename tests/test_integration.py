"""End-to-end integration tests across the whole stack.

These exercise the complete pipeline -- procedural city -> wavelet
decomposition -> index -> server -> link -> Algorithm 1 client ->
progressive meshes -- and assert the system-level guarantees the paper
claims, not just per-module behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.retrieval import ContinuousRetrievalClient
from repro.core.resolution import LinearMapper
from repro.geometry.box import Box
from repro.net.link import WirelessLink
from repro.net.simclock import SimClock
from repro.server.server import Server
from repro.wavelets.coefficients import CoefficientKey


class TestVisualCompleteness:
    """What the client renders must equal what the server would render."""

    def test_single_frame_resolution_contract(self, tiny_server):
        """After one query at speed s, the client can render every object
        fully inside the frame exactly as the server's w >= s
        reconstruction."""
        tiny_server.reset_client(100)
        client = ContinuousRetrievalClient(
            tiny_server,
            WirelessLink(),
            SimClock(),
            client_id=100,
            track_meshes=True,
        )
        speed = 0.4
        frame = Box((0, 0), (1000, 1000))  # covers every object
        client.step(np.array([500.0, 500.0]), speed, frame)
        db = tiny_server.database
        for oid in client.known_objects():
            dec = db.get_object(oid).decomposition
            rendered = client.mesh_of(oid).current_mesh(levels=dec.depth)
            expected = dec.reconstruct(speed)
            assert np.allclose(rendered.vertices, expected.vertices), (
                f"object {oid} renders differently from the server's "
                f"w>={speed} reconstruction"
            )

    def test_decelerating_client_converges_to_full_detail(self, tiny_server):
        tiny_server.reset_client(101)
        client = ContinuousRetrievalClient(
            tiny_server,
            WirelessLink(),
            SimClock(),
            client_id=101,
            track_meshes=True,
        )
        frame = Box((0, 0), (1000, 1000))
        position = np.array([500.0, 500.0])
        for speed in (1.0, 0.7, 0.4, 0.2, 0.0):
            client.step(position, speed, frame)
        db = tiny_server.database
        for oid in client.known_objects():
            dec = db.get_object(oid).decomposition
            rendered = client.mesh_of(oid).current_mesh(levels=dec.depth)
            expected = dec.reconstruct(0.0)
            assert np.allclose(rendered.vertices, expected.vertices)

    def test_received_set_matches_band_semantics(self, tiny_server):
        """Every received coefficient lies in some requested band, and
        all coefficients of fully covered objects at the final band are
        present."""
        tiny_server.reset_client(102)
        client = ContinuousRetrievalClient(
            tiny_server,
            WirelessLink(),
            SimClock(),
            client_id=102,
            track_meshes=True,
        )
        frame = Box((0, 0), (1000, 1000))
        speed = 0.6
        client.step(np.array([500.0, 500.0]), speed, frame)
        db = tiny_server.database
        for oid in client.known_objects():
            dec = db.get_object(oid).decomposition
            received = client.mesh_of(oid).received_keys()
            expected = {
                CoefficientKey(j, i)
                for j, level in enumerate(dec.levels)
                for i in range(level.count)
                if level.values[i] >= speed
            }
            assert received == expected


class TestTransferEconomy:
    """The duplicate-suppression guarantees."""

    def test_zero_duplicate_bytes_over_erratic_tour(self, tiny_server):
        tiny_server.reset_client(103)
        client = ContinuousRetrievalClient(
            tiny_server,
            WirelessLink(),
            SimClock(),
            client_id=103,
            track_meshes=True,
        )
        rng = np.random.default_rng(0)
        position = np.array([500.0, 500.0])
        for _ in range(40):
            position = np.clip(
                position + rng.uniform(-80, 80, size=2), 50, 950
            )
            speed = float(rng.uniform(0, 1))
            frame = Box.from_center(position, (180.0, 180.0))
            client.step(position, speed, frame)
        for oid in client.known_objects():
            assert client.mesh_of(oid).duplicate_bytes == 0

    def test_incremental_cheaper_than_fresh_client(self, tiny_server):
        """A returning client refining the same frame pays less than a
        cold client fetching it outright."""
        frame = Box((200, 200), (800, 800))
        position = np.array([500.0, 500.0])

        tiny_server.reset_client(104)
        incremental = ContinuousRetrievalClient(
            tiny_server, WirelessLink(), SimClock(), client_id=104
        )
        incremental.step(position, 0.8, frame)
        refine_cost = incremental.step(position, 0.2, frame).payload_bytes

        tiny_server.reset_client(105)
        cold = ContinuousRetrievalClient(
            tiny_server, WirelessLink(), SimClock(), client_id=105
        )
        cold_cost = cold.step(position, 0.2, frame).payload_bytes
        assert refine_cost < cold_cost

    def test_two_clients_do_not_share_state(self, tiny_server):
        frame = Box((0, 0), (1000, 1000))
        position = np.array([500.0, 500.0])
        tiny_server.reset_client(106)
        tiny_server.reset_client(107)
        a = ContinuousRetrievalClient(
            tiny_server, WirelessLink(), SimClock(), client_id=106
        )
        b = ContinuousRetrievalClient(
            tiny_server, WirelessLink(), SimClock(), client_id=107
        )
        bytes_a = a.step(position, 0.5, frame).payload_bytes
        bytes_b = b.step(position, 0.5, frame).payload_bytes
        assert bytes_a == bytes_b  # b was not filtered by a's history


class TestAccessMethodEquivalence:
    """Both Section VI access methods must agree on what a region needs."""

    def test_motion_aware_superset_of_position_hits(self, tiny_city):
        from repro.index.access import (
            MotionAwareAccessMethod,
            NaivePointAccessMethod,
        )

        records = tiny_city.all_records()
        motion = MotionAwareAccessMethod(records)
        naive = NaivePointAccessMethod(records)
        rng = np.random.default_rng(5)
        for _ in range(15):
            center = rng.uniform(100, 900, size=2)
            region = Box.from_center(center, (150, 150))
            got_motion = {
                r.uid for r in motion.query(region, 0.0, 1.0).records
            }
            # Coefficients whose vertex position falls inside the region
            # are needed for sure; the support-region method must not
            # miss any of them.
            needed = {
                r.uid
                for r in records
                if region.contains_point(r.position[:2])
            }
            assert needed <= got_motion

    def test_query_result_independent_of_access_method(self, tiny_city):
        """Server responses carry the same *sufficient* data under both
        methods for fully contained objects."""
        from repro.index.access import (
            MotionAwareAccessMethod,
            NaivePointAccessMethod,
        )
        from repro.workloads.cityscape import CityConfig, build_city

        space = Box((0.0, 0.0), (1000.0, 1000.0))
        config = CityConfig(
            space=space, object_count=4, levels=2, seed=55,
            min_size_frac=0.02, max_size_frac=0.04,
        )
        records = build_city(config).all_records()
        motion = MotionAwareAccessMethod(records)
        naive = NaivePointAccessMethod(records)
        region = Box((0, 0), (1000, 1000))
        got_m = {r.uid for r in motion.query(region, 0.0, 1.0).records}
        got_n = {r.uid for r in naive.query(region, 0.0, 1.0).records}
        # Over the whole space both must return every record.
        assert got_m == got_n == {r.uid for r in records}


class TestMapperIntegration:
    def test_non_linear_mapper_respected(self, tiny_server):
        from repro.core.resolution import PowerMapper

        tiny_server.reset_client(108)
        client = ContinuousRetrievalClient(
            tiny_server,
            WirelessLink(),
            SimClock(),
            client_id=108,
            mapper=PowerMapper(2.0),
        )
        step = client.step(
            np.array([500.0, 500.0]), 0.5, Box((400, 400), (600, 600))
        )
        assert step.w_min == 0.25
