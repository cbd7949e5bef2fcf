"""ShardCoordinator vs a plain Server: response-level parity.

The coordinator's scatter-gather (serial and batched ``execute_many``)
must reproduce the unsharded server's responses --
same uids in the same first-occurrence merge order, same filtered-out
accounting, same base-mesh shipping, same payload bytes.  Only the
I/O node-read counts may differ at ``S > 1`` (per-shard trees have
their own shapes); at ``S == 1`` even those match.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError, ShardError
from repro.geometry.box import Box
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.server.server import Server
from repro.server.scene import SceneDatabase
from repro.shard import ShardCoordinator, ShardedDatabase, ShardMap
from repro.shard.scene import ShardedSceneDatabase
from repro.store.scene import SceneDelta
from repro.store.uids import EMPTY_UIDS, UidSet

from tests.server.quote_reference import (
    assert_batch_matches_loop,
    random_contact,
    reference_quote_blocks,
    scattered_blocks,
    split_footprint,
    stack,
)


def make_request(client_id, t, regions, exclude=None):
    return RetrieveRequest(
        timestamp=float(t),
        client_id=client_id,
        regions=tuple(regions),
        exclude_uids=exclude,
    )


def tour_requests(client_id):
    """Frames with multi-shard spans, half-open bands, and overlaps."""
    yield make_request(
        client_id, 0.0, [RegionRequest(Box((50, 50), (600, 600)), 0.1, 1.0)]
    )
    yield make_request(
        client_id,
        1.0,
        [
            RegionRequest(Box((300, 50), (900, 600)), 0.0, 1.0),
            RegionRequest(Box((50, 50), (600, 600)), 0.0, 0.1, half_open=True),
        ],
    )
    yield make_request(
        client_id,
        2.0,
        [
            RegionRequest(Box((0, 0), (1000, 1000)), 0.3, 1.0),
            RegionRequest(Box((600, 600), (1000, 1000)), 0.0, 1.0),
        ],
    )


def drive(server, client_id, *, with_io=False):
    """Serial per-frame digests, chaining the delivered-uid exclude set."""
    server.reset_client(client_id)
    sent = EMPTY_UIDS
    digests = []
    for request in tour_requests(client_id):
        request = make_request(
            client_id, request.timestamp, request.regions, exclude=sent
        )
        response = server.execute_batch(request).to_response()
        uids = [r.uid for r in response.records]
        sent = sent.union(UidSet.from_tuples(uids))
        digest = {
            "uids": uids,
            "payload_bytes": response.payload_bytes,
            "filtered_out": response.filtered_out,
            "bases": [b.object_id for b in response.base_meshes],
        }
        if with_io:
            digest["io_node_reads"] = response.io_node_reads
        digests.append(digest)
    return digests


def drive_many(coordinator, client_id):
    """The same tour through one batched ``execute_many`` scatter.

    The tour's exclude chaining is stateful, so each frame is its own
    batch; multi-request batching is covered separately below.
    """
    coordinator.reset_client(client_id)
    sent = EMPTY_UIDS
    digests = []
    for request in tour_requests(client_id):
        request = make_request(
            client_id, request.timestamp, request.regions, exclude=sent
        )
        (batch,) = coordinator.execute_many([request])
        response = batch.to_response()
        uids = [r.uid for r in response.records]
        sent = sent.union(UidSet.from_tuples(uids))
        digests.append(
            {
                "uids": uids,
                "payload_bytes": response.payload_bytes,
                "filtered_out": response.filtered_out,
                "bases": [b.object_id for b in response.base_meshes],
            }
        )
    return digests


class TestResponseParity:
    @pytest.mark.parametrize("shards", [1, 4, 8])
    def test_serial_scatter_matches_unsharded(self, shard_city, shards):
        baseline = drive(Server(shard_city), 21)
        db = ShardedDatabase.from_database(shard_city, shards)
        assert drive(ShardCoordinator(db), 21) == baseline

    def test_single_shard_matches_io_too(self, shard_city):
        baseline = drive(Server(shard_city), 22, with_io=True)
        db = ShardedDatabase.from_database(shard_city, 1)
        assert drive(ShardCoordinator(db), 22, with_io=True) == baseline

    def test_execute_many_matches_serial_loop(self, shard_city):
        baseline = drive(Server(shard_city), 23)
        db = ShardedDatabase.from_database(shard_city, 8)
        assert drive_many(ShardCoordinator(db), 23) == baseline

    def test_multi_client_batch_in_request_order(self, shard_city):
        """One scatter answering several clients' frames must mutate
        per-client state in request order, like the serial loop."""
        requests = [
            next(tour_requests(client_id)) for client_id in (31, 32, 33)
        ]
        db = ShardedDatabase.from_database(shard_city, 8)
        coordinator = ShardCoordinator(db)
        batched = [
            b.to_response() for b in coordinator.execute_many(requests)
        ]
        serial_server = Server(shard_city)
        serial = [
            serial_server.execute_batch(r).to_response() for r in requests
        ]
        for got, want in zip(batched, serial):
            assert [r.uid for r in got.records] == [
                r.uid for r in want.records
            ]
            assert got.payload_bytes == want.payload_bytes
            assert [b.object_id for b in got.base_meshes] == [
                b.object_id for b in want.base_meshes
            ]

    def test_exclude_set_spans_shard_boundaries(self, shard_city):
        """Uids delivered from several shards are excluded wholesale on
        the next frame -- no shard re-ships another shard's rows."""
        frame = Box((0.0, 0.0), (1000.0, 1000.0))
        db = ShardedDatabase.from_database(shard_city, 8)
        assert db.plan(frame, 0.0, 1.0).size > 1
        coordinator = ShardCoordinator(db)
        first = coordinator.execute_batch(
            make_request(24, 0.0, [RegionRequest(frame, 0.0, 1.0)])
        )
        position = {
            obj.object_id: pos for pos, obj in enumerate(db.objects)
        }
        shards_hit = {
            int(db.shard_map.shard_of[position[int(oid)]])
            for oid in db.store.object_ids[first.batch.rows]
        }
        delivered = first.batch.uids
        second = coordinator.execute_batch(
            make_request(
                24,
                1.0,
                [RegionRequest(frame, 0.0, 1.0)],
                exclude=delivered,
            )
        )
        assert first.record_count > 0
        assert len(shards_hit) > 1
        assert second.record_count == 0
        assert second.filtered_out == first.record_count


class TestShardAwarePlanning:
    def test_plan_deltas_matches_unsharded(self, shard_city):
        baseline = drive(Server(shard_city, plan_deltas=True), 27)
        db = ShardedDatabase.from_database(shard_city, 4)
        coordinator = ShardCoordinator(db, plan_deltas=True)
        assert drive(coordinator, 27) == baseline
        warm = sum(
            p.counters.warm for p in coordinator.shard_planners.values()
        )
        assert len(coordinator.shard_planners) >= 1
        assert warm > 0

    def test_reset_client_forgets_in_every_shard(self, shard_city):
        db = ShardedDatabase.from_database(shard_city, 4)
        coordinator = ShardCoordinator(db, plan_deltas=True)
        drive(coordinator, 28)
        coordinator.reset_client(28)
        before = {
            shard: planner.counters.cold
            for shard, planner in coordinator.shard_planners.items()
        }
        coordinator.execute_batch(next(tour_requests(28)))
        after = {
            shard: planner.counters.cold
            for shard, planner in coordinator.shard_planners.items()
        }
        assert any(after[s] > before.get(s, 0) for s in after)


class TestQuoteBlocks:
    """``ShardCoordinator.quote_blocks`` (one scatter per block list)
    against the per-block loop, and against the unsharded server."""

    @pytest.fixture(params=[1, 2, 4])
    def sharded(self, request, shard_city):
        return ShardedDatabase.from_database(shard_city, request.param)

    @pytest.mark.parametrize("plan_deltas", [False, True])
    def test_matches_the_loop(self, sharded, shard_city, plan_deltas):
        def make_server():
            return ShardCoordinator(sharded, plan_deltas=plan_deltas)

        regions = scattered_blocks()
        delivered = shard_city.store.uid_set(
            np.arange(0, len(shard_city.store), 3)
        )
        got = assert_batch_matches_loop(
            make_server, regions, 0.0, delivered, frozenset({1, 4})
        )
        # Any shard count prices what the monolithic index prices; one
        # shard also bills the same node reads (cold planning only).
        want, _, _ = Server(shard_city).quote_blocks(
            3, stack(regions), 0.0, delivered, assume_shipped_bases=frozenset({1, 4})
        )
        for mine, theirs in zip(got, want):
            assert mine.payload_bytes == theirs.payload_bytes
            assert mine.new_uids == theirs.new_uids
            assert mine.new_base_ids == theirs.new_base_ids
            if sharded.shard_count == 1 and not plan_deltas:
                assert mine.io_node_reads == theirs.io_node_reads
        assert sum(len(q.new_uids) for q in got) > 0
        assert sum(1 for q in got if not q.new_uids) > 0

    def test_shared_base_committed_bases_and_random_contacts(
        self, sharded, shard_city
    ):
        def make_server():
            return ShardCoordinator(sharded)

        halves = split_footprint(make_server(), 5)
        first, second = assert_batch_matches_loop(make_server, halves)
        assert 5 in first.new_base_ids and not second.new_base_ids

        def ship_one_half(server):
            server.commit_quote(server.quote_block(3, halves[1], 0.0, None))

        assert_batch_matches_loop(
            make_server, scattered_blocks()[::3], prepare=ship_one_half
        )
        for seed in range(4):
            rng = np.random.default_rng(seed)
            assert_batch_matches_loop(
                make_server, *random_contact(shard_city, rng)
            )
        assert make_server().quote_blocks(3, stack([]), 0.0, None) == (
            [],
            EMPTY_UIDS,
            frozenset(),
        )

    def test_inverted_band_raises_what_the_loop_raises(self, sharded):
        regions = scattered_blocks()[:4]
        for plan_deltas in (False, True):
            with pytest.raises(ReproError) as loop_error:
                reference_quote_blocks(
                    ShardCoordinator(sharded, plan_deltas=plan_deltas),
                    3, regions, 1.5, None,
                )
            with pytest.raises(ReproError) as batch_error:
                ShardCoordinator(sharded, plan_deltas=plan_deltas).quote_blocks(
                    3, stack(regions), 1.5, None
                )
            assert type(batch_error.value) is type(loop_error.value)
            assert str(batch_error.value) == str(loop_error.value)
            if not plan_deltas:
                assert type(batch_error.value) is ShardError

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_scene_after_advance_epoch(self, shard_city, shards):
        source = SceneDatabase.from_objects(shard_city.objects)
        shard_map = ShardMap.build(
            [obj.footprint for obj in source.objects], shards
        )
        db = ShardedSceneDatabase(source, shard_map)
        coordinator = ShardCoordinator(db)
        coordinator.advance_epoch(
            SceneDelta(
                move_ids=np.asarray([0, 7], dtype=np.int64),
                move_offsets=np.asarray(
                    [(60.0, -40.0, 0.0), (-35.0, 20.0, 0.0)]
                ),
            )
        )
        assert_batch_matches_loop(
            lambda: ShardCoordinator(db), scattered_blocks()
        )


class TestWireLevel:
    def test_serve_engine_bytes_identical_over_shards(self, shard_city):
        """The socket engine runs over the coordinator unchanged: the
        encoded response frames match the unsharded server byte for
        byte (S == 1 also matches the I/O counters on the wire)."""
        from repro.serve.engine import ServeEngine
        from repro.serve.wire import encode_request

        for shards in (1, 8):
            db = ShardedDatabase.from_database(shard_city, shards)
            sharded_engine = ServeEngine(ShardCoordinator(db))
            baseline_engine = ServeEngine(Server(shard_city))
            for request in tour_requests(29):
                payload = encode_request(request)
                got, got_client = sharded_engine.handle(payload)
                want, want_client = baseline_engine.handle(payload)
                assert got_client == want_client == 29
                if shards == 1:
                    assert got == want
                else:
                    # Frames differ only through the io counters.
                    assert len(got) == len(want)


class TestConstruction:
    def test_requires_sharded_database(self, shard_city):
        with pytest.raises(ShardError):
            ShardCoordinator(shard_city)

    def test_serve_entrypoint_builds_coordinator(self):
        from repro.serve.__main__ import build_arg_parser, build_server

        args = build_arg_parser().parse_args(
            ["--objects", "8", "--levels", "2", "--shards", "4"]
        )
        server = build_server(args)
        assert isinstance(server, ShardCoordinator)
        assert server.sharded.shard_count >= 2

    def test_serve_entrypoint_default_is_plain_server(self):
        from repro.serve.__main__ import build_arg_parser, build_server

        args = build_arg_parser().parse_args(["--objects", "6"])
        server = build_server(args)
        assert isinstance(server, Server)
        assert not isinstance(server, ShardCoordinator)
