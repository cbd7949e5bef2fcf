"""Tests for the query server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sessions import MotionAwareSessionPolicy
from repro.core.system import SystemConfig
from repro.errors import ProtocolError, ReproError
from repro.geometry.box import Box
from repro.net.messages import RegionRequest
from repro.server.scene import SceneDatabase
from repro.server.server import Server
from repro.store.scene import SceneDelta
from repro.store.uids import EMPTY_UIDS

from tests.server.quote_reference import (
    GRID,
    SPACE,
    assert_batch_matches_loop,
    random_contact,
    reference_quote_blocks,
    scattered_blocks,
    split_footprint,
    stack,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


def wide_region():
    return Box((-10_000, -10_000), (10_000, 10_000))


class TestRetrieve:
    def test_basic_retrieve(self, tiny_server: Server):
        response = tiny_server.retrieve(
            0, 0.0, [RegionRequest(wide_region(), 0.0, 1.0)]
        )
        assert response.record_count > 0
        assert response.io_node_reads > 0
        assert response.payload_bytes > 0
        assert len(response.displacements) == response.record_count

    def test_needs_regions(self, tiny_server: Server):
        with pytest.raises(ProtocolError):
            tiny_server.retrieve(0, 0.0, [])

    def test_exclude_uids_filters(self, tiny_server: Server):
        first = tiny_server.retrieve(
            1, 0.0, [RegionRequest(wide_region(), 0.0, 1.0)]
        )
        seen = frozenset(r.uid for r in first.records)
        second = tiny_server.retrieve(
            1,
            1.0,
            [RegionRequest(wide_region(), 0.0, 1.0)],
            exclude_uids=seen,
        )
        assert second.record_count == 0
        assert second.filtered_out >= len(seen)

    def test_duplicate_regions_deduplicated(self, tiny_server: Server):
        region = RegionRequest(wide_region(), 0.0, 1.0)
        once = tiny_server.retrieve(2, 0.0, [region])
        tiny_server.reset_client(2)
        twice = tiny_server.retrieve(2, 0.0, [region, region])
        assert {r.uid for r in once.records} == {r.uid for r in twice.records}

    def test_half_open_band_excludes_upper(self, tiny_server: Server):
        response = tiny_server.retrieve(
            3, 0.0, [RegionRequest(wide_region(), 0.3, 0.7, half_open=True)]
        )
        assert all(0.3 <= r.value < 0.7 for r in response.records)

    def test_band_restricts_values(self, tiny_server: Server):
        response = tiny_server.retrieve(
            4, 0.0, [RegionRequest(wide_region(), 0.8, 1.0)]
        )
        assert response.record_count > 0
        assert all(r.value >= 0.8 for r in response.records)

    def test_displacements_match_database(self, tiny_server: Server):
        response = tiny_server.retrieve(
            5, 0.0, [RegionRequest(wide_region(), 0.0, 1.0)]
        )
        db = tiny_server.database
        for record, disp in zip(response.records[:20], response.displacements[:20]):
            assert np.allclose(np.asarray(disp), db.displacement(record.uid))


class TestBaseMeshShipping:
    def test_base_shipped_once_per_client(self, tiny_server: Server):
        region = [RegionRequest(wide_region(), 0.0, 1.0)]
        first = tiny_server.retrieve(10, 0.0, region)
        assert len(first.base_meshes) == tiny_server.database.object_count
        tiny_server_second = tiny_server.retrieve(10, 1.0, region)
        assert len(tiny_server_second.base_meshes) == 0

    def test_distinct_clients_tracked_separately(self, tiny_server: Server):
        region = [RegionRequest(wide_region(), 0.0, 1.0)]
        tiny_server.retrieve(20, 0.0, region)
        other = tiny_server.retrieve(21, 0.0, region)
        assert len(other.base_meshes) == tiny_server.database.object_count

    def test_reset_client_reships(self, tiny_server: Server):
        region = [RegionRequest(wide_region(), 0.0, 1.0)]
        tiny_server.retrieve(30, 0.0, region)
        tiny_server.reset_client(30)
        again = tiny_server.retrieve(30, 1.0, region)
        assert len(again.base_meshes) == tiny_server.database.object_count

    def test_coarsest_query_still_ships_bases(self, tiny_server: Server):
        response = tiny_server.retrieve(
            40, 0.0, [RegionRequest(wide_region(), 1.0, 1.0)]
        )
        assert len(response.base_meshes) == tiny_server.database.object_count


class TestBlockPayload:
    def test_block_payload_dedupes(self, tiny_server: Server):
        region = wide_region()
        first = tiny_server.quote_block(50, region, 0.0, frozenset())
        tiny_server.commit_quote(first)
        assert first.payload_bytes > 0
        assert first.io_node_reads > 0
        assert first.new_uids
        second = tiny_server.quote_block(50, region, 0.0, first.new_uids)
        tiny_server.commit_quote(second)
        assert second.payload_bytes == 0
        assert second.new_uids == frozenset()

    def test_block_payload_empty_region(self, tiny_server: Server):
        quote = tiny_server.quote_block(
            60, Box((50_000, 50_000), (50_001, 50_001)), 0.0, frozenset()
        )
        tiny_server.commit_quote(quote)
        assert quote.payload_bytes == 0
        assert quote.new_uids == frozenset()


class TestQuoteCommit:
    def test_quote_has_no_side_effects(self, tiny_city):
        server = Server(tiny_city)
        quote = server.quote_block(1, wide_region(), 0.0, frozenset())
        assert quote.payload_bytes > 0
        assert quote.new_base_ids
        assert server.client_count == 0
        # Uncommitted, the same quote prices identically.
        again = server.quote_block(1, wide_region(), 0.0, frozenset())
        assert again.payload_bytes == quote.payload_bytes
        assert again.new_base_ids == quote.new_base_ids

    def test_commit_marks_bases_shipped(self, tiny_city):
        server = Server(tiny_city)
        quote = server.quote_block(1, wide_region(), 0.0, frozenset())
        server.commit_quote(quote)
        after = server.quote_block(1, wide_region(), 0.0, frozenset())
        assert after.new_base_ids == frozenset()
        assert after.payload_bytes < quote.payload_bytes

    def test_assume_shipped_avoids_double_count(self, tiny_city):
        server = Server(tiny_city)
        first = server.quote_block(1, wide_region(), 0.0, frozenset())
        second = server.quote_block(
            1,
            wide_region(),
            0.0,
            frozenset(),
            assume_shipped_bases=first.new_base_ids,
        )
        assert second.new_base_ids == frozenset()
        assert second.payload_bytes < first.payload_bytes

    def test_quote_then_commit_ships_bases_once(self, tiny_city):
        server = Server(tiny_city)
        payloads = []
        for _ in range(2):
            quote = server.quote_block(7, wide_region(), 0.0, frozenset())
            server.commit_quote(quote)
            payloads.append(quote.payload_bytes)
        # Second call re-ships records but not base connectivity.
        assert payloads[1] < payloads[0]


def moved_scene(city) -> SceneDatabase:
    """A scene database one epoch on: object 0 moved across cells."""
    db = SceneDatabase.from_objects(city.objects)
    db.advance_epoch(
        SceneDelta(
            move_ids=np.asarray([0], dtype=np.int64),
            move_offsets=np.asarray([(60.0, -40.0, 0.0)]),
        )
    )
    return db


#: Every backend ``quote_blocks`` must price identically to the loop on:
#: the batched walk (static and dynamic packed index) and the serial
#: fallback (frame-delta planning).
BACKENDS = {
    "packed": lambda city: lambda: Server(city),
    "planner": lambda city: lambda: Server(city, plan_deltas=True),
    "scene_after_epoch": lambda city: (
        lambda db=moved_scene(city): Server(db)
    ),
}


@pytest.fixture(params=sorted(BACKENDS))
def make_server(request, tiny_city):
    return BACKENDS[request.param](tiny_city)


class TestQuoteBlocks:
    """``quote_blocks`` against the per-block loop it replaced."""

    def test_whole_grid_in_scattered_order(self, make_server):
        quotes = assert_batch_matches_loop(make_server, scattered_blocks())
        sizes = [len(q.new_uids) for q in quotes]
        assert sizes.count(0) > 300 and sum(sizes) == len(
            make_server().database.store
        )

    def test_straddling_support_and_shared_base(self, make_server):
        server = make_server()
        left, right = split_footprint(server, 2)
        both = [
            set(server.database.query_region_rows(half, 0.0, 1.0).rows.tolist())
            for half in (left, right)
        ]
        store = server.database.store
        bases = [
            {int(store.object_ids[r]) for r in rows if store.levels[r] == -1}
            for rows in both
        ]
        assert both[0] & both[1] and 2 in bases[0] & bases[1]
        for regions in ([left, right], [right, left], [left, left]):
            first, second = assert_batch_matches_loop(make_server, regions)
            # The shared rows and the shared mesh go with the first block.
            assert 2 in first.new_base_ids and not second.new_base_ids
            assert first.new_uids.isdisjoint(second.new_uids)

    def test_delivered_uids_and_assumed_bases(self, make_server):
        server = make_server()
        regions = scattered_blocks()[::2]
        delivered = server.database.store.uid_set(
            np.arange(0, len(server.database.store), 3)
        )
        quotes = assert_batch_matches_loop(
            make_server, regions, 0.0, delivered, frozenset({1, 4})
        )
        assert all(q.new_uids.isdisjoint(delivered) for q in quotes)
        assert not any({1, 4} & q.new_base_ids for q in quotes)
        # Legacy frozenset-of-triples excludes coerce like UidSets.
        assert_batch_matches_loop(
            make_server, regions[:40], 0.5, frozenset(list(delivered)[:50])
        )

    def test_bases_already_committed(self, make_server):
        regions = scattered_blocks()

        def ship_the_first_third(server: Server) -> None:
            quotes, _, _ = server.quote_blocks(
                3, stack(regions[: len(regions) // 3]), 0.0, None
            )
            for quote in quotes:
                server.commit_quote(quote)
            assert server._shipped_bases[3]

        assert_batch_matches_loop(
            make_server, regions, prepare=ship_the_first_third
        )

    def test_no_blocks_and_one_block(self, make_server, tiny_city):
        server = make_server()
        delivered = tiny_city.store.uid_set(np.arange(5))
        assert server.quote_blocks(
            1, stack([]), 0.0, delivered, assume_shipped_bases=frozenset({2})
        ) == ([], delivered, frozenset({2}))
        policy = MotionAwareSessionPolicy(
            server, SystemConfig(space=SPACE, grid_shape=GRID.shape)
        )
        assert policy.quote_cells((), 0.0, EMPTY_UIDS, frozenset()) == (
            [],
            EMPTY_UIDS,
            frozenset(),
        )
        cells = ((2, 18), (2, 19), (3, 8))
        want = reference_quote_blocks(
            make_server(), 0, [GRID.cell_box(c) for c in cells], 0.0, None
        )
        assert policy.quote_cells(cells, 0.0, EMPTY_UIDS, frozenset()) == want
        # A one-cell list takes quote_block, with the same chaining.
        assert policy.quote_cells(cells[:1], 0.0, EMPTY_UIDS, frozenset({7})) == (
            want[0][:1],
            want[0][0].new_uids,
            want[0][0].new_base_ids | {7},
        )
        # quote_block is the batch of one.
        region = GRID.cell_box((2, 18))
        assert make_server().quote_block(0, region, 0.0, None) == want[0][0]

    def test_inverted_band_raises_what_the_loop_raises(self, make_server):
        regions = scattered_blocks()[:4]
        with pytest.raises(ReproError) as loop_error:
            reference_quote_blocks(make_server(), 3, regions, 1.5, None)
        with pytest.raises(ReproError) as batch_error:
            make_server().quote_blocks(3, stack(regions), 1.5, None)
        assert type(batch_error.value) is type(loop_error.value)
        assert str(batch_error.value) == str(loop_error.value)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_contacts_seeded(self, make_server, tiny_city, seed):
        rng = np.random.default_rng(seed)
        assert_batch_matches_loop(make_server, *random_contact(tiny_city, rng))

    if HAVE_HYPOTHESIS:

        @settings(max_examples=25, deadline=None)
        @given(seed=st.integers(0, 2**32 - 1))
        def test_random_contacts_hypothesis(self, tiny_city, seed):
            rng = np.random.default_rng(seed)
            assert_batch_matches_loop(
                BACKENDS["packed"](tiny_city), *random_contact(tiny_city, rng)
            )


class TestBoundedClientState:
    """Regression: ``_shipped_bases`` must not grow without bound."""

    def test_max_clients_validation(self, tiny_city):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Server(tiny_city, max_clients=0)

    def test_client_count_is_bounded(self, tiny_city):
        server = Server(tiny_city, max_clients=4)
        region = [RegionRequest(wide_region(), 0.0, 1.0)]
        for client_id in range(20):
            server.retrieve(client_id, 0.0, region)
        assert server.client_count == 4

    def test_least_recently_served_client_evicted(self, tiny_city):
        server = Server(tiny_city, max_clients=2)
        region = [RegionRequest(wide_region(), 0.0, 1.0)]
        server.retrieve(0, 0.0, region)
        server.retrieve(1, 1.0, region)
        server.retrieve(0, 2.0, region)  # touch 0 so 1 is the LRU
        server.retrieve(2, 3.0, region)  # evicts 1
        # Client 0 was kept: nothing re-ships.
        kept = server.retrieve(0, 4.0, region)
        assert len(kept.base_meshes) == 0
        # Client 1 was evicted: its bases re-ship like a fresh client.
        reshipped = server.retrieve(1, 5.0, region)
        assert len(reshipped.base_meshes) == server.database.object_count

    def test_disconnect_drops_state(self, tiny_city):
        server = Server(tiny_city, max_clients=8)
        region = [RegionRequest(wide_region(), 0.0, 1.0)]
        server.retrieve(5, 0.0, region)
        assert server.client_count == 1
        server.disconnect(5)
        assert server.client_count == 0
        again = server.retrieve(5, 1.0, region)
        assert len(again.base_meshes) == server.database.object_count
