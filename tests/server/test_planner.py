"""Frame-delta planner: exactness, warm/cold behaviour, server wiring.

The planner may change *when* index pages are read (that is the point)
but never *what* a query answers: row ids and their order must match
the cold packed traversal on every frame of a moving-viewer workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.box import Box
from repro.index.packed import PackedAccessMethod
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.server.database import ObjectDatabase
from repro.server.planner import FrontierPlanner
from repro.server.server import Server
from repro.shard.database import ShardedDatabase
from repro.store.uids import EMPTY_UIDS


@pytest.fixture(scope="module")
def method(tiny_city) -> PackedAccessMethod:
    packed = ObjectDatabase.from_objects(tiny_city.objects).access_method
    assert isinstance(packed, PackedAccessMethod)
    return packed


def moving_frames(steps: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    pos = np.array([150.0, 150.0])
    for _ in range(steps):
        pos = pos + rng.uniform(-5.0, 9.0, 2)
        band = np.sort(rng.uniform(0.0, 1.0, 2))
        yield Box(pos, pos + 160.0), float(band[0]), float(band[1])


class TestPlannerExactness:
    def test_rows_and_order_match_cold_traversal(self, method):
        planner = FrontierPlanner(method)
        for box, w_min, w_max in moving_frames(80):
            got = planner.query_rows(1, box, w_min, w_max)
            want = method.query_rows(box, w_min, w_max)
            assert got.rows.tolist() == want.rows.tolist()
        assert planner.counters.warm > planner.counters.cold

    def test_half_open_band_trimmed(self, method, tiny_city):
        planner = FrontierPlanner(method)
        region = Box((0.0, 0.0), (1000.0, 1000.0))
        got = planner.query_rows(2, region, 0.0, 0.5, half_open=True)
        want = method.query_rows(region, 0.0, 0.5, half_open=True)
        assert got.rows.tolist() == want.rows.tolist()

    def test_zero_margin_still_exact(self, method):
        planner = FrontierPlanner(method, margin_frac=0.0)
        for box, w_min, w_max in moving_frames(20, seed=9):
            got = planner.query_rows(3, box, w_min, w_max)
            want = method.query_rows(box, w_min, w_max)
            assert got.rows.tolist() == want.rows.tolist()


class TestPlannerBehaviour:
    def test_repeat_query_is_warm_and_cheaper(self, method):
        planner = FrontierPlanner(method)
        box = Box((300.0, 300.0), (520.0, 520.0))
        cold = planner.query_rows(4, box, 0.0, 1.0)
        warm = planner.query_rows(4, box, 0.0, 1.0)
        assert warm.rows.tolist() == cold.rows.tolist()
        assert planner.counters.warm == 1 and planner.counters.cold == 1
        # Warm frames re-read only the surviving leaf pages.
        assert warm.io.node_reads < cold.io.node_reads
        assert warm.io.queries == 1

    def test_band_moves_stay_warm(self, method):
        """The memo holds the full w band: resolution sweeps never refresh."""
        planner = FrontierPlanner(method)
        box = Box((250.0, 250.0), (420.0, 420.0))
        planner.query_rows(5, box, 0.3, 1.0)
        for w_min, w_max in ((0.0, 0.2), (0.2, 0.9), (0.85, 1.0)):
            got = planner.query_rows(5, box, w_min, w_max)
            want = method.query_rows(box, w_min, w_max)
            assert got.rows.tolist() == want.rows.tolist()
        assert planner.counters.cold == 1

    def test_escape_refreshes(self, method):
        planner = FrontierPlanner(method)
        planner.query_rows(6, Box((100.0, 100.0), (200.0, 200.0)), 0.0, 1.0)
        planner.query_rows(6, Box((700.0, 700.0), (800.0, 800.0)), 0.0, 1.0)
        assert planner.counters.cold == 2

    def test_memos_are_per_client(self, method):
        planner = FrontierPlanner(method)
        box = Box((300.0, 300.0), (450.0, 450.0))
        planner.query_rows(7, box, 0.0, 1.0)
        planner.query_rows(8, box, 0.0, 1.0)
        assert planner.counters.cold == 2
        assert planner.client_count == 2
        planner.forget(7)
        assert planner.client_count == 1

    def test_lru_eviction(self, method):
        planner = FrontierPlanner(method, max_clients=2)
        box = Box((300.0, 300.0), (450.0, 450.0))
        for cid in (1, 2, 3):
            planner.query_rows(cid, box, 0.0, 1.0)
        assert planner.client_count == 2
        planner.query_rows(1, box, 0.0, 1.0)  # 1 was evicted -> cold again
        assert planner.counters.cold == 4

    def test_invalid_parameters_rejected(self, method):
        with pytest.raises(ConfigurationError):
            FrontierPlanner(method, margin_frac=-0.1)
        with pytest.raises(ConfigurationError):
            FrontierPlanner(method, max_clients=0)


class TestServerWiring:
    def test_batch_results_identical_with_planning(self, tiny_city):
        plain = Server(tiny_city)
        planning = Server(tiny_city, plan_deltas=True)
        for t, (box, w_min, w_max) in enumerate(moving_frames(30, seed=3)):
            regions = (RegionRequest(box, w_min, w_max),)
            a = plain.execute_batch(RetrieveRequest(
                timestamp=float(t), client_id=1, regions=regions,
                exclude_uids=EMPTY_UIDS,
            ))
            b = planning.execute_batch(RetrieveRequest(
                timestamp=float(t), client_id=1, regions=regions,
                exclude_uids=EMPTY_UIDS,
            ))
            assert a.batch.rows.tolist() == b.batch.rows.tolist()
        planner = planning.planner
        assert planner is not None
        assert planner.counters.warm > 0

    def test_planner_absent_by_default_and_for_other_methods(self, tiny_city):
        assert Server(tiny_city).planner is None
        sharded = Server(
            ShardedDatabase.from_database(tiny_city, 2), plan_deltas=True
        )
        assert sharded.planner is None  # degrades to cold traversal
        box = Box((0.0, 0.0), (1000.0, 1000.0))
        response = sharded.execute_batch(RetrieveRequest(
            timestamp=0.0, client_id=1,
            regions=(RegionRequest(box, 0.0, 1.0),),
            exclude_uids=EMPTY_UIDS,
        ))
        assert response.record_count > 0

    def test_reset_client_forgets_memo(self, tiny_city):
        server = Server(tiny_city, plan_deltas=True)
        box = Box((200.0, 200.0), (400.0, 400.0))
        server.execute_batch(RetrieveRequest(
            timestamp=0.0, client_id=9,
            regions=(RegionRequest(box, 0.0, 1.0),),
            exclude_uids=EMPTY_UIDS,
        ))
        planner = server.planner
        assert planner is not None and planner.client_count == 1
        server.reset_client(9)
        assert planner.client_count == 0

    def test_quote_block_uses_planner(self, tiny_city):
        server = Server(tiny_city, plan_deltas=True)
        box = Box((200.0, 200.0), (400.0, 400.0))
        first = server.quote_block(3, box, 0.0, None)
        second = server.quote_block(3, box, 0.0, None)
        assert first.new_uids == second.new_uids
        assert second.io_node_reads < first.io_node_reads
