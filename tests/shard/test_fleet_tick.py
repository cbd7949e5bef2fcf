"""Whole-fleet batched planning: ``execute_fleet_tick``.

The contract under test: per client of a tick, the rows (and their
canonical order), the payload bytes, the billed node reads and the
newly shipped base meshes are identical to an :meth:`execute_many`
pass over ``FleetTick.to_requests()`` -- across consecutive ticks, so
the vectorised shipped-bases matrix tracks the server's per-client
table exactly (while the fleet fits ``max_clients``, which these
fleets do).

That parity shares the index walk and the gather on both sides, so a
drift common to both would pass it; the golden digests below pin the
absolute :class:`FleetTickResult` arrays instead.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.fleet import FleetTick, make_flat_ticks
from repro.errors import ShardError
from repro.shard import (
    FleetShipping,
    ShardCoordinator,
    ShardedDatabase,
)

from .conftest import SPACE

CLIENTS = 24
TICKS = 3

#: ``shard count -> SHA-256`` over every array of three consecutive
#: ticks' :class:`FleetTickResult`, captured on the 2-D row gather +
#: ``np.all(axis=1)`` walk and the two-key ``lexsort`` gather
#: immediately before both kernels were replaced.
GOLDEN_CLIENTS = 64
GOLDEN_DIGESTS = {
    1: "ac54caec0d012962af3ead785306e1b63e81f69e275c89d6375b7f9985e02860",
    2: "44bda0c75b049bdbee91a11188b49265ae0c0675a0c558e288ea47ac7a0dd9e9",
    4: "baf15130895a26b7b0434929af7aa20bfe5b482ce6c8ee520d077c4f425604ea",
}


def _empty_tick(timestamp: int = 0) -> FleetTick:
    return FleetTick(
        timestamp=timestamp,
        client_ids=np.empty(0, dtype=np.int64),
        low=np.empty((0, 2)),
        high=np.empty((0, 2)),
        w_min=np.empty(0),
        w_max=np.empty(0),
    )


def test_fleet_tick_matches_per_request_path(shard_city) -> None:
    ticks = make_flat_ticks(
        SPACE, CLIENTS, TICKS, seed=11, query_frac=0.3
    )
    fleet = ShardCoordinator(ShardedDatabase.from_database(shard_city, 4))
    shipping = fleet.fleet_shipping(CLIENTS)
    reference = ShardCoordinator(ShardedDatabase.from_database(shard_city, 4))
    saw_new_base = False
    for tick in ticks:
        result = fleet.execute_fleet_tick(tick, shipping)
        responses = reference.execute_many(tick.to_requests())
        assert result.client_count == len(responses)
        assert result.offsets[0] == 0
        assert result.offsets[-1] == result.total_rows
        for i, resp in enumerate(responses):
            lo, hi = result.offsets[i], result.offsets[i + 1]
            assert np.array_equal(result.rows[lo:hi], resp.batch.rows)
            assert int(result.payload_bytes[i]) == resp.payload_bytes
            assert int(result.new_base_counts[i]) == len(resp.base_meshes)
            assert int(result.io[i, 0]) == resp.io_node_reads
            saw_new_base = saw_new_base or bool(resp.base_meshes)
    # The workload must actually exercise base shipping for the
    # cross-tick state parity above to mean anything.
    assert saw_new_base


def fleet_digest(city, shard_count: int) -> str:
    ticks = make_flat_ticks(
        SPACE, GOLDEN_CLIENTS, TICKS, seed=13, query_frac=0.3
    )
    digest = hashlib.sha256()
    fleet = ShardCoordinator(ShardedDatabase.from_database(city, shard_count))
    shipping = fleet.fleet_shipping(GOLDEN_CLIENTS)
    for tick in ticks:
        result = fleet.execute_fleet_tick(tick, shipping)
        for name in (
            "rows",
            "offsets",
            "io",
            "consulted",
            "payload_bytes",
            "new_base_counts",
        ):
            array = getattr(result, name)
            assert array.dtype == np.int64, name
            digest.update(f"{name}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("shard_count", sorted(GOLDEN_DIGESTS))
def test_fleet_tick_matches_golden(shard_city, shard_count) -> None:
    assert fleet_digest(shard_city, shard_count) == GOLDEN_DIGESTS[shard_count]


def test_base_meshes_ship_once_across_ticks(shard_city) -> None:
    from dataclasses import replace

    # Full band for every client, so base rows are guaranteed hits.
    ticks = [
        replace(tick, w_max=np.ones(tick.count))
        for tick in make_flat_ticks(SPACE, 8, 2, seed=5, query_frac=0.4)
    ]
    db = ShardedDatabase.from_database(shard_city, 4)
    fleet = ShardCoordinator(db)
    shipping = fleet.fleet_shipping(8)
    first = fleet.execute_fleet_tick(ticks[0], shipping)
    assert int(first.new_base_counts.sum()) > 0
    again = fleet.execute_fleet_tick(ticks[0], shipping)
    # Identical queries, but every base mesh has shipped already.
    assert int(again.new_base_counts.sum()) == 0
    assert np.array_equal(again.rows, first.rows)
    assert int(again.total_payload_bytes) < int(first.total_payload_bytes)


def test_empty_tick_yields_empty_result(shard_city) -> None:
    db = ShardedDatabase.from_database(shard_city, 4)
    fleet = ShardCoordinator(db)
    result = fleet.execute_fleet_tick(_empty_tick(), fleet.fleet_shipping(4))
    assert result.client_count == 0
    assert result.total_rows == 0
    assert result.total_payload_bytes == 0


def test_fleet_tick_rejects_plan_deltas(shard_city) -> None:
    db = ShardedDatabase.from_database(shard_city, 4)
    fleet = ShardCoordinator(db, plan_deltas=True)
    with pytest.raises(ShardError, match="cold planning"):
        fleet.execute_fleet_tick(_empty_tick(), FleetShipping(
            4, np.array([1]), np.array([10])
        ))


def test_fleet_tick_rejects_unknown_clients(shard_city) -> None:
    ticks = make_flat_ticks(SPACE, 8, 1, seed=5)
    db = ShardedDatabase.from_database(shard_city, 4)
    fleet = ShardCoordinator(db)
    shipping = fleet.fleet_shipping(4)  # smaller than the tick's fleet
    with pytest.raises(ShardError, match="client ids"):
        fleet.execute_fleet_tick(ticks[0], shipping)


def test_fleet_shipping_validation() -> None:
    with pytest.raises(ShardError, match=">= 1 client"):
        FleetShipping(0, np.array([1]), np.array([10]))
    with pytest.raises(ShardError, match="ascending"):
        FleetShipping(2, np.array([3, 1]), np.array([10, 10]))
    with pytest.raises(ShardError, match="ascending"):
        FleetShipping(2, np.array([1, 1]), np.array([10, 10]))
    with pytest.raises(ShardError, match="one base-mesh byte size"):
        FleetShipping(2, np.array([1, 2]), np.array([10]))
    shipping = FleetShipping(2, np.array([2, 5, 9]), np.array([10, 20, 30]))
    assert shipping.client_count == 2
    assert shipping.object_count == 3
    assert np.array_equal(
        shipping.object_index(np.array([9, 2])), np.array([2, 0])
    )
    with pytest.raises(ShardError, match="unknown object ids"):
        shipping.object_index(np.array([4]))


def test_fleet_shipping_base_bytes_match_server_pricing(shard_city) -> None:
    db = ShardedDatabase.from_database(shard_city, 4)
    fleet = ShardCoordinator(db)
    shipping = fleet.fleet_shipping(4)
    for col, obj in enumerate(sorted(
        shard_city.objects, key=lambda o: o.object_id
    )):
        expected = max(
            fleet._base_connectivity_bytes(obj.object_id), 1
        )
        assert int(shipping.base_bytes[col]) == expected
