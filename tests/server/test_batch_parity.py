"""Batch (columnar) vs per-record query answering: exact parity.

``Server.execute_batch`` must reproduce the original per-record
implementation bit for bit -- same records in the same first-occurrence
merge order, same filtered-out accounting, same base-mesh shipping --
and answer every frame with the uids a linear scan of the store finds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.box import Box
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.store.uids import EMPTY_UIDS, UidSet


def make_request(client_id, t, regions, exclude=None):
    return RetrieveRequest(
        timestamp=float(t),
        client_id=client_id,
        regions=tuple(regions),
        exclude_uids=exclude,
    )


def tour_requests(client_id):
    """Three frames with overlap regions, half-open bands, and splits."""
    yield make_request(
        client_id, 0.0, [RegionRequest(Box((100, 100), (400, 400)), 0.2, 1.0)]
    )
    yield make_request(
        client_id,
        1.0,
        [
            RegionRequest(Box((400, 100), (600, 400)), 0.1, 1.0),
            RegionRequest(Box((100, 100), (400, 400)), 0.1, 0.2, half_open=True),
        ],
    )
    yield make_request(
        client_id,
        2.0,
        [
            RegionRequest(Box((200, 200), (800, 800)), 0.4, 1.0),
            RegionRequest(Box((0, 0), (200, 200)), 0.0, 1.0),
        ],
    )


def drive(server, client_id, to_batch):
    """Run the tour, returning per-frame response digests."""
    server.reset_client(client_id)
    sent = EMPTY_UIDS
    digests = []
    for request in tour_requests(client_id):
        request = make_request(
            client_id, request.timestamp, request.regions, exclude=sent
        )
        if to_batch:
            response = server.execute_batch(request).to_response()
        else:
            response = server.execute_per_record(request)
        uids = [r.uid for r in response.records]
        sent = sent.union(UidSet.from_tuples(uids))
        digests.append(
            {
                "uids": uids,
                "displacements": response.displacements,
                "payload_bytes": response.payload_bytes,
                "filtered_out": response.filtered_out,
                "io_node_reads": response.io_node_reads,
                "bases": [b.object_id for b in response.base_meshes],
                "base_bytes": [b.size_bytes for b in response.base_meshes],
            }
        )
    return digests


class TestBatchParity:
    def test_tree_database_identical(self, tiny_server):
        """Same access method underneath: every field must agree."""
        per_record = drive(tiny_server, 11, to_batch=False)
        batch = drive(tiny_server, 12, to_batch=True)
        assert batch == per_record

    def test_batch_uids_match_linear_scan(self, tiny_city, tiny_server):
        """Every frame ships exactly the uids a linear scan of the store
        answers for its regions, less those sent on earlier frames."""
        store = tiny_city.store
        sent: set = set()
        for request, digest in zip(
            tour_requests(13), drive(tiny_server, 13, to_batch=True)
        ):
            scanned = set()
            for region in request.regions:
                rows = store.filter_rows(
                    region.region,
                    region.w_min,
                    region.w_max,
                    half_open=region.half_open,
                )
                scanned |= {store.record(int(row)).uid for row in rows}
            assert set(digest["uids"]) == scanned - sent
            sent |= scanned

    def test_execute_is_the_batch_path(self, tiny_server):
        request = next(tour_requests(15))
        via_execute = tiny_server.execute(request)
        tiny_server.reset_client(15)
        via_batch = tiny_server.execute_batch(request).to_response()
        assert [r.uid for r in via_execute.records] == [
            r.uid for r in via_batch.records
        ]
        assert via_execute.payload_bytes == via_batch.payload_bytes

    def test_merge_keeps_first_occurrence(self, tiny_server):
        """A uid matched by two regions is reported once, first wins."""
        frame = Box((100, 100), (500, 500))
        request = make_request(
            16,
            0.0,
            [RegionRequest(frame, 0.0, 1.0), RegionRequest(frame, 0.0, 1.0)],
        )
        response = tiny_server.execute_batch(request)
        uids = response.batch.uids
        assert len(uids) == response.record_count
        packed = tiny_server.database.store.packed_uids[response.batch.rows]
        assert np.unique(packed).size == packed.size

    def test_exclude_set_accepts_legacy_frozenset(self, tiny_server):
        frame = Box((0, 0), (1000, 1000))
        first = tiny_server.execute_batch(
            make_request(17, 0.0, [RegionRequest(frame, 0.0, 1.0)])
        )
        delivered = first.batch.uids.to_frozenset()
        second = tiny_server.execute_batch(
            make_request(
                17, 1.0, [RegionRequest(frame, 0.0, 1.0)], exclude=delivered
            )
        )
        assert second.record_count == 0
        assert second.filtered_out == len(delivered)
