"""ShardedDatabase vs the monolithic packed index: exact parity.

The scatter-gather path must return the same *row set* (hence the same
uid set and payloads) as the single packed index for every window
query, at every shard count -- including ``S == 1``, where the I/O
accounting must also match bit for bit (same tree, pruning bypassed).
Runs under ``hypothesis`` when installed, seeded-random
parametrization otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShardError
from repro.geometry.box import Box
from repro.server.database import ObjectDatabase
from repro.shard import (
    SerialShardExecutor,
    ShardMap,
    ShardedDatabase,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

SHARD_COUNTS = [1, 2, 4, 8]

#: Mixed workload: a broad sweep, two mid-size windows, a band-limited
#: window, and a guaranteed miss (outside the cityscape).
QUERIES = [
    (Box((0.0, 0.0), (1000.0, 1000.0)), 0.0, 1.0),
    (Box((100.0, 100.0), (450.0, 450.0)), 0.2, 1.0),
    (Box((500.0, 200.0), (900.0, 800.0)), 0.0, 0.6),
    (Box((250.0, 600.0), (750.0, 950.0)), 0.5, 0.9),
    (Box((2000.0, 2000.0), (2100.0, 2100.0)), 0.0, 1.0),
]

_CACHE: dict = {}


def sharded_for(city, shards: int, tiling: str = "str") -> ShardedDatabase:
    """Cache builds: hypothesis reruns must not re-tile per example."""
    key = (id(city), shards, tiling)
    if key not in _CACHE:
        _CACHE[key] = ShardedDatabase.from_database(
            city, shards, tiling=tiling
        )
    return _CACHE[key]


def assert_same_rows(sharded_result, reference_result, store) -> None:
    assert np.array_equal(
        np.sort(sharded_result.rows), np.sort(reference_result.rows)
    )
    assert set(store.packed_uids[sharded_result.rows].tolist()) == set(
        store.packed_uids[reference_result.rows].tolist()
    )


class TestScatterGatherParity:
    @pytest.mark.parametrize("tiling", ["str", "grid"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_rows_and_uids_match_unsharded(self, shard_city, shards, tiling):
        db = sharded_for(shard_city, shards, tiling)
        for region, w_min, w_max in QUERIES:
            result = db.query_region_rows(region, w_min, w_max)
            reference = shard_city.query_region_rows(region, w_min, w_max)
            assert_same_rows(result, reference, shard_city.store)

    def test_single_shard_io_is_bit_identical(self, shard_city):
        """S == 1 is the same tree: every I/O counter must agree, even
        on a miss (the pruning bypass keeps the root-read billing)."""
        db = sharded_for(shard_city, 1)
        for region, w_min, w_max in QUERIES:
            result = db.query_region_rows(region, w_min, w_max)
            reference = shard_city.query_region_rows(region, w_min, w_max)
            assert result.io == reference.io

    def test_gathered_rows_in_canonical_uid_order(self, shard_city):
        db = sharded_for(shard_city, 8)
        result = db.query_region_rows(Box((0, 0), (1000, 1000)), 0.0, 1.0)
        uids = shard_city.store.packed_uids[result.rows]
        assert result.rows.size > 0
        assert np.all(np.diff(uids) > 0)

    def test_io_queries_counts_consulted_shards(self, shard_city):
        db = sharded_for(shard_city, 8)
        region, w_min, w_max = QUERIES[0]
        planned = db.plan(region, w_min, w_max)
        result = db.query_region_rows(region, w_min, w_max)
        assert result.io.queries == planned.size

    def test_query_region_materialises_same_records(self, shard_city):
        db = sharded_for(shard_city, 4)
        region, w_min, w_max = QUERIES[1]
        sharded = db.query_region(region, w_min, w_max)
        reference = shard_city.query_region(region, w_min, w_max)
        assert {r.uid for r in sharded.records} == {
            r.uid for r in reference.records
        }
        assert len(sharded.records) == len(reference.records)


def check_random_query(city, shards, cx, cy, half, w_lo, w_hi) -> None:
    region = Box((cx - half, cy - half), (cx + half, cy + half))
    w_min, w_max = min(w_lo, w_hi), max(w_lo, w_hi)
    db = sharded_for(city, shards)
    result = db.query_region_rows(region, w_min, w_max)
    reference = city.query_region_rows(region, w_min, w_max)
    assert_same_rows(result, reference, city.store)
    if shards == 1:
        assert result.io == reference.io


if HAVE_HYPOTHESIS:

    class TestPropertyParity:
        @settings(max_examples=60, deadline=None)
        @given(
            shards=st.sampled_from([1, 3, 8]),
            cx=st.floats(-100.0, 1100.0),
            cy=st.floats(-100.0, 1100.0),
            half=st.floats(1.0, 500.0),
            w_lo=st.floats(0.0, 1.0),
            w_hi=st.floats(0.0, 1.0),
        )
        def test_any_window_any_shard_count(
            self, shard_city, shards, cx, cy, half, w_lo, w_hi
        ):
            check_random_query(shard_city, shards, cx, cy, half, w_lo, w_hi)

else:  # pragma: no cover - depends on the environment

    class TestPropertyParity:
        @pytest.mark.parametrize("seed", range(20))
        def test_any_window_any_shard_count(self, shard_city, seed):
            rng = np.random.default_rng(seed)
            shards = int(rng.choice([1, 3, 8]))
            cx, cy = rng.uniform(-100.0, 1100.0, 2)
            check_random_query(
                shard_city,
                shards,
                cx,
                cy,
                float(rng.uniform(1.0, 500.0)),
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 1.0)),
            )


def scatter_corners(db: ShardedDatabase, queries):
    """Plan + scatter a corner batch through the fleet tick's scatter."""
    qlow = np.array(
        [[*region.low, w_min] for region, w_min, _ in queries], dtype=float
    )
    qhigh = np.array(
        [[*region.high, w_max] for region, _, w_max in queries], dtype=float
    )
    return db.scatter(qlow, qhigh)


def assert_flat_matches_assemble(db: ShardedDatabase, queries) -> None:
    assignments, batches = scatter_corners(db, queries)
    total = len(queries)
    flat = db.assemble_flat(assignments, batches, total)
    reference = db.assemble(assignments, batches, total)
    assert flat.query_count == total
    assert flat.offsets[0] == 0 and flat.offsets[-1] == flat.rows.size
    for array in (flat.rows, flat.qid, flat.offsets, flat.io, flat.consulted):
        assert array.dtype == np.int64
    assert np.array_equal(
        flat.qid, np.repeat(np.arange(total), np.diff(flat.offsets))
    )
    for q, want in enumerate(reference):
        got = flat.rows[flat.offsets[q] : flat.offsets[q + 1]]
        assert np.array_equal(got, want.rows)
        assert tuple(flat.io[q]) == (
            want.io.node_reads,
            want.io.leaf_reads,
            want.io.entries_scanned,
        )
        assert int(flat.consulted[q]) == want.io.queries


class TestFlatGather:
    """``assemble_flat`` (one-key sort) vs ``assemble`` (per-query argsort)."""

    #: A corner window keeps most of an 8-way tiling's shards idle;
    #: the two misses are sub-queries no shard answers.
    SPARSE = [
        QUERIES[4],
        (Box((0.0, 100.0), (250.0, 400.0)), 0.0, 1.0),
        (Box((-900.0, -900.0), (-800.0, -800.0)), 0.0, 1.0),
    ]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_row_for_row(self, shard_city, shards):
        assert_flat_matches_assemble(
            sharded_for(shard_city, shards), QUERIES + self.SPARSE
        )

    def test_misses_and_idle_shards(self, shard_city):
        db = sharded_for(shard_city, 8)
        assignments, batches = scatter_corners(db, self.SPARSE)
        assert 0 < len(batches) < db.shard_count  # some shards got no task
        flat = db.assemble_flat(assignments, batches, len(self.SPARSE))
        assert flat.offsets.tolist()[:2] == [0, 0]  # the leading miss
        assert flat.consulted.tolist()[0] == 0
        assert flat.consulted.tolist()[2] == 0
        assert flat.rows.size == flat.offsets[2] > 0
        assert_flat_matches_assemble(db, self.SPARSE)

    def test_nothing_scattered(self, shard_city):
        flat = sharded_for(shard_city, 4).assemble_flat([], [], 3)
        assert flat.rows.size == 0 and flat.qid.size == 0
        assert flat.offsets.tolist() == [0, 0, 0, 0]
        assert not flat.io.any() and not flat.consulted.any()

    def test_store_rows_not_in_uid_order(self, shard_city):
        """Descending object ids: row index and uid rank disagree, so a
        key built from the raw row id would deliver the wrong order."""
        backwards = ObjectDatabase.from_objects(
            reversed(shard_city.objects),
            encoding=shard_city.encoding,
            spatial_dims=shard_city.spatial_dims,
        )
        store = backwards.store
        assert not np.array_equal(store.uid_rank, np.arange(len(store)))
        db = ShardedDatabase.from_database(backwards, 4)
        assert_flat_matches_assemble(db, QUERIES)
        assignments, batches = scatter_corners(db, QUERIES[:1])
        flat = db.assemble_flat(assignments, batches, 1)
        assert flat.rows.size == len(store)
        assert np.all(np.diff(store.packed_uids[flat.rows]) > 0)

    def test_key_overflow_rejected(self, shard_city):
        db = sharded_for(shard_city, 4)
        fits = np.iinfo(np.int64).max // len(db.store)
        with pytest.raises(ShardError, match="overflow"):
            db.assemble_flat([], [], fits + 1)


def single_row_query(store) -> tuple[Box, float, float]:
    """A window whose answer is one row: a point inside the support of
    the row with a value no other row has, over a zero-width band."""
    values, counts = np.unique(store.values, return_counts=True)
    row = int(np.flatnonzero(store.values == values[counts == 1][0])[0])
    centre = (store.support_low[row, :2] + store.support_high[row, :2]) / 2
    value = float(store.values[row])
    return Box(centre, centre), value, value


class TestGatheredRowsOutliveTheNextScatter:
    """Gathered rows are the caller's: a later scatter on the same
    database leaves them unchanged, including a one-row answer that is
    a view of its shard's batch."""

    def test_assemble(self, shard_city):
        db = sharded_for(shard_city, 4)
        queries = [single_row_query(db.store), *QUERIES]
        results = db.assemble(*db.scatter(*db.lower(queries)), len(queries))
        assert results[0].rows.size == 1
        kept = [result.rows.copy() for result in results]
        db.scatter(*db.lower(QUERIES[::-1]))
        for result, rows in zip(results, kept):
            assert np.array_equal(result.rows, rows)

    def test_assemble_flat(self, shard_city):
        db = sharded_for(shard_city, 4)
        flat = db.assemble_flat(*db.scatter(*db.lower(QUERIES)), len(QUERIES))
        kept = flat.rows.copy()
        db.scatter(*db.lower(QUERIES[::-1]))
        assert np.array_equal(flat.rows, kept)


class TestPlanning:
    def test_corner_query_prunes_shards(self, shard_city):
        db = sharded_for(shard_city, 8)
        planned = db.plan(Box((0.0, 0.0), (60.0, 60.0)), 0.0, 1.0)
        assert planned.size < db.shard_count

    def test_single_shard_bypasses_pruning(self, shard_city):
        """Even a sure miss consults the lone shard, so its root read
        is billed exactly like the unsharded index would bill it."""
        db = sharded_for(shard_city, 1)
        miss = Box((5000.0, 5000.0), (5100.0, 5100.0))
        assert db.plan(miss, 0.0, 1.0).tolist() == [0]
        assert db.query_region_rows(miss, 0.0, 1.0).io.node_reads >= 1

    def test_plan_many_empty(self, shard_city):
        assert sharded_for(shard_city, 4).plan_many([]) == []

    def test_invalid_band_rejected(self, shard_city):
        db = sharded_for(shard_city, 4)
        with pytest.raises(ShardError):
            db.plan(Box((0, 0), (10, 10)), 0.9, 0.1)


class TestContract:
    def test_immutable(self, shard_city, small_decomposition):
        db = sharded_for(shard_city, 4)
        with pytest.raises(ShardError):
            db.add_object(999, small_decomposition)

    def test_no_global_access_method(self, shard_city):
        db = sharded_for(shard_city, 4)
        with pytest.raises(ShardError):
            db.access_method
        assert db.packed_access_method() is None

    def test_shard_map_must_cover_database(self, shard_city):
        partial = ShardMap.build(
            [obj.footprint for obj in shard_city.objects[:5]], 2
        )
        with pytest.raises(ShardError):
            ShardedDatabase(shard_city, partial)

    def test_shard_bounds(self, shard_city):
        db = sharded_for(shard_city, 4)
        for shard in range(db.shard_count):
            bounds = db.shard_bounds(shard)
            assert np.all(bounds.low <= bounds.high)
        with pytest.raises(ShardError):
            db.shard_bounds(db.shard_count)

    def test_row_maps_partition_global_store(self, shard_city):
        db = sharded_for(shard_city, 8)
        rows = np.concatenate([sl.row_map for sl in db.slices])
        assert np.array_equal(np.sort(rows), np.arange(len(db.store)))

    def test_unbound_executor_rejected(self):
        with pytest.raises(ShardError):
            SerialShardExecutor().run([])
