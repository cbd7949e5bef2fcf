"""CoefficientStore construction, record-view parity, and batch queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StoreError
from repro.geometry.box import Box
from repro.store.columns import COEFF_DTYPE, CoefficientStore
from repro.store.uids import pack_uid
from repro.wavelets.encoding import DEFAULT_ENCODING


@pytest.fixture(scope="module")
def store(small_decomposition) -> CoefficientStore:
    return small_decomposition.column_store(object_id=5)


@pytest.fixture(scope="module")
def reference_records(small_decomposition):
    return small_decomposition.records(object_id=5)


class TestConstruction:
    def test_row_count_matches_records(self, store, reference_records):
        assert len(store) == len(reference_records)

    def test_base_rows_first(self, store, small_decomposition):
        nb = small_decomposition.base.vertex_count
        assert int(store.base_mask.sum()) == nb
        assert bool(store.base_mask[:nb].all())
        assert np.allclose(store.values[:nb], 1.0)

    def test_concat_stacks_objects(self, small_decomposition):
        a = small_decomposition.column_store(object_id=1)
        b = small_decomposition.column_store(object_id=2)
        both = CoefficientStore.concat([a, b])
        assert len(both) == len(a) + len(b)
        assert set(np.unique(both.object_ids)) == {1, 2}

    def test_concat_empty_is_empty(self):
        assert len(CoefficientStore.concat([])) == 0

    def test_rejects_wrong_dtype(self):
        with pytest.raises(StoreError):
            CoefficientStore(np.zeros(3, dtype=np.int64))

    def test_rejects_multidimensional(self):
        with pytest.raises(StoreError):
            CoefficientStore(np.zeros((2, 2), dtype=COEFF_DTYPE))

    def test_hot_columns_are_contiguous(self, store):
        for column in (store.values, store.support_low, store.support_high):
            assert column.flags["C_CONTIGUOUS"]
            assert not column.flags["WRITEABLE"]


class TestRecordViewParity:
    """Row ``i`` of the store must be record ``i`` of the legacy path."""

    def test_every_row_matches(self, store, reference_records):
        for i, ref in enumerate(reference_records):
            view = store.record(i)
            assert view.uid == ref.uid
            assert view.kind == ref.kind
            assert view.value == pytest.approx(ref.value)
            assert view.size_bytes == ref.size_bytes
            assert np.allclose(view.position, ref.position)
            assert np.allclose(view.support_box.low, ref.support_box.low)
            assert np.allclose(view.support_box.high, ref.support_box.high)

    def test_records_slice(self, store, reference_records):
        rows = np.array([0, 3, len(store) - 1])
        views = store.records(rows)
        assert [v.uid for v in views] == [reference_records[r].uid for r in rows]

    def test_record_out_of_range(self, store):
        with pytest.raises(StoreError):
            store.record(len(store))

    def test_payload_bytes_is_sum_of_sizes(self, store, reference_records):
        rows = np.arange(0, len(store), 3, dtype=np.int64)
        expected = sum(reference_records[r].size_bytes for r in rows)
        assert store.payload_bytes(rows) == expected

    def test_detail_payload_is_displacement(self, small_decomposition, store):
        nb = small_decomposition.base.vertex_count
        level0 = small_decomposition.levels[0]
        assert np.allclose(
            store.payloads[nb : nb + level0.count], level0.displacements
        )


class TestUidLookup:
    def test_rows_for_packed_roundtrip(self, store):
        rng = np.random.default_rng(3)
        rows = rng.choice(len(store), size=20, replace=False).astype(np.int64)
        recovered = store.rows_for_packed(store.packed_uids[rows])
        assert np.array_equal(recovered, rows)

    def test_row_for_uid(self, store, reference_records):
        for i in (0, len(store) // 2, len(store) - 1):
            assert store.row_for_uid(reference_records[i].uid) == i

    def test_unknown_uid_rejected(self, store):
        with pytest.raises(StoreError):
            store.rows_for_packed(
                np.array([pack_uid(999_999, 0, 0)], dtype=np.int64)
            )

    def test_uid_order_and_rank_on_shuffled_rows(self, store):
        """Rank is the inverse of the stable uid argsort, not the row id."""
        perm = np.random.default_rng(8).permutation(len(store))
        shuffled = CoefficientStore(store.data[perm])
        order, rank = shuffled.uid_order, shuffled.uid_rank
        identity = np.arange(len(store))
        assert not np.array_equal(rank, identity)
        assert np.all(np.diff(shuffled.packed_uids[order]) > 0)
        assert np.array_equal(rank[order], identity)
        assert np.array_equal(order[rank], identity)
        # Sorting rows by rank is sorting them by uid.
        rows = np.random.default_rng(9).choice(len(store), 25, replace=False)
        assert np.array_equal(
            rows[np.argsort(rank[rows])],
            rows[np.argsort(shuffled.packed_uids[rows])],
        )
        for cached in (order, rank):
            assert cached.dtype == np.int64 and not cached.flags.writeable
        assert shuffled.uid_rank is rank and shuffled.uid_order is order
        assert np.array_equal(
            shuffled.rows_for_packed(shuffled.packed_uids[rows]), rows
        )

    def test_uid_set(self, store, reference_records):
        rows = np.array([1, 4, 7], dtype=np.int64)
        assert store.uid_set(rows) == {reference_records[r].uid for r in rows}


def _reference_filter(records, region, w_min, w_max, *, half_open=False):
    """The per-record predicate, projected like the 2-D access methods."""
    out = []
    for i, r in enumerate(records):
        in_band = (
            w_min <= r.value < w_max if half_open else w_min <= r.value <= w_max
        )
        low, high = r.support_box.low, r.support_box.high
        overlaps = all(
            low[a] <= region.high[a] and region.low[a] <= high[a]
            for a in range(region.ndim)
        )
        if in_band and overlaps:
            out.append(i)
    return out


class TestFilterRows:
    @pytest.mark.parametrize("half_open", [False, True])
    def test_matches_per_record_predicate(
        self, store, reference_records, half_open
    ):
        region = Box((60.0, 160.0), (140.0, 240.0))
        rows = store.filter_rows(region, 0.1, 0.9, half_open=half_open)
        expected = _reference_filter(
            reference_records, region, 0.1, 0.9, half_open=half_open
        )
        assert rows.tolist() == expected

    def test_full_band_full_space_returns_everything(self, store):
        region = Box((-1e6, -1e6), (1e6, 1e6))
        assert len(store.filter_rows(region, 0.0, 1.0)) == len(store)

    def test_disjoint_region_returns_nothing(self, store):
        region = Box((5000.0, 5000.0), (5001.0, 5001.0))
        assert len(store.filter_rows(region, 0.0, 1.0)) == 0

    def test_invalid_band_rejected(self, store):
        with pytest.raises(StoreError):
            store.filter_rows(Box((0, 0), (1, 1)), 0.8, 0.2)

    def test_invalid_spatial_dims_rejected(self, store):
        with pytest.raises(StoreError):
            store.filter_rows(Box((0, 0), (1, 1)), 0.0, 1.0, spatial_dims=4)

    def test_encoding_sizes(self, store, small_decomposition):
        base_rows = np.flatnonzero(store.base_mask)
        assert store.payload_bytes(base_rows) == (
            small_decomposition.base.vertex_count
            * DEFAULT_ENCODING.base_vertex_bytes()
        )
