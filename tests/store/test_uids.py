"""Packed uid codec and UidSet set-algebra tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StoreError
from repro.store.uids import (
    EMPTY_UIDS,
    INDEX_LIMIT,
    LEVEL_LIMIT,
    OBJECT_ID_LIMIT,
    UidSet,
    pack_uid,
    pack_uid_arrays,
    sorted_isin,
    sorted_union,
    sorted_unique,
    unpack_uid,
    unpack_uid_arrays,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


class TestPacking:
    @pytest.mark.parametrize(
        "uid",
        [
            (0, -1, 0),
            (0, 0, 0),
            (7, 2, 31),
            (OBJECT_ID_LIMIT - 1, LEVEL_LIMIT - 2, INDEX_LIMIT - 1),
        ],
    )
    def test_roundtrip(self, uid):
        assert unpack_uid(pack_uid(*uid)) == uid

    @pytest.mark.parametrize(
        "uid",
        [
            (-1, 0, 0),
            (OBJECT_ID_LIMIT, 0, 0),
            (0, -2, 0),
            (0, LEVEL_LIMIT - 1, 0),
            (0, 0, -1),
            (0, 0, INDEX_LIMIT),
        ],
    )
    def test_out_of_range_rejected(self, uid):
        with pytest.raises(StoreError):
            pack_uid(*uid)

    def test_array_codec_matches_scalar(self):
        rng = np.random.default_rng(5)
        oids = rng.integers(0, 500, size=200)
        levels = rng.integers(-1, 6, size=200)
        indices = rng.integers(0, 10_000, size=200)
        packed = pack_uid_arrays(oids, levels, indices)
        for i in range(200):
            assert int(packed[i]) == pack_uid(
                int(oids[i]), int(levels[i]), int(indices[i])
            )
        o2, l2, i2 = unpack_uid_arrays(packed)
        assert np.array_equal(o2, oids)
        assert np.array_equal(l2, levels)
        assert np.array_equal(i2, indices)

    def test_array_codec_rejects_out_of_range(self):
        with pytest.raises(StoreError):
            pack_uid_arrays(
                np.array([0]), np.array([-2]), np.array([0])
            )

    def test_packing_is_order_preserving(self):
        rng = np.random.default_rng(11)
        triples = sorted(
            {
                (int(o), int(lv), int(ix))
                for o, lv, ix in zip(
                    rng.integers(0, 50, 300),
                    rng.integers(-1, 5, 300),
                    rng.integers(0, 1000, 300),
                )
            }
        )
        packed = [pack_uid(*t) for t in triples]
        assert packed == sorted(packed)

    def test_unpack_negative_rejected(self):
        with pytest.raises(StoreError):
            unpack_uid(-1)


def _random_tuples(rng, n):
    return {
        (int(o), int(lv), int(ix))
        for o, lv, ix in zip(
            rng.integers(0, 20, n),
            rng.integers(-1, 4, n),
            rng.integers(0, 100, n),
        )
    }


class TestUidSet:
    def test_equals_frozenset(self):
        uids = {(1, -1, 0), (1, 0, 3), (2, 1, 7)}
        s = UidSet.from_tuples(uids)
        assert s == frozenset(uids)
        assert s == uids
        assert len(s) == 3
        assert set(s) == uids
        assert s.to_frozenset() == frozenset(uids)

    def test_deduplicates(self):
        s = UidSet.from_tuples([(1, 0, 1), (1, 0, 1), (1, 0, 2)])
        assert len(s) == 2

    def test_coerce_forms(self):
        uids = frozenset({(3, 0, 1), (3, 1, 2)})
        from_fs = UidSet.coerce(uids)
        assert from_fs == uids
        assert UidSet.coerce(None) is EMPTY_UIDS
        assert UidSet.coerce(from_fs) is from_fs
        assert UidSet.coerce(from_fs.packed.copy()) == uids
        with pytest.raises(StoreError):
            UidSet.coerce(42)

    def test_contains(self):
        s = UidSet.from_tuples([(1, 0, 1), (2, -1, 0)])
        assert (1, 0, 1) in s
        assert (2, -1, 0) in s
        assert (1, 0, 2) not in s
        assert "nope" not in s

    def test_contains_packed_matches_python_membership(self):
        rng = np.random.default_rng(7)
        members = _random_tuples(rng, 150)
        probes = list(_random_tuples(rng, 150) | members)
        s = UidSet.from_tuples(members)
        keys = np.array([pack_uid(*t) for t in probes], dtype=np.int64)
        mask = s.contains_packed(keys)
        for probe, hit in zip(probes, mask):
            assert bool(hit) == (probe in members)

    def test_union_difference_match_set_algebra(self):
        rng = np.random.default_rng(13)
        a, b = _random_tuples(rng, 120), _random_tuples(rng, 120)
        sa, sb = UidSet.from_tuples(a), UidSet.from_tuples(b)
        assert sa.union(sb) == (a | b)
        assert (sa | sb) == (a | b)
        assert (sa | frozenset(b)) == (a | b)
        assert sa.difference(sb) == (a - b)
        assert sa.union(EMPTY_UIDS) is sa
        assert EMPTY_UIDS.union(sa) is sa

    def test_empty_set(self):
        assert not EMPTY_UIDS
        assert len(EMPTY_UIDS) == 0
        assert EMPTY_UIDS == frozenset()
        assert not EMPTY_UIDS.contains_packed(np.array([1, 2])).any()

    def test_hashable(self):
        a = UidSet.from_tuples([(1, 0, 1)])
        b = UidSet.from_tuples([(1, 0, 1)])
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_packed_is_read_only(self):
        s = UidSet.from_tuples([(1, 0, 1)])
        with pytest.raises(ValueError):
            s.packed[0] = 0


def _random_ids(rng, n, high=400):
    """Seeded int64 ids with plenty of repeats (``high`` < ``n`` often)."""
    return rng.integers(0, high, size=n, dtype=np.int64)


def check_kernels_against_numpy(a: np.ndarray, b: np.ndarray) -> None:
    """Each sort-based kernel equals its numpy set-routine reference."""
    ua, ub = sorted_unique(a), sorted_unique(b)
    assert ua.dtype == np.int64 and ua.ndim == 1
    assert np.array_equal(ua, np.unique(a))
    assert np.array_equal(sorted_isin(a, ub), np.isin(a, b))
    assert np.array_equal(sorted_union(ua, ub), np.union1d(a, b))
    sa, sb = UidSet(a), UidSet(b)
    assert np.array_equal(sa.union(sb).packed, np.union1d(a, b))
    assert np.array_equal(sa.union(b).packed, np.union1d(a, b))
    assert np.array_equal(sa.difference(sb).packed, np.setdiff1d(a, b))
    assert np.array_equal(sa.difference(b).packed, np.setdiff1d(a, b))
    assert np.array_equal(sa.contains_packed(b), np.isin(b, a))


class TestSortedKernels:
    @pytest.mark.parametrize("seed", range(12))
    def test_match_numpy_on_random_arrays(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(0, 300)), int(rng.integers(0, 300))
        high = int(rng.integers(1, 600))
        check_kernels_against_numpy(
            _random_ids(rng, n, high), _random_ids(rng, m, high)
        )

    @pytest.mark.parametrize(
        "values",
        [
            np.array([9, 3, 3, 7, 1, 9, 0], dtype=np.int64),  # unsorted, dups
            np.array([1, 1, 1, 1], dtype=np.int64),  # all duplicates
            np.array([2, 5, 5, 8], dtype=np.int64),  # sorted with a dup
            np.arange(0, 50, 3, dtype=np.int64),  # already canonical
            np.array([4], dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.array([[5, 1], [1, 3]], dtype=np.int64),  # 2-D
            [8, 2, 8, 3],  # a Python list
            np.array([3, 1, 2], dtype=np.int32),  # narrower dtype
        ],
    )
    def test_sorted_unique_equals_np_unique(self, values):
        got = sorted_unique(values)
        assert got.dtype == np.int64 and got.ndim == 1
        assert np.array_equal(got, np.unique(np.asarray(values)))

    def test_sorted_unique_returns_a_fresh_array(self):
        canonical = np.arange(10, dtype=np.int64)
        got = sorted_unique(canonical)
        assert not np.shares_memory(got, canonical)
        got[0] = 99
        assert canonical[0] == 0

    def test_sorted_isin_shapes_and_empty_members(self):
        keys = np.array([[1, 2], [3, 4]], dtype=np.int64)
        members = np.array([2, 4, 9], dtype=np.int64)
        assert np.array_equal(sorted_isin(keys, members), np.isin(keys, members))
        empty = sorted_isin(keys, np.empty(0, dtype=np.int64))
        assert empty.shape == keys.shape and not empty.any()
        assert bool(sorted_isin(4, members))
        assert not bool(sorted_isin(5, members))

    def test_sorted_union_returns_base_when_nothing_is_new(self):
        base = np.array([1, 4, 6], dtype=np.int64)
        assert sorted_union(base, np.array([4, 6], dtype=np.int64)) is base
        assert sorted_union(base, np.empty(0, dtype=np.int64)) is base
        merged = sorted_union(base, np.array([0, 5, 9], dtype=np.int64))
        assert merged.tolist() == [0, 1, 4, 5, 6, 9]

    def test_union_returns_self_when_nothing_is_new(self):
        s = UidSet(np.array([3, 8, 12], dtype=np.int64))
        assert s.union(np.array([12, 3], dtype=np.int64)) is s
        assert s.union(UidSet(np.array([8], dtype=np.int64))) is s
        assert EMPTY_UIDS.union(np.empty(0, dtype=np.int64)) is EMPTY_UIDS

    def test_negative_uid_rejected(self):
        with pytest.raises(StoreError):
            UidSet(np.array([5, -1, 3], dtype=np.int64))
        with pytest.raises(StoreError):
            UidSet.from_packed([-7])

    @pytest.mark.parametrize("values", [[7, 2, 7, 1], [1, 2, 7]])
    def test_construction_never_freezes_or_aliases_the_input(self, values):
        arr = np.array(values, dtype=np.int64)
        s = UidSet(arr)
        assert arr.flags.writeable
        assert not np.shares_memory(s.packed, arr)
        before = s.packed.copy()
        arr[:] = 0
        assert np.array_equal(s.packed, before)
        t = UidSet.from_packed(arr)
        assert arr.flags.writeable
        assert not np.shares_memory(t.packed, arr)


if HAVE_HYPOTHESIS:
    _ids = st.lists(
        st.integers(min_value=0, max_value=(1 << 62) - 1), max_size=80
    )

    @settings(max_examples=60, deadline=None)
    @given(_ids, _ids, st.integers(min_value=0, max_value=3))
    def test_kernels_match_numpy_hypothesis(a, b, small):
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        if small:
            # Fold the values onto a few ids so duplicates and overlaps
            # between the two sides are common, not vanishingly rare.
            a_arr, b_arr = a_arr % (4 * small), b_arr % (4 * small)
        check_kernels_against_numpy(a_arr, b_arr)
