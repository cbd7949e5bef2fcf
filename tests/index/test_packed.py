"""PackedIndex vs object-tree traversal: exact parity.

The packed compilation must answer every window query with the same
payload/row sets AND the same node-access accounting as the object walk
(``search_entries``), on every build path (dynamic Guttman, dynamic R*,
STR and Hilbert bulk loads), so paper-figure I/O numbers survive the
flat traversal unchanged.  The batch walk (``query_slots_many``) is in
turn pinned against a loop of solo ``query_slots`` calls: same slots in
the same order, same per-query I/O matrix, same aggregate billing.
Runs under ``hypothesis`` when installed;
the same property is always exercised by seeded-random parametrization
(pattern from ``tests/store/test_properties.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geometry.box import Box
from repro.index.access import MotionAwareAccessMethod
from repro.index.bulk import bulk_load
from repro.index.hilbert import hilbert_bulk_load
from repro.index.packed import (
    PackedAccessMethod,
    PackedIndex,
    PackedLevel,
    query_corner_box,
    region_corners,
    subquery_corners,
)
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

SEEDS = list(range(20))


def build_tree(builder: str, items, max_entries: int = 8) -> RTree:
    if builder == "str":
        return bulk_load(items, max_entries=max_entries)
    if builder == "hilbert":
        return hilbert_bulk_load(items, max_entries=max_entries)
    tree_class = RTree if builder == "guttman" else RStarTree
    tree = tree_class(max_entries=max_entries)
    for box, payload in items:
        tree.insert(box, payload)
    return tree


def random_items(rng, n: int, ndim: int):
    low = rng.uniform(0.0, 100.0, (n, ndim))
    high = low + rng.uniform(0.0, 8.0, (n, ndim))
    return [(Box(low[i], high[i]), i) for i in range(n)]


def assert_query_parity(tree: RTree, packed: PackedIndex, box: Box) -> None:
    """Same rows AND the same I/O deltas for one window query."""
    tree.stats.push()
    want = sorted(int(e.payload) for e in tree.search_entries(box))
    tree_io = tree.stats.pop_delta()
    packed.stats.push()
    got = sorted(int(p) for p in packed.search(box))
    packed_io = packed.stats.pop_delta()
    assert got == want
    assert packed_io.node_reads == tree_io.node_reads
    assert packed_io.leaf_reads == tree_io.leaf_reads
    assert packed_io.entries_scanned == tree_io.entries_scanned
    assert packed_io.queries == tree_io.queries


class TestCompilation:
    @pytest.mark.parametrize("builder", ["str", "hilbert", "guttman", "rstar"])
    def test_structure_preserved(self, builder):
        rng = np.random.default_rng(0)
        items = random_items(rng, 300, 2)
        tree = build_tree(builder, items)
        packed = PackedIndex.from_tree(tree)
        assert len(packed) == len(tree)
        assert packed.height == tree.height
        assert packed.ndim == tree.ndim
        # Every level's entries partition into its nodes.
        for level in packed.levels:
            assert level.node_start[0] == 0
            assert level.node_start[-1] == level.entry_count
            assert np.all(np.diff(level.node_start) >= 1)

    def test_empty_tree(self):
        packed = PackedIndex.from_tree(RTree())
        assert len(packed) == 0
        assert packed.height == 0
        rows = packed.query_rows(Box((0.0, 0.0), (1.0, 1.0)))
        assert rows.size == 0
        # An empty query still counts as a query, with no node touched.
        assert packed.stats.queries == 1
        assert packed.stats.node_reads == 0

    def test_search_returns_payloads(self):
        rng = np.random.default_rng(1)
        items = [(box, f"obj{i}") for box, i in random_items(rng, 120, 2)]
        tree = bulk_load(items, max_entries=8)
        packed = PackedIndex.from_tree(tree)
        box = Box((10.0, 10.0), (60.0, 60.0))
        assert sorted(packed.search(box)) == sorted(tree.search(box))
        assert packed.count(box) == len(tree.search(box))


class TestTraversalParitySeeded:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("builder", ["str", "hilbert", "guttman", "rstar"])
    def test_random_boxes(self, builder, seed):
        rng = np.random.default_rng(seed)
        items = random_items(rng, 250, 3)
        tree = build_tree(builder, items)
        packed = PackedIndex.from_tree(tree)
        for _ in range(6):
            lo = rng.uniform(0.0, 100.0, 3)
            assert_query_parity(tree, packed, Box(lo, lo + rng.uniform(1, 40, 3)))

    def test_degenerate_and_all_covering_boxes(self):
        rng = np.random.default_rng(99)
        items = random_items(rng, 200, 2)
        tree = bulk_load(items, max_entries=8)
        packed = PackedIndex.from_tree(tree)
        assert_query_parity(tree, packed, Box((50.0, 50.0), (50.0, 50.0)))
        assert_query_parity(tree, packed, Box((-10.0, -10.0), (200.0, 200.0)))
        assert_query_parity(tree, packed, Box((-20.0, -20.0), (-15.0, -15.0)))


def random_corners(rng, nq: int, ndim: int):
    low = rng.uniform(-10.0, 100.0, (nq, ndim))
    return low, low + rng.uniform(0.0, 40.0, (nq, ndim))


def assert_batch_parity(
    packed: PackedIndex, qlow: np.ndarray, qhigh: np.ndarray
) -> None:
    """The batch walk equals a loop of solo walks, order and billing too."""
    empty = np.empty(0, dtype=np.int64)
    want_slots, want_qid, want_io = [empty], [empty], []
    for q in range(len(qlow)):
        packed.stats.push()
        slots = packed.query_slots(Box(qlow[q], qhigh[q]))
        solo = packed.stats.pop_delta()
        want_slots.append(slots)
        want_qid.append(np.full(slots.size, q, dtype=np.int64))
        want_io.append(
            (solo.node_reads, solo.leaf_reads, solo.entries_scanned)
        )
    packed.stats.push()
    slots, slot_qid, io = packed.query_slots_many(qlow, qhigh)
    billed = packed.stats.pop_delta()
    for array in (slots, slot_qid, io):
        assert array.dtype == np.int64
    assert np.array_equal(slots, np.concatenate(want_slots))
    assert np.array_equal(slot_qid, np.concatenate(want_qid))
    assert np.array_equal(
        io, np.array(want_io, dtype=np.int64).reshape(-1, 3)
    )
    assert billed.queries == len(qlow)
    assert billed.node_reads == int(io[:, 0].sum())
    assert billed.leaf_reads == int(io[:, 1].sum())
    assert billed.entries_scanned == int(io[:, 2].sum())


class TestBatchWalkParity:
    """``query_slots_many`` vs a loop of solo ``query_slots`` calls."""

    @pytest.mark.parametrize("seed", SEEDS[:8])
    @pytest.mark.parametrize("builder", ["str", "hilbert", "guttman", "rstar"])
    def test_random_batches(self, builder, seed):
        rng = np.random.default_rng(seed)
        packed = PackedIndex.from_tree(
            build_tree(builder, random_items(rng, 250, 3))
        )
        assert_batch_parity(packed, *random_corners(rng, 40, 3))

    def test_degenerate_and_all_covering_boxes(self):
        rng = np.random.default_rng(99)
        packed = PackedIndex.from_tree(
            bulk_load(random_items(rng, 200, 2), max_entries=8)
        )
        qlow = np.array(
            [[50.0, 50.0], [-10.0, -10.0], [-20.0, -20.0], [30.0, 30.0]]
        )
        qhigh = np.array(
            [[50.0, 50.0], [200.0, 200.0], [-15.0, -15.0], [30.0, 70.0]]
        )
        assert_batch_parity(packed, qlow, qhigh)
        slots, slot_qid, _ = packed.query_slots_many(qlow, qhigh)
        # The all-covering box answers every leaf slot, in slot order.
        assert np.array_equal(slots[slot_qid == 1], np.arange(len(packed)))
        assert not (slot_qid == 2).any()

    def test_every_query_dies_at_the_root(self):
        rng = np.random.default_rng(3)
        packed = PackedIndex.from_tree(
            bulk_load(random_items(rng, 300, 2), max_entries=8)
        )
        assert packed.height >= 3
        qlow = np.full((5, 2), -50.0)
        qhigh = np.full((5, 2), -40.0)
        assert_batch_parity(packed, qlow, qhigh)
        slots, slot_qid, io = packed.query_slots_many(qlow, qhigh)
        assert slots.size == 0 and slot_qid.size == 0
        # Early exit: only the root was read, and it is not a leaf.
        root_entries = packed.levels[0].entry_count
        assert np.array_equal(io, np.tile([1, 0, root_entries], (5, 1)))

    def test_empty_batch_and_empty_index(self):
        rng = np.random.default_rng(4)
        packed = PackedIndex.from_tree(
            bulk_load(random_items(rng, 50, 2), max_entries=8)
        )
        slots, slot_qid, io = packed.query_slots_many(
            np.empty((0, 2)), np.empty((0, 2))
        )
        assert slots.size == 0 and slot_qid.size == 0
        assert io.shape == (0, 3)
        assert packed.stats.queries == 0 and packed.stats.node_reads == 0
        empty = PackedIndex.from_tree(RTree())
        slots, slot_qid, io = empty.query_slots_many(
            *random_corners(rng, 3, 2)
        )
        assert slots.size == 0 and slot_qid.size == 0
        assert np.array_equal(io, np.zeros((3, 3), dtype=np.int64))
        # Three queries were asked; no node exists to read.
        assert empty.stats.queries == 3 and empty.stats.node_reads == 0

    def test_malformed_corners_rejected(self):
        rng = np.random.default_rng(5)
        packed = PackedIndex.from_tree(
            bulk_load(random_items(rng, 50, 2), max_entries=8)
        )
        with pytest.raises(IndexError_, match="does not match index"):
            packed.query_slots_many(*random_corners(rng, 4, 3))
        with pytest.raises(IndexError_, match="matching"):
            packed.query_slots_many(np.zeros((4, 2)), np.zeros((3, 2)))
        with pytest.raises(IndexError_, match="matching"):
            packed.query_slots_many(np.zeros(2), np.zeros(2))

    def test_index_over_read_only_buffer_views(self):
        """An index over read-only ``np.frombuffer`` views.

        The per-axis columns must derive from arrays that can be
        neither written nor re-owned, and must leave them untouched.
        """
        rng = np.random.default_rng(6)
        source = PackedIndex.from_tree(
            bulk_load(random_items(rng, 300, 3), max_entries=8)
        )

        def view(array: np.ndarray) -> np.ndarray:
            out = np.frombuffer(array.tobytes(), dtype=array.dtype)
            assert not out.flags.writeable and not out.flags.owndata
            return out.reshape(array.shape)

        levels = [
            PackedLevel(
                low=view(level.low),
                high=view(level.high),
                node_start=view(level.node_start),
            )
            for level in source.levels
        ]
        attached = PackedIndex(levels, view(source.rows), (), ndim=source.ndim)
        qlow, qhigh = random_corners(rng, 30, 3)
        assert_batch_parity(attached, qlow, qhigh)
        want = source.query_slots_many(qlow, qhigh)
        for _ in range(2):  # second walk reads the cached columns
            got = attached.query_slots_many(qlow, qhigh)
            for have, expect in zip(got, want):
                assert np.array_equal(have, expect)
        for level, original in zip(attached.levels, source.levels):
            low_cols, high_cols = level.axis_columns
            assert low_cols is level.axis_columns[0]  # derived once
            assert np.array_equal(low_cols, original.low.T)
            assert np.array_equal(high_cols, original.high.T)
            assert low_cols[0].flags.c_contiguous
            assert np.array_equal(level.low, original.low)


class TestAccessMethodParitySeeded:
    """Store-backed packed method vs the record-backed object tree."""

    @pytest.fixture(scope="class")
    def methods(self, tiny_city):
        packed = PackedAccessMethod(tiny_city.store)
        reference = MotionAwareAccessMethod(tiny_city.all_records())
        return packed, reference

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_queries(self, methods, tiny_city, seed):
        packed, reference = methods
        store = tiny_city.store
        rng = np.random.default_rng(seed)
        for _ in range(4):
            center = rng.uniform(0.0, 1000.0, 2)
            extent = rng.uniform(5.0, 400.0, 2)
            region = Box(center - extent / 2, center + extent / 2)
            band = np.sort(rng.uniform(0.0, 1.0, 2))
            w_min, w_max = float(band[0]), float(band[1])
            got = packed.query_rows(region, w_min, w_max)
            want = reference.query(region, w_min, w_max)
            got_uids = {tuple(int(x) for x in u) for u in
                        (r.uid for r in store.records(got.rows))}
            want_uids = {r.uid for r in want.records}
            assert got_uids == want_uids
            assert got.io.node_reads == want.io.node_reads
            assert got.io.leaf_reads == want.io.leaf_reads
            assert got.io.entries_scanned == want.io.entries_scanned

    def test_half_open_band(self, methods, tiny_city):
        packed, _ = methods
        store = tiny_city.store
        region = Box((0.0, 0.0), (1000.0, 1000.0))
        closed = packed.query_rows(region, 0.0, 0.5)
        trimmed = packed.query_rows(region, 0.0, 0.5, half_open=True)
        assert set(trimmed.rows.tolist()) == {
            int(r) for r in closed.rows if store.values[int(r)] < 0.5
        }

    def test_invalid_band_rejected(self, methods):
        packed, _ = methods
        region = Box((0.0, 0.0), (10.0, 10.0))
        with pytest.raises(IndexError_):
            packed.query_rows(region, 0.6, 0.4)


@pytest.mark.parametrize("region_dims, spatial_dims", [(2, 2), (3, 2), (2, 3)])
def test_subquery_corners_match_query_corner_box(region_dims, spatial_dims):
    """The scatter path's one lowering is ``query_corner_box``, stacked."""
    rng = np.random.default_rng(region_dims * 10 + spatial_dims)
    subqueries = []
    for _ in range(6):
        low = rng.uniform(0.0, 100.0, region_dims)
        band = np.sort(rng.uniform(0.0, 1.0, 2))
        subqueries.append(
            (Box(low, low + rng.uniform(0.0, 50.0, region_dims)),
             float(band[0]), float(band[1]))
        )
    qlow, qhigh = subquery_corners(subqueries, spatial_dims)
    assert qlow.shape == qhigh.shape == (6, spatial_dims + 1)
    for i, (region, w_min, w_max) in enumerate(subqueries):
        box = query_corner_box(region, w_min, w_max, spatial_dims)
        assert qlow[i].tobytes() == box.low.tobytes()
        assert qhigh[i].tobytes() == box.high.tobytes()
    empty_low, empty_high = subquery_corners([], spatial_dims)
    assert empty_low.shape == empty_high.shape == (0, spatial_dims + 1)
    with pytest.raises(IndexError_):
        subquery_corners([(subqueries[0][0], 0.6, 0.4)], spatial_dims)
    # The array form, for region stacks sharing one band.
    low = np.vstack([region.low for region, _, _ in subqueries])
    high = np.vstack([region.high for region, _, _ in subqueries])
    want_low, want_high = subquery_corners(
        [(region, 0.25, 0.75) for region, _, _ in subqueries], spatial_dims
    )
    got_low, got_high = region_corners(low, high, 0.25, 0.75, spatial_dims)
    assert got_low.tobytes() == want_low.tobytes()
    assert got_high.tobytes() == want_high.tobytes()
    assert got_low.shape == got_high.shape == (6, spatial_dims + 1)
    assert region_corners(low[:0], high[:0], 0.0, 1.0, spatial_dims)[0].shape == (
        0,
        spatial_dims + 1,
    )
    with pytest.raises(IndexError_):
        region_corners(low, high, 0.6, 0.4, spatial_dims)
    with pytest.raises(IndexError_):
        region_corners(low[:, :1], high[:, :1], 0.0, 1.0, spatial_dims)


if HAVE_HYPOTHESIS:

    @pytest.fixture(scope="module")
    def hyp_pair():
        rng = np.random.default_rng(7)
        items = random_items(rng, 400, 3)
        tree = bulk_load(items, max_entries=8, tree_class=RStarTree)
        return tree, PackedIndex.from_tree(tree)

    class TestTraversalParityHypothesis:
        @settings(max_examples=80, deadline=None)
        @given(
            cx=st.floats(-10.0, 110.0),
            cy=st.floats(-10.0, 110.0),
            cw=st.floats(-10.0, 110.0),
            ex=st.floats(0.0, 60.0),
            ey=st.floats(0.0, 60.0),
            ew=st.floats(0.0, 60.0),
        )
        def test_any_box(self, hyp_pair, cx, cy, cw, ex, ey, ew):
            tree, packed = hyp_pair
            low = np.array([cx - ex / 2, cy - ey / 2, cw - ew / 2])
            high = np.array([cx + ex / 2, cy + ey / 2, cw + ew / 2])
            assert_query_parity(tree, packed, Box(low, high))

    class TestBatchWalkParityHypothesis:
        @settings(max_examples=60, deadline=None)
        @given(
            boxes=st.lists(
                st.tuples(
                    *[st.floats(-10.0, 110.0)] * 3,
                    *[st.floats(0.0, 60.0)] * 3,
                ),
                max_size=12,
            )
        )
        def test_any_batch(self, hyp_pair, boxes):
            _, packed = hyp_pair
            corners = np.array(boxes, dtype=np.float64).reshape(-1, 6)
            center, extent = corners[:, :3], corners[:, 3:]
            assert_batch_parity(
                packed, center - extent / 2, center + extent / 2
            )
