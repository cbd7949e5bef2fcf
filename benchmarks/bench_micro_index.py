"""Micro-benchmarks of the spatial index layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fleet import make_flat_ticks
from repro.geometry.box import Box
from repro.index.bulk import bulk_load
from repro.index.hilbert import hilbert_bulk_load
from repro.index.packed import PackedIndex, corners_query_batch
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree
from repro.shard import ShardedDatabase
from repro.workloads.cityscape import CityConfig, build_city


def _items(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 1000, size=(n, 2))
    extents = rng.uniform(0.5, 20, size=(n, 2))
    return [
        (Box(c - e / 2, c + e / 2), i)
        for i, (c, e) in enumerate(zip(centers, extents))
    ]


@pytest.fixture(scope="module")
def loaded_tree():
    return bulk_load(_items(20_000), max_entries=20)


@pytest.mark.parametrize("tree_class", [RTree, RStarTree], ids=["guttman", "rstar"])
def test_insert_2000(benchmark, tree_class):
    items = _items(2000)

    def build():
        tree = tree_class(max_entries=20)
        for box, payload in items:
            tree.insert(box, payload)
        return tree

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(tree) == 2000


def test_bulk_load_20000(benchmark):
    items = _items(20_000)
    tree = benchmark.pedantic(
        lambda: bulk_load(items, max_entries=20), rounds=1, iterations=1
    )
    assert len(tree) == 20_000


def test_window_query(benchmark, loaded_tree):
    rng = np.random.default_rng(1)
    queries = [
        Box(c, c + 50) for c in rng.uniform(0, 950, size=(100, 2))
    ]
    state = {"i": 0}

    def run_query():
        q = queries[state["i"] % len(queries)]
        state["i"] += 1
        return loaded_tree.search(q)

    benchmark(run_query)


def test_packed_compile_20000(benchmark, loaded_tree):
    packed = benchmark.pedantic(
        lambda: PackedIndex.from_tree(loaded_tree), rounds=1, iterations=1
    )
    assert len(packed) == 20_000


@pytest.mark.parametrize("path", ["object", "packed"])
def test_window_query_packed_vs_object(benchmark, loaded_tree, path):
    """The tentpole comparison: flat frontier walk vs object walk."""
    packed = PackedIndex.from_tree(loaded_tree)
    rng = np.random.default_rng(1)
    queries = [Box(c, c + 50) for c in rng.uniform(0, 950, size=(100, 2))]
    state = {"i": 0}

    def run_object():
        q = queries[state["i"] % len(queries)]
        state["i"] += 1
        return loaded_tree.search(q)

    def run_packed():
        q = queries[state["i"] % len(queries)]
        state["i"] += 1
        return packed.search(q)

    benchmark(run_packed if path == "packed" else run_object)


@pytest.mark.parametrize(
    "builder", ["str", "hilbert", "dynamic_rstar"], ids=["str", "hilbert", "rstar"]
)
def test_build_paths_20000(benchmark, builder):
    """STR vs Hilbert vs dynamic R* construction at paper database size."""
    items = _items(20_000)

    def build():
        if builder == "str":
            return bulk_load(items, max_entries=20)
        if builder == "hilbert":
            return hilbert_bulk_load(items, max_entries=20)
        tree = RStarTree(max_entries=20)
        for box, payload in items[:4000]:  # dynamic insert is O(100x) slower
            tree.insert(box, payload)
        return tree

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(tree) in (20_000, 4000)


def test_delete_1000(benchmark):
    items = _items(4000, seed=2)

    def build_and_delete():
        tree = bulk_load(items, max_entries=20, tree_class=RTree)
        for box, payload in items[:1000]:
            tree.delete(box, payload)
        return tree

    tree = benchmark.pedantic(build_and_delete, rounds=1, iterations=1)
    assert len(tree) == 3000


# -- the whole-fleet tick's two kernels ---------------------------------------

FLEET_SPACE = Box((0.0, 0.0), (1000.0, 1000.0))


@pytest.fixture(scope="module")
def fleet_scatter():
    """One 2000-client flat tick planned over a four-shard 48-object city
    (the ``fleet_flat`` sizing): 590-725 corner queries per shard, ~190 k
    gathered rows."""
    city = build_city(
        CityConfig(
            space=FLEET_SPACE,
            object_count=48,
            levels=2,
            min_size_frac=0.02,
            max_size_frac=0.05,
            seed=48,
        )
    )
    sharded = ShardedDatabase.from_database(city, 4)
    (tick,) = make_flat_ticks(FLEET_SPACE, 2000, 1, seed=7, query_frac=0.12)
    qlow = np.concatenate([tick.low, tick.w_min[:, None]], axis=1)
    qhigh = np.concatenate([tick.high, tick.w_max[:, None]], axis=1)
    return sharded, qlow, qhigh


def test_batch_walk_one_shard(benchmark, fleet_scatter):
    """``query_slots_many`` under one shard's share of a fleet tick."""
    sharded, qlow, qhigh = fleet_scatter
    share = np.flatnonzero(sharded.plan_corners(qlow, qhigh)[:, 0])
    packed = sharded.slices[0].packed_method().packed
    rows, counts, io = benchmark(
        corners_query_batch, packed, qlow[share], qhigh[share]
    )
    benchmark.extra_info.update(
        queries=len(counts), rows=int(rows.size), node_reads=int(io[:, 0].sum())
    )
    assert 400 <= len(counts) <= 900
    assert rows.size == counts.sum() > 0


def test_gather_sort_whole_tick(benchmark, fleet_scatter):
    """``assemble_flat``: the one-key sort over a whole tick's rows."""
    sharded, qlow, qhigh = fleet_scatter
    count = len(qlow)
    assignments, batches = sharded.scatter(qlow, qhigh)
    flat = benchmark(sharded.assemble_flat, assignments, batches, count)
    benchmark.extra_info.update(rows=int(flat.rows.size), queries=count)
    assert flat.rows.size > 150_000
