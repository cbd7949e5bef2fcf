"""Parity of the incrementally patched dynamic index.

The contract (see :mod:`repro.index.dynamic`): with the grid and node
capacity fixed, the compiled packed arrays are a pure function of the
row set -- so applying epoch deltas incrementally must equal a
from-scratch build at that epoch bit for bit: same leaf rows, same uids,
same per-level boxes, and therefore the *same node-access counts* for
any query.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geometry.box import Box
from repro.index.dynamic import (
    DynamicAccessMethod,
    DynamicPackedIndex,
    GridSpec,
)
from repro.index.packed import PackedAccessMethod
from repro.store.scene import FootprintDelta, SceneDelta, SceneStore

from tests.store.test_scene import random_delta, random_scene

SEEDS = list(range(12))


def assert_identical(patched: DynamicPackedIndex, fresh: DynamicPackedIndex):
    """Bit-identical compiled arrays: rows, uids, boxes, structure."""
    assert np.array_equal(patched.packed.rows, fresh.packed.rows)
    assert patched.packed.height == fresh.packed.height
    for got, want in zip(patched.packed.levels, fresh.packed.levels):
        assert got.low.tobytes() == want.low.tobytes()
        assert got.high.tobytes() == want.high.tobytes()
        assert np.array_equal(got.node_start, want.node_start)


def random_queries(rng: np.random.Generator, k: int = 8):
    for _ in range(k):
        low = rng.uniform(-60.0, 40.0, size=2)
        high = low + rng.uniform(5.0, 60.0, size=2)
        w_min = float(rng.uniform(0.0, 0.6))
        yield Box(low, high), w_min, float(rng.uniform(w_min, 1.0))


def step_scene(rng, scene, next_id):
    data = scene.latest.data
    present = np.unique(data["object_id"])
    delta, next_id = random_delta(rng, present, next_id)
    return scene.apply(delta), next_id


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("drift_budget", [0.0, 1.0])
def test_incremental_equals_scratch(seed, drift_budget):
    """Patch path and rebuild path agree with a from-scratch build."""
    rng = np.random.default_rng(seed)
    scene = random_scene(rng)
    dyn = DynamicPackedIndex(
        scene.latest, max_entries=4, drift_budget=drift_budget
    )
    next_id = 100
    for _ in range(4):
        footprint, next_id = step_scene(rng, scene, next_id)
        dyn.apply(scene.latest, footprint)
        fresh = DynamicPackedIndex(
            scene.latest, max_entries=4, grid=dyn.grid
        )
        assert_identical(dyn, fresh)
    # The budget decided the path, not the result (an empty random
    # delta is a pure tick and takes neither path).
    if drift_budget == 0.0:
        assert dyn.patches == 0 and dyn.rebuilds >= 1
    else:
        # Inserts into previously unoccupied cells may still exceed
        # the occupied-cell budget, so rebuilds are not forbidden --
        # but the patch path must have been exercised.
        assert dyn.patches >= 1


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_node_access_counts_match_fresh_build(seed):
    """Every query bills identical I/O on patched vs fresh arrays."""
    rng = np.random.default_rng(seed)
    scene = random_scene(rng)
    dyn = DynamicAccessMethod(scene.latest, max_entries=4, drift_budget=1.0)
    next_id = 100
    for _ in range(3):
        footprint, next_id = step_scene(rng, scene, next_id)
        dyn.apply(scene.latest, footprint)
    fresh = DynamicAccessMethod(
        scene.latest, max_entries=4, grid=dyn.index.grid
    )
    for region, w_min, w_max in random_queries(rng):
        got = dyn.query_rows(region, w_min, w_max)
        want = fresh.query_rows(region, w_min, w_max)
        assert np.array_equal(got.rows, want.rows)
        assert got.io.node_reads == want.io.node_reads
        assert got.io.leaf_reads == want.io.leaf_reads
        assert got.io.entries_scanned == want.io.entries_scanned


def test_empty_footprint_is_free():
    rng = np.random.default_rng(3)
    scene = random_scene(rng)
    dyn = DynamicPackedIndex(scene.latest, max_entries=4)
    packed_before = dyn.packed
    footprint = scene.apply(SceneDelta())
    dyn.apply(scene.latest, footprint)
    assert dyn.packed is packed_before  # no recompile for a pure tick
    assert dyn.patches == 0 and dyn.rebuilds == 0


def test_pinned_view_answers_the_old_epoch():
    rng = np.random.default_rng(4)
    scene = random_scene(rng)
    dyn = DynamicAccessMethod(scene.latest, max_entries=4, drift_budget=1.0)
    pinned = dyn.pin()
    reference = DynamicAccessMethod(
        scene.at_epoch(0), max_entries=4, grid=dyn.index.grid
    )
    footprint, _ = step_scene(rng, scene, 100)
    dyn.apply(scene.latest, footprint)
    for region, w_min, w_max in random_queries(rng, k=5):
        got = pinned.query_rows(region, w_min, w_max)
        want = reference.query_rows(region, w_min, w_max)
        assert np.array_equal(got.rows, want.rows)
        assert got.io.node_reads == want.io.node_reads


@pytest.mark.parametrize("kind", ["static", "dynamic", "pinned"])
def test_packed_surface_conformance(kind):
    """One query surface class, three concrete access methods."""
    rng = np.random.default_rng(6)
    store = random_scene(rng).latest
    if kind == "static":
        surface = PackedAccessMethod(store, max_entries=4)
    else:
        surface = DynamicAccessMethod(store, max_entries=4)
        if kind == "pinned":
            surface = surface.pin()
    for region, w_min, w_max in random_queries(rng):
        for half_open in (False, True):
            got = surface.query_rows(region, w_min, w_max, half_open=half_open)
            want = store.filter_rows(region, w_min, w_max, half_open=half_open)
            assert sorted(got.rows.tolist()) == want.tolist()
    with pytest.raises(IndexError_):
        surface.query_rows(Box((0.0, 0.0), (1.0, 1.0)), 0.6, 0.4)
    # ``candidates`` balances its own checkpoint: an enclosing delta
    # sees the traversal exactly once, which is how the frame-delta
    # planner bills a cold frame.
    box = surface.query_box(Box((-60.0, -60.0), (100.0, 100.0)), 0.0, 1.0)
    surface.stats.push()
    found = surface.packed.candidates(box)
    traversal = surface.stats.pop_delta()
    surface.stats.push()
    assert np.array_equal(surface.candidates(box).rows, found.rows)
    assert surface.stats.pop_delta() == traversal
    assert traversal.node_reads > 0


def test_mismatched_footprint_rejected():
    rng = np.random.default_rng(5)
    scene = random_scene(rng)
    dyn = DynamicPackedIndex(scene.latest, max_entries=4)
    ids = np.unique(scene.latest.data["object_id"])
    victim, bystander = int(ids[0]), int(ids[1])
    scene.apply(SceneDelta(remove_ids=np.asarray([victim], dtype=np.int64)))
    with pytest.raises(IndexError_):
        # A footprint blaming an unchanged object cannot explain the
        # shrunken store.
        dyn.apply(
            scene.latest,
            FootprintDelta(
                epoch=1,
                changed_ids=np.asarray([bystander], dtype=np.int64),
                region_low=np.zeros((1, 3)),
                region_high=np.ones((1, 3)),
            ),
        )


def test_grid_spec_validation():
    with pytest.raises(IndexError_):
        GridSpec(np.zeros(2), np.zeros(2), (4, 4))
    with pytest.raises(IndexError_):
        GridSpec(np.zeros(2), np.ones(2), (4,))
    with pytest.raises(IndexError_):
        GridSpec(np.zeros(2), np.ones(2), (0, 4))
    spec = GridSpec(np.zeros(2), np.ones(2), (2, 2))
    cells = spec.cells_for(
        np.asarray([[-5.0, 0.1], [0.6, 0.6]]),
        np.asarray([[-4.0, 0.2], [0.9, 0.9]]),
    )
    # Out-of-grid centres clamp to border cells.
    assert cells.tolist() == [0, 3]
