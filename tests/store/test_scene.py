"""Round-trip properties of the epoch-versioned scene store.

The store's core contract: applying deltas incrementally and replaying
the same deltas from scratch land on bit-identical columns at every
epoch, because the canonical row order is a pure function of the row
*set*.  Random delta chains (hypothesis where installed, the same
property seeded-random otherwise) exercise add / remove / move /
re-mesh in every combination, including empty epochs and remove+re-add
of one object inside a single epoch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StoreError
from repro.store.columns import COEFF_DTYPE, CoefficientStore
from repro.store.scene import FootprintDelta, SceneDelta, SceneStore
from repro.store.uids import pack_uid_arrays, unpack_uid_arrays

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

#: The first twenty seeds, plus every seed in 0..2999 that once drove
#: ``random_delta`` past an emptied scene (``rng.integers(0, 0)``).
SEEDS = list(range(20)) + [561, 1013, 1324, 1440, 1466, 2335]


def make_rows(
    rng: np.random.Generator, object_id: int, detail_rows: int
) -> np.ndarray:
    """Synthetic but valid COEFF_DTYPE rows for one object."""
    n = 1 + detail_rows
    rows = np.zeros(n, dtype=COEFF_DTYPE)
    rows["object_id"] = object_id
    rows["level"][0] = -1
    rows["index"][0] = 0
    if detail_rows:
        rows["level"][1:] = rng.integers(0, 3, size=detail_rows)
        # Unique (level, index) pairs: index runs within the epoch draw.
        rows["index"][1:] = np.arange(detail_rows)
    rows["w"] = rng.uniform(0.0, 1.0, size=n)
    low = rng.uniform(-50.0, 50.0, size=(n, 3))
    rows["sup_low"] = low
    rows["sup_high"] = low + rng.uniform(0.0, 20.0, size=(n, 3))
    rows["position"] = rng.normal(0.0, 10.0, size=(n, 3))
    rows["payload"] = rng.normal(0.0, 1.0, size=(n, 3))
    rows["size_bytes"] = rng.integers(8, 128, size=n)
    return rows


def random_scene(rng: np.random.Generator) -> SceneStore:
    base = np.concatenate(
        [
            make_rows(rng, oid, int(rng.integers(1, 5)))
            for oid in range(int(rng.integers(2, 6)))
        ]
    )
    return SceneStore(CoefficientStore(base))


def random_delta(
    rng: np.random.Generator, present: np.ndarray, next_id: int
) -> tuple[SceneDelta, int]:
    """One random delta valid against the ``present`` object ids."""
    pool = present.copy()
    rng.shuffle(pool)
    cut = 0

    def take(k: int) -> np.ndarray:
        # Clamp, never redraw: the rng stream stays seed-for-seed.
        nonlocal cut
        k = min(k, pool.size - cut)
        picked = pool[cut : cut + k]
        cut += k
        return np.sort(picked)

    removes = take(int(rng.integers(0, 2)))
    moves = take(int(rng.integers(0, min(2, pool.size - cut) + 1)))
    remesh_ids = take(int(rng.integers(0, min(1, pool.size - cut) + 1)))
    add_rows = []
    for _ in range(int(rng.integers(0, 2))):
        add_rows.append(make_rows(rng, next_id, int(rng.integers(1, 4))))
        next_id += 1
    # Sometimes resurrect a removed object inside the same epoch.
    if removes.size and rng.random() < 0.5:
        add_rows.append(
            make_rows(rng, int(removes[0]), int(rng.integers(1, 4)))
        )
    remesh_rows = (
        np.concatenate(
            [make_rows(rng, int(oid), int(rng.integers(1, 4))) for oid in remesh_ids]
        )
        if remesh_ids.size
        else None
    )
    delta = SceneDelta(
        add_rows=np.concatenate(add_rows) if add_rows else None,
        remove_ids=removes,
        move_ids=np.asarray(moves, dtype=np.int64),
        move_offsets=rng.uniform(-5.0, 5.0, size=(moves.size, 3)),
        remesh_rows=remesh_rows,
    )
    return delta, next_id


def run_roundtrip(seed: int) -> None:
    """Incremental views == scratch replay, at every epoch."""
    rng = np.random.default_rng(seed)
    scene = random_scene(rng)
    next_id = 100
    for _ in range(int(rng.integers(2, 6))):
        if rng.random() < 0.2:
            scene.apply(SceneDelta())  # an empty epoch tick
            continue
        data = scene.latest.data
        present = np.unique(data["object_id"])
        delta, next_id = random_delta(rng, present, next_id)
        footprint = scene.apply(delta)
        assert footprint.epoch == scene.epoch
        # The footprint mask selects exactly the changed objects' uids.
        uids = scene.latest.packed_uids
        object_ids, _, _ = unpack_uid_arrays(uids)
        expected = np.isin(object_ids, footprint.changed_ids)
        assert np.array_equal(footprint.mask_uids(uids), expected)
    for epoch in range(scene.epoch + 1):
        incremental = scene.at_epoch(epoch).data
        rebuilt = scene.rebuilt_at(epoch).data
        assert incremental.tobytes() == rebuilt.tobytes()
        uids = pack_uid_arrays(
            incremental["object_id"],
            incremental["level"],
            incremental["index"],
        )
        assert np.all(uids[:-1] < uids[1:]) if uids.size > 1 else True


@pytest.mark.parametrize("seed", SEEDS)
def test_roundtrip_seeded(seed):
    run_roundtrip(seed)


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_roundtrip_hypothesis(seed):
        run_roundtrip(seed)


class TestEdgeCases:
    def test_random_delta_on_an_emptied_scene(self):
        rng = np.random.default_rng(11)
        scene = random_scene(rng)
        present = np.unique(scene.latest.data["object_id"])
        scene.apply(SceneDelta(remove_ids=present))
        assert len(scene.latest) == 0
        next_id = 100
        for _ in range(8):
            delta, next_id = random_delta(
                rng, np.unique(scene.latest.data["object_id"]), next_id
            )
            scene.apply(delta)
        for epoch in range(scene.epoch + 1):
            assert (
                scene.at_epoch(epoch).data.tobytes()
                == scene.rebuilt_at(epoch).data.tobytes()
            )

    def test_empty_epoch_is_a_pure_tick(self):
        rng = np.random.default_rng(5)
        scene = random_scene(rng)
        before = scene.latest.data
        footprint = scene.apply(SceneDelta())
        assert footprint.is_empty
        assert scene.epoch == 1
        assert scene.at_epoch(1).data.tobytes() == before.tobytes()
        assert scene.at_epoch(0).data.tobytes() == before.tobytes()

    def test_remove_and_re_add_in_one_epoch(self):
        rng = np.random.default_rng(6)
        scene = random_scene(rng)
        victim = int(scene.latest.data["object_id"][0])
        fresh = make_rows(rng, victim, 2)
        footprint = scene.apply(
            SceneDelta(
                add_rows=fresh,
                remove_ids=np.asarray([victim], dtype=np.int64),
            )
        )
        assert victim in footprint.changed_ids.tolist()
        data = scene.latest.data
        got = data[data["object_id"] == victim]
        assert np.sort(got, order=["level", "index"]).tobytes() == np.sort(
            fresh, order=["level", "index"]
        ).tobytes()
        assert scene.at_epoch(1).data.tobytes() == scene.rebuilt_at(
            1
        ).data.tobytes()

    def test_move_translates_base_payload_only(self):
        rng = np.random.default_rng(7)
        scene = random_scene(rng)
        moved = int(scene.latest.data["object_id"][0])
        before = scene.latest.data
        offset = np.asarray([3.0, -2.0, 1.0])
        scene.apply(
            SceneDelta(
                move_ids=np.asarray([moved], dtype=np.int64),
                move_offsets=offset[None, :],
            )
        )
        after = scene.latest.data
        mask = after["object_id"] == moved
        src = before[before["object_id"] == moved]
        assert np.allclose(after["sup_low"][mask], src["sup_low"] + offset)
        assert np.allclose(after["position"][mask], src["position"] + offset)
        base = mask & (after["level"] == -1)
        src_base = src[src["level"] == -1]
        assert np.allclose(after["payload"][base], src_base["payload"] + offset)
        detail = mask & (after["level"] >= 0)
        src_detail = src[src["level"] >= 0]
        assert np.allclose(after["payload"][detail], src_detail["payload"])

    def test_validation_rejects_nonsense(self):
        rng = np.random.default_rng(8)
        scene = random_scene(rng)
        present = int(scene.latest.data["object_id"][0])
        with pytest.raises(StoreError):
            scene.apply(
                SceneDelta(move_ids=np.asarray([10**6]), move_offsets=np.zeros((1, 3)))
            )
        with pytest.raises(StoreError):
            scene.apply(SceneDelta(remove_ids=np.asarray([10**6])))
        with pytest.raises(StoreError):
            SceneDelta(
                move_ids=np.asarray([present]),
                move_offsets=np.zeros((1, 3)),
                remove_ids=np.asarray([present]),
            )
        with pytest.raises(StoreError):
            # Adding over a still-present object collides.
            scene.apply(SceneDelta(add_rows=make_rows(rng, present, 2)))

    def test_footprint_bounds_cover_before_and_after(self):
        rng = np.random.default_rng(9)
        scene = random_scene(rng)
        moved = int(scene.latest.data["object_id"][0])
        before = scene.latest.data
        src = before[before["object_id"] == moved]
        offset = np.asarray([25.0, 0.0, 0.0])
        footprint = scene.apply(
            SceneDelta(
                move_ids=np.asarray([moved], dtype=np.int64),
                move_offsets=offset[None, :],
            )
        )
        assert footprint.changed_ids.tolist() == [moved]
        old_low = src["sup_low"].min(axis=0)
        new_high = (src["sup_high"] + offset).max(axis=0)
        assert np.allclose(footprint.region_low[0], old_low)
        assert np.allclose(footprint.region_high[0], new_high)
        # And the 2-D intersection test sees the union footprint.
        assert footprint.intersects(old_low[:2], new_high[:2]).all()

    def test_epoch_out_of_range(self):
        scene = random_scene(np.random.default_rng(10))
        with pytest.raises(StoreError):
            scene.at_epoch(1)
        with pytest.raises(StoreError):
            scene.at_epoch(-1)

    def test_standalone_scene_keeps_every_epoch(self):
        """A scene nobody releases answers every epoch it recorded."""
        rng = np.random.default_rng(12)
        scene = random_scene(rng)
        moved = int(scene.latest.data["object_id"][0])
        step = np.asarray([[1.0, -1.0, 0.0]])
        for _ in range(40):
            scene.apply(
                SceneDelta(
                    move_ids=np.asarray([moved], dtype=np.int64),
                    move_offsets=step,
                )
            )
        rows = scene.latest.data["object_id"] == moved
        for epoch in range(1, scene.epoch + 1):
            before = scene.at_epoch(epoch - 1).data["position"][rows]
            after = scene.at_epoch(epoch).data["position"][rows]
            assert np.array_equal(after, before + step)

    def test_release_keeps_seed_and_latest(self):
        rng = np.random.default_rng(13)
        scene = random_scene(rng)
        for _ in range(3):
            scene.apply(SceneDelta())
        scene.release(0)  # the seed stays: replays start from it
        scene.release(1)
        scene.release(1)  # a second release is a no-op
        assert scene.at_epoch(0) is not None
        with pytest.raises(StoreError, match="released"):
            scene.at_epoch(1)
        with pytest.raises(StoreError):
            scene.release(3)  # the latest view cannot go
        with pytest.raises(StoreError):
            scene.release(-1)
        # Replay still reaches a released epoch through the delta log.
        assert (
            scene.rebuilt_at(1).data.tobytes()
            == scene.at_epoch(2).data.tobytes()
        )

    def test_footprint_alignment_validated(self):
        with pytest.raises(StoreError):
            FootprintDelta(
                epoch=1,
                changed_ids=np.asarray([1, 2]),
                region_low=np.zeros((1, 3)),
                region_high=np.zeros((1, 3)),
            )
