"""The zero-copy shared-memory data plane.

Three invariant families:

* **Parity** -- the spawn-pool shm executor returns bit-identical rows,
  packed uids and I/O counters to :class:`SerialShardExecutor` at any
  shard count (parametrized counts; hypothesis-driven query windows
  where hypothesis is installed, seeded windows otherwise), including
  when a too-small ring forces the pickled fallback path.
* **Lifecycle** -- every named segment the executor creates is unlinked
  on normal close, after a worker crash, and when the parent raises
  mid-gather; a subprocess run under ``-W error::UserWarning`` proves
  the resource tracker never warns (no leaked or double-unregistered
  segments).
* **Auto-selection** -- ``executor="auto"`` never constructs a pool for
  1-shard workloads or single-core boxes, and tears the pool down again
  when its measured per-batch overhead exceeds the budget.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ShardError
from repro.geometry.box import Box
from repro.shard import (
    SerialShardExecutor,
    SharedMemoryShardExecutor,
    ShardCornerTask,
    ShardedDatabase,
)
from repro.shard.database import _usable_cpus
from repro.shard.parallel import measure_batch_overhead
from repro.shard.shm import ResultRing, SharedArena

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

SHM_DIR = Path("/dev/shm")

needs_shm_dir = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="POSIX shared memory is not file-backed here"
)


def shm_names() -> set[str]:
    return {p.name for p in SHM_DIR.glob("repro_*")}


# -- arena ---------------------------------------------------------------------


class TestSharedArena:
    def test_publish_attach_roundtrip_and_alignment(self) -> None:
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 13).reshape(1, 13),
            "c": np.arange(6, dtype=np.float32).reshape(2, 3),
        }
        with SharedArena.publish(arrays) as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                for key, source in arrays.items():
                    for side in (arena, attached):
                        view = side.array(key)
                        assert view.dtype == source.dtype
                        assert np.array_equal(view, source)
                        assert not view.flags.writeable
                for _, extent in arena.manifest.extents:
                    assert extent.offset % 64 == 0
            finally:
                attached.close()

    def test_unknown_key_and_closed_arena_raise(self) -> None:
        arena = SharedArena.publish({"x": np.zeros(3)})
        with pytest.raises(ShardError, match="no array"):
            arena.array("y")
        arena.close()
        arena.close()  # idempotent
        with pytest.raises(ShardError, match="closed"):
            arena.array("x")

    @needs_shm_dir
    def test_owner_close_unlinks_segment(self) -> None:
        arena = SharedArena.publish({"x": np.zeros(5)})
        name = arena.name
        assert name in shm_names()
        arena.close()
        assert name not in shm_names()


class TestResultRing:
    def test_write_read_roundtrip(self) -> None:
        ring = ResultRing.create(4096)
        try:
            rows = np.array([5, 9, 2], dtype=np.int64)
            counts = np.array([2, 1], dtype=np.int64)
            io = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
            descriptor = ring.write(1, shard=3, slot=0, rows=rows,
                                    counts=counts, io=io)
            assert descriptor is not None
            result = ring.read(descriptor)
            assert result.shard == 3
            assert np.array_equal(result.rows, rows)
            assert np.array_equal(result.counts, counts)
            assert np.array_equal(result.io, io)
            assert not result.rows.flags.writeable
        finally:
            ring.close()

    def test_new_batch_resets_cursor_and_overflow_returns_none(self) -> None:
        ring = ResultRing.create(1024)
        try:
            rows = np.arange(80, dtype=np.int64)  # 640 of 1024 bytes
            counts = np.array([80], dtype=np.int64)
            io = np.zeros((1, 3), dtype=np.int64)
            first = ring.write(1, 0, 0, rows, counts, io)
            assert first is not None and first.offset == 0
            # Same batch: the second write does not fit.
            assert ring.write(1, 0, 0, rows, counts, io) is None
            # New batch: the cursor rewinds to the start.
            second = ring.write(2, 0, 0, rows, counts, io)
            assert second is not None and second.offset == 0
        finally:
            ring.close()


# -- parity --------------------------------------------------------------------


def windows(seed: int, count: int) -> list[tuple[Box, float, float]]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        low = rng.uniform(0.0, 800.0, 2)
        high = low + rng.uniform(10.0, 300.0, 2)
        band = np.sort(rng.uniform(0.0, 1.0, 2))
        out.append((Box(low, high), float(band[0]), float(band[1])))
    return out


@pytest.mark.parametrize("shards", [1, 3, 8])
def test_shm_matches_serial_at_any_shard_count(shard_city, shards) -> None:
    subqueries = windows(seed=21 + shards, count=6)
    with ShardedDatabase.from_database(
        shard_city, shards, executor="serial"
    ) as serial_db, ShardedDatabase.from_database(
        shard_city, shards, executor="shm"
    ) as shm_db:
        uids = serial_db.store.packed_uids
        for region, w_min, w_max in subqueries:
            expected = serial_db.query_region_rows(region, w_min, w_max)
            actual = shm_db.query_region_rows(region, w_min, w_max)
            assert np.array_equal(actual.rows, expected.rows)
            assert np.array_equal(uids[actual.rows], uids[expected.rows])
            assert actual.io == expected.io
        assert shm_db.executor.stats.shm_payload_bytes > 0
        assert shm_db.executor.stats.fallback_tasks == 0


@pytest.fixture(scope="module")
def parity_pair(shard_city):
    with ShardedDatabase.from_database(
        shard_city, 4, executor="serial"
    ) as serial_db, ShardedDatabase.from_database(
        shard_city, 4, executor="shm"
    ) as shm_db:
        yield serial_db, shm_db


if HAVE_HYPOTHESIS:

    @given(
        x=st.floats(0.0, 900.0), y=st.floats(0.0, 900.0),
        w=st.floats(10.0, 400.0), h=st.floats(10.0, 400.0),
        w_lo=st.floats(0.0, 1.0), w_hi=st.floats(0.0, 1.0),
    )
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_shm_parity_hypothesis(parity_pair, x, y, w, h, w_lo, w_hi) -> None:
        serial_db, shm_db = parity_pair
        region = Box((x, y), (x + w, y + h))
        w_min, w_max = min(w_lo, w_hi), max(w_lo, w_hi)
        expected = serial_db.query_region_rows(region, w_min, w_max)
        actual = shm_db.query_region_rows(region, w_min, w_max)
        assert np.array_equal(actual.rows, expected.rows)
        assert actual.io == expected.io

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(25))
    def test_shm_parity_seeded(parity_pair, seed) -> None:
        serial_db, shm_db = parity_pair
        region, w_min, w_max = windows(seed=100 + seed, count=1)[0]
        expected = serial_db.query_region_rows(region, w_min, w_max)
        actual = shm_db.query_region_rows(region, w_min, w_max)
        assert np.array_equal(actual.rows, expected.rows)
        assert actual.io == expected.io


def test_ring_overflow_falls_back_to_pickling_identically(shard_city) -> None:
    executor = SharedMemoryShardExecutor(processes=1, ring_bytes=1024)
    with ShardedDatabase.from_database(
        shard_city, 4, executor=executor
    ) as shm_db, ShardedDatabase.from_database(shard_city, 4) as serial_db:
        region = Box((0.0, 0.0), (1000.0, 1000.0))  # everything
        expected = serial_db.query_region_rows(region, 0.0, 1.0)
        actual = shm_db.query_region_rows(region, 0.0, 1.0)
        assert np.array_equal(actual.rows, expected.rows)
        assert actual.io == expected.io
        assert executor.stats.fallback_tasks > 0
        assert executor.stats.pickled_payload_bytes > 0


# -- lifecycle -----------------------------------------------------------------


@needs_shm_dir
def test_close_unlinks_all_segments_and_is_idempotent(shard_city) -> None:
    db = ShardedDatabase.from_database(shard_city, 2, executor="shm")
    executor = db.executor
    assert isinstance(executor, SharedMemoryShardExecutor)
    assert executor.arena is not None
    owned = {executor.arena.name, *executor.ring_names}
    assert owned <= shm_names()
    # The arena carries each shard's index arrays and row map, nothing else.
    expected_keys = set()
    for shard_slice in db.slices:
        prefix = f"s{shard_slice.shard}"
        depth = shard_slice.packed_method().packed.height
        expected_keys |= {f"{prefix}/rows", f"{prefix}/row_map"}
        expected_keys |= {
            f"{prefix}/L{d}/{part}"
            for d in range(depth)
            for part in ("low", "high", "start")
        }
    assert sorted(executor.arena.keys()) == sorted(expected_keys)
    db.close()
    assert not (owned & shm_names())
    db.close()  # second close is a no-op


@needs_shm_dir
def test_parent_exception_mid_gather_still_unlinks(shard_city) -> None:
    owned: set[str] = set()
    with pytest.raises(RuntimeError, match="mid-gather"):
        with ShardedDatabase.from_database(shard_city, 2, executor="shm") as db:
            executor = db.executor
            assert isinstance(executor, SharedMemoryShardExecutor)
            assert executor.arena is not None
            owned = {executor.arena.name, *executor.ring_names}
            # Gather once so live ring views exist when the parent dies.
            db.query_region_rows(Box((0.0, 0.0), (500.0, 500.0)), 0.0, 1.0)
            raise RuntimeError("mid-gather")
    assert owned and not (owned & shm_names())


@needs_shm_dir
def test_worker_crash_raises_shard_error_and_reclaims(shard_city) -> None:
    db = ShardedDatabase.from_database(shard_city, 2, executor="shm")
    try:
        executor = db.executor
        assert isinstance(executor, SharedMemoryShardExecutor)
        assert executor.arena is not None
        owned = {executor.arena.name, *executor.ring_names}
        # Kill the pool from inside: a worker hard-exits mid-task.
        with pytest.raises(Exception):
            executor._pool.submit(os._exit, 3).result(timeout=60)
        task = ShardCornerTask(
            shard=0,
            qlow=np.array([[0.0, 0.0, 0.0]]),
            qhigh=np.array([[10.0, 10.0, 1.0]]),
        )
        with pytest.raises(ShardError, match="broke mid-gather"):
            executor.run([task])
    finally:
        db.close()
    assert not (owned & shm_names())


def test_no_resource_tracker_warnings(shard_city, tmp_path) -> None:
    """A full create/attach/gather/close cycle under ``-W error``.

    Any resource-tracker leak warning ("leaked shared_memory objects")
    or KeyError spam at interpreter exit fails the subprocess.
    """
    script = tmp_path / "shm_cycle.py"
    script.write_text(
        "from repro.geometry.box import Box\n"
        "from repro.shard import ShardCoordinator, ShardedDatabase\n"
        "from repro.workloads.cityscape import CityConfig, build_city\n"
        "from repro.net.messages import RegionRequest, RetrieveRequest\n"
        "\n"
        "\n"
        "def main():\n"
        "    city = build_city(CityConfig(\n"
        "        space=Box((0.0, 0.0), (1000.0, 1000.0)), object_count=8,\n"
        "        levels=2, seed=3, min_size_frac=0.03, max_size_frac=0.08))\n"
        "    with ShardedDatabase.from_database(city, 2, executor='shm') as db:\n"
        "        coordinator = ShardCoordinator(db)\n"
        "        request = RetrieveRequest(\n"
        "            timestamp=0.0, client_id=0,\n"
        "            regions=(RegionRequest(\n"
        "                region=Box((0.0, 0.0), (800.0, 800.0)),\n"
        "                w_min=0.0, w_max=1.0),))\n"
        "        responses = coordinator.execute_many([request] * 3)\n"
        "        assert len(responses) == 3\n"
        "\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", str(script)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr


# -- auto-selection ------------------------------------------------------------


class _ExplodingPool:
    def __init__(self, *args: object, **kwargs: object) -> None:
        raise AssertionError("auto policy constructed a pool it must not")


def test_auto_single_shard_never_constructs_pool(
    shard_city, monkeypatch
) -> None:
    monkeypatch.setattr(
        "repro.shard.database.SharedMemoryShardExecutor", _ExplodingPool
    )
    monkeypatch.setattr("repro.shard.database._usable_cpus", lambda: 8)
    with ShardedDatabase.from_database(shard_city, 1, executor="auto") as db:
        assert isinstance(db.executor, SerialShardExecutor)
        result = db.query_region_rows(Box((0.0, 0.0), (100.0, 100.0)), 0.0, 1.0)
        assert result.io.queries == 1


def test_auto_single_core_never_constructs_pool(
    shard_city, monkeypatch
) -> None:
    monkeypatch.setattr(
        "repro.shard.database.SharedMemoryShardExecutor", _ExplodingPool
    )
    monkeypatch.setattr("repro.shard.database._usable_cpus", lambda: 1)
    with ShardedDatabase.from_database(shard_city, 4, executor="auto") as db:
        assert isinstance(db.executor, SerialShardExecutor)


def test_auto_overhead_budget_tears_pool_down(shard_city, monkeypatch) -> None:
    monkeypatch.setattr("repro.shard.database._usable_cpus", lambda: 8)
    monkeypatch.setattr(
        "repro.shard.database.measure_batch_overhead", lambda pool: 60.0
    )
    before = shm_names() if SHM_DIR.is_dir() else set()
    with ShardedDatabase.from_database(shard_city, 2, executor="auto") as db:
        # A minute per round trip is over any budget: auto must fall back.
        assert isinstance(db.executor, SerialShardExecutor)
    if SHM_DIR.is_dir():
        assert shm_names() <= before


def test_auto_keeps_pool_within_budget(shard_city, monkeypatch) -> None:
    monkeypatch.setattr("repro.shard.database._usable_cpus", lambda: 8)
    monkeypatch.setattr(
        "repro.shard.database.measure_batch_overhead", lambda pool: 0.0
    )
    with ShardedDatabase.from_database(shard_city, 2, executor="auto") as db:
        assert isinstance(db.executor, SharedMemoryShardExecutor)


def test_unknown_executor_name_raises(shard_city) -> None:
    with pytest.raises(ShardError, match="unknown executor policy"):
        ShardedDatabase.from_database(shard_city, 2, executor="threads")


def test_measure_batch_overhead_serial_is_cheap(shard_city) -> None:
    with ShardedDatabase.from_database(shard_city, 2) as db:
        overhead = measure_batch_overhead(db.executor)
        assert 0.0 <= overhead < 1.0


def test_usable_cpus_positive() -> None:
    assert _usable_cpus() >= 1
