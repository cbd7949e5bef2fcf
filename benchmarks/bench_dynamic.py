"""Dynamic-scene benchmark: incremental index maintenance vs rebuild.

Steps an epoch-versioned city through a rush-hour churn workload (a
fleet of objects commuting back and forth every epoch) and times three
ways of keeping the index current after an epoch:

* **incremental** -- :meth:`DynamicAccessMethod.apply`: splice the
  footprint's changed rows into the previous epoch's packed arrays;
* **full rebuild** -- rebuild the static packed index the serving
  layer would otherwise use: R*-tree bulk load over every record plus
  packed compilation (:class:`PackedAccessMethod`), the pre-dynamic
  path whose cost is proportional to the whole database.  ``speedup``
  (gated: must stay >= 3x) is measured against this, because it is
  what a system without incremental maintenance pays per epoch;
* **grid recompile** -- compile a whole new :class:`DynamicPackedIndex`
  from the post-epoch store on the same grid.  This vectorised
  recompile only exists *because* of the dynamic design (the fixed
  grid makes compiled structure a pure function of the row set), so it
  is reported as the harder diagnostic ratio
  (``grid_recompile_speedup``) rather than the headline.

Purity also means incremental application and the grid recompile must
land on bit-identical arrays -- the ``identical_incremental_vs_rebuild``
flag the bench gate pins, next to both ratios (CI floors derive from
the committed values).

The churn section reports end-to-end :meth:`SceneDatabase.advance_epoch`
latency quantiles -- store apply, index patch, epoch pin and cache
drop together -- which is the number a serving layer sees between two
consistent scene versions.  Absolute quantiles are machine-dependent
and are not gated.  It also reports retention: ``retained_store_views``
counts the epoch store views still reachable after the churn (the
pinned window plus the seed, not one per epoch), and
``identical_pinned_views_vs_replay`` pins that every pinned epoch's view
equals a standalone replay of the same deltas, bit for bit.

Every timed region starts from a collected, frozen heap
(``settle_gc``), so no timing includes a full garbage collection.

Run directly (not under pytest)::

    python benchmarks/bench_dynamic.py           # full-size scene
    python benchmarks/bench_dynamic.py --smoke   # CI-sized quick check
    python benchmarks/bench_dynamic.py --json out.json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import weakref
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_fleet import machine_context, settle_gc  # sibling script: one definition
from repro.geometry.box import Box
from repro.index.dynamic import DynamicPackedIndex
from repro.index.packed import PackedAccessMethod
from repro.server.scene import SceneDatabase
from repro.store.scene import SceneDelta, SceneStore
from repro.workloads.cityscape import CityConfig, populate_city
from repro.workloads.dynamics import rush_hour_deltas

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))

#: Fraction of the city commuting each epoch (the acceptance target is
#: stated for <= 5% of objects moving per epoch).
FLEET_FRAC = 0.05

#: Per-epoch displacement -- small, so the patch path stays on
#: occupied grid cells (which is the workload incremental maintenance
#: exists for; teleporting everything every epoch is a rebuild).
AMPLITUDE = 6.0


def build_scene(config: CityConfig) -> SceneDatabase:
    return populate_city(SceneDatabase(drift_budget=1.0), config)


def identical_arrays(a: DynamicPackedIndex, b: DynamicPackedIndex) -> bool:
    if not np.array_equal(a.packed.rows, b.packed.rows):
        return False
    if a.packed.height != b.packed.height:
        return False
    for got, want in zip(a.packed.levels, b.packed.levels):
        if got.low.tobytes() != want.low.tobytes():
            return False
        if got.high.tobytes() != want.high.tobytes():
            return False
        if not np.array_equal(got.node_start, want.node_start):
            return False
    return True


def fleet_ids(db: SceneDatabase) -> np.ndarray:
    ids = np.unique(db.store.object_ids)
    return ids[: max(1, int(round(FLEET_FRAC * ids.size)))]


def measure_incremental(config: CityConfig, epochs: int, seed: int) -> dict:
    """Per-epoch patch time vs both rebuild paths, same deltas."""
    db = build_scene(config)
    scene = db.scene
    method = db.dynamic_index
    grid = method.index.grid
    capacity = method.index.max_entries
    factory = rush_hour_deltas(fleet_ids(db), amplitude=AMPLITUDE, seed=seed)
    incremental_s: list[float] = []
    recompile_s: list[float] = []
    identical = True
    for k in range(epochs):
        delta = factory(k)
        assert delta is not None
        footprint = scene.apply(delta)
        settle_gc()
        started = time.perf_counter()
        method.apply(scene.latest, footprint)
        incremental_s.append(time.perf_counter() - started)
        settle_gc()
        started = time.perf_counter()
        fresh = DynamicPackedIndex(
            scene.latest, max_entries=capacity, grid=grid
        )
        recompile_s.append(time.perf_counter() - started)
        identical &= identical_arrays(method.index, fresh)
    # The full rebuild does not depend on the delta, so sample it at
    # the final store instead of paying the bulk load every epoch.
    rebuild_s: list[float] = []
    for _ in range(3):
        settle_gc()
        started = time.perf_counter()
        PackedAccessMethod(
            scene.latest, spatial_dims=2, max_entries=capacity
        )
        rebuild_s.append(time.perf_counter() - started)
    mean_incremental = float(np.mean(incremental_s))
    mean_recompile = float(np.mean(recompile_s))
    mean_rebuild = float(np.mean(rebuild_s))
    return {
        "epochs": epochs,
        "patches": method.index.patches,
        "rebuilds": method.index.rebuilds,
        "incremental_ms": round(mean_incremental * 1e3, 4),
        "full_rebuild_ms": round(mean_rebuild * 1e3, 4),
        "grid_recompile_ms": round(mean_recompile * 1e3, 4),
        "speedup": round(mean_rebuild / mean_incremental, 2),
        "grid_recompile_speedup": round(
            mean_recompile / mean_incremental, 2
        ),
        "identical_incremental_vs_rebuild": bool(identical),
    }


def measure_churn(config: CityConfig, epochs: int, seed: int) -> dict:
    """``advance_epoch`` latency quantiles and retention under churn."""
    db = build_scene(config)
    db.dynamic_index  # seal + compile outside the timed region
    factory = rush_hour_deltas(fleet_ids(db), amplitude=AMPLITUDE, seed=seed)
    views = [weakref.ref(db.store.data)]
    deltas: list[SceneDelta] = []
    latencies: list[float] = []
    for k in range(epochs):
        delta = factory(k)
        assert delta is not None
        deltas.append(delta)
        settle_gc()
        started = time.perf_counter()
        db.advance_epoch(delta)
        latencies.append(time.perf_counter() - started)
        views.append(weakref.ref(db.store.data))
    gc.collect()
    replay = SceneStore(db.scene.at_epoch(0))  # the seed is always kept
    identical = True
    for epoch, delta in enumerate(deltas, start=1):
        replay.apply(delta)
        if epoch in db.pinned_epochs:
            identical &= (
                db.store_at(epoch).data.tobytes()
                == replay.at_epoch(epoch).data.tobytes()
            )
    ordered = np.sort(np.asarray(latencies))
    return {
        "epochs": epochs,
        "p50_ms": round(float(np.percentile(ordered, 50)) * 1e3, 4),
        "p95_ms": round(float(np.percentile(ordered, 95)) * 1e3, 4),
        "max_ms": round(float(ordered[-1]) * 1e3, 4),
        "pinned_epochs": len(db.pinned_epochs),
        "retained_store_views": sum(view() is not None for view in views),
        "identical_pinned_views_vs_replay": bool(identical),
    }


def run(smoke: bool) -> dict:
    if smoke:
        config = CityConfig(
            space=SPACE, object_count=16, levels=2, seed=19,
            min_size_frac=0.02, max_size_frac=0.05,
        )
        epochs = 12
        # Past the retained window, so the smoke run sees releases too.
        churn_epochs = 24
    else:
        config = CityConfig(
            space=SPACE, object_count=64, levels=3, seed=19,
            min_size_frac=0.02, max_size_frac=0.05,
        )
        epochs = churn_epochs = 40
    db = build_scene(config)
    return {
        "config": {
            "object_count": config.object_count,
            "levels": config.levels,
            "records": db.record_count,
            "dataset_bytes": db.total_bytes,
            "fleet_frac": FLEET_FRAC,
            "amplitude": AMPLITUDE,
            "smoke": smoke,
        },
        "machine": machine_context(),
        "incremental": measure_incremental(config, epochs, seed=7),
        "churn": measure_churn(config, churn_epochs, seed=7),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scene / few epochs (CI sanity run)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the result document to PATH",
    )
    args = parser.parse_args()
    result = run(smoke=args.smoke)
    document = json.dumps(result, indent=2)
    print(document)
    if args.json is not None:
        args.json.write_text(document + "\n")
    if not result["incremental"]["identical_incremental_vs_rebuild"]:
        print(
            "FAIL: incrementally patched index diverged from rebuild",
            file=sys.stderr,
        )
        return 1
    churn = result["churn"]
    if not churn["identical_pinned_views_vs_replay"]:
        print(
            "FAIL: a pinned epoch's store view diverged from its replay",
            file=sys.stderr,
        )
        return 1
    if churn["retained_store_views"] > churn["pinned_epochs"] + 1:
        print(
            f"FAIL: {churn['retained_store_views']} store views outlived "
            f"the churn; only the {churn['pinned_epochs']} pinned epochs "
            "and the seed may",
            file=sys.stderr,
        )
        return 1
    if result["incremental"]["speedup"] < 3.0:
        print(
            "FAIL: incremental maintenance must be >= 3x a full index "
            f"rebuild, got {result['incremental']['speedup']}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
