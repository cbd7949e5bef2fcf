"""Dynamic-scene workloads: delta schedules for epoch-versioned cities.

Two paper-motivated mutation patterns, each packaged as a
``next_delta`` factory for :class:`~repro.sim.epochs.EpochSource` (the
``k``-th call returns the delta advancing the scene to epoch ``k + 1``,
or ``None`` when the schedule ends):

* **rush hour** -- a subset of objects (vehicles) commutes: every epoch
  they translate along a per-object heading, reversing direction each
  epoch so the fleet oscillates around its parked positions and the
  scene stays inside the index grid fitted at build time;
* **construction site** -- sites are re-meshed round-robin: each epoch
  one object's decomposition is regenerated (a procedural building
  anchored at the old footprint) and swapped in via
  ``remesh_rows``.

Every factory draws only from generators derived off its ``seed``
(no global randomness), so a whole dynamic run is a pure function of
``(config, seed)`` and reruns fingerprint-identically.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.mesh.generators import procedural_building
from repro.server.scene import SceneDatabase
from repro.sim.streams import derive_rng
from repro.store.scene import SceneDelta
from repro.store.uids import sorted_unique
from repro.wavelets.analysis import analyze_hierarchy
from repro.workloads.cityscape import CityConfig, populate_city

__all__ = [
    "dynamic_city",
    "rush_hour_deltas",
    "construction_site_deltas",
]


def dynamic_city(
    config: CityConfig,
    *,
    retained_epochs: int | None = None,
) -> SceneDatabase:
    """A :class:`SceneDatabase` holding the city as its epoch 0.

    Same generator stream as :func:`~repro.workloads.cityscape.build_city`,
    so the epoch-0 columns equal the static database's bit for bit.
    """
    kwargs = {} if retained_epochs is None else {
        "retained_epochs": retained_epochs
    }
    db = populate_city(SceneDatabase(**kwargs), config)
    assert isinstance(db, SceneDatabase)
    return db


def rush_hour_deltas(
    object_ids: Sequence[int] | np.ndarray,
    *,
    amplitude: float,
    seed: int,
    epochs: int | None = None,
) -> Callable[[int], SceneDelta | None]:
    """Oscillating commute moves over a fixed vehicle fleet.

    Each vehicle gets a seeded heading; epoch ``2k + 1`` moves the fleet
    ``amplitude`` along it and epoch ``2k + 2`` moves it back, so after
    any even number of epochs every vehicle is exactly where it parked.
    """
    ids = sorted_unique(object_ids)
    if ids.size == 0:
        raise WorkloadError("rush hour needs at least one vehicle")
    if amplitude <= 0:
        raise WorkloadError(f"amplitude must be positive, got {amplitude}")
    rng = np.random.default_rng(seed)
    headings = rng.uniform(0.0, 2.0 * np.pi, size=ids.size)
    step = amplitude * np.stack(
        [np.cos(headings), np.sin(headings), np.zeros(ids.size)], axis=1
    )

    def next_delta(k: int) -> SceneDelta | None:
        if epochs is not None and k >= epochs:
            return None
        sign = 1.0 if k % 2 == 0 else -1.0
        return SceneDelta(move_ids=ids, move_offsets=sign * step)

    return next_delta


def construction_site_deltas(
    databases: SceneDatabase | Sequence[SceneDatabase],
    site_ids: Sequence[int] | np.ndarray,
    *,
    levels: int,
    seed: int,
    epochs: int | None = None,
) -> Callable[[int], SceneDelta | None]:
    """Round-robin re-meshing of construction sites.

    Epoch ``k + 1`` rebuilds site ``site_ids[k % len(site_ids)]``: a
    fresh procedural building anchored at the old incarnation's ground
    footprint (so the scene keeps fitting the build-time index grid),
    registered through ``register_epoch_object`` and swapped in as
    ``remesh_rows``.

    ``databases`` may be several scene databases (e.g. a monolithic one
    and a sharded one under comparison): the *same* decomposition is
    registered on each, and the rows come from the first -- keeping
    base-mesh shipping consistent everywhere the delta will be applied.
    """
    targets = (
        (databases,) if isinstance(databases, SceneDatabase)
        else tuple(databases)
    )
    if not targets:
        raise WorkloadError("need at least one database to register on")
    sites = np.asarray(site_ids, dtype=np.int64)
    if sites.size == 0:
        raise WorkloadError("construction needs at least one site")
    if levels < 1:
        raise WorkloadError("buildings need at least one detail level")

    # ``seed`` rebinds as a default so the per-epoch stream derivation
    # below is keyed off injected state rather than a closure cell.
    def next_delta(k: int, *, seed: int = seed) -> SceneDelta | None:
        if epochs is not None and k >= epochs:
            return None
        site = int(sites[k % sites.size])
        # Anchor the replacement at the current incarnation's footprint.
        data = targets[0].store.data
        mask = data["object_id"] == site
        if not mask.any():
            raise WorkloadError(f"site {site} has no rows in the scene")
        low = data["sup_low"][mask].min(axis=0)
        high = data["sup_high"][mask].max(axis=0)
        child = derive_rng(seed, k)
        span = high - low
        width = float(span[0]) * child.uniform(0.8, 1.1)
        depth = float(span[1]) * child.uniform(0.8, 1.1)
        height = max(float(span[2]), 1e-6) * child.uniform(0.8, 1.25)
        hierarchy = procedural_building(
            child,
            center=(
                float((low[0] + high[0]) / 2.0),
                float((low[1] + high[1]) / 2.0),
                0.0,
            ),
            footprint=(width, depth),
            height=height,
            levels=levels,
        )
        decomposition = analyze_hierarchy(hierarchy)
        rows = targets[0].register_epoch_object(site, decomposition)
        for other in targets[1:]:
            other.register_epoch_object(site, decomposition)
        return SceneDelta(remesh_rows=rows)

    return next_delta
