"""City dataset builder.

The paper's datasets are 100-400 3-D objects (old buildings) placed
uniformly -- and, for Figure 15, Zipfian -- over a city, giving 20-80 MB
of data (Section VII-A).  This module builds the equivalent synthetic
city: procedural buildings and landmarks wavelet-decomposed into an
:class:`~repro.server.database.ObjectDatabase`.

Object sizes follow the explicit encoding model, so "dataset MB" scales
linearly with object count exactly as in the paper; the absolute bytes
per object depend on the subdivision depth (see ``EXPERIMENTS.md`` for
the scale mapping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.geometry.box import Box
from repro.mesh.generators import procedural_building, procedural_landmark
from repro.server.database import ObjectDatabase
from repro.wavelets.analysis import analyze_hierarchy
from repro.wavelets.encoding import DEFAULT_ENCODING, EncodingModel

__all__ = ["CityConfig", "build_city", "populate_city", "zipf_weights"]


@dataclass(frozen=True)
class CityConfig:
    """Parameters of a synthetic city dataset.

    Attributes
    ----------
    space:
        2-D ground extent of the city.
    object_count:
        Number of 3-D objects (the paper's 100-400 axis).
    levels:
        Subdivision depth of every object (detail levels ``J``).
    placement:
        ``"uniform"`` or ``"zipf"`` (clustered around hot spots with
        Zipf-distributed popularity, Figure 15's dataset).
    seed:
        Master seed; every object derives its own child seed.
    landmark_fraction:
        Share of objects generated as round landmarks instead of
        rectangular buildings.
    zipf_clusters / zipf_exponent:
        Hot-spot count and skew for Zipfian placement.
    min_size_frac / max_size_frac:
        Object footprint side as a fraction of the space side; the
        buffer experiments use larger objects so most grid blocks hold
        data, as in the paper's dense city.
    """

    space: Box
    object_count: int = 100
    levels: int = 3
    placement: str = "uniform"
    seed: int = 7
    landmark_fraction: float = 0.25
    zipf_clusters: int = 8
    zipf_exponent: float = 1.1
    min_size_frac: float = 0.008
    max_size_frac: float = 0.02

    def __post_init__(self) -> None:
        if self.space.ndim != 2:
            raise WorkloadError("city space must be 2-D")
        if self.object_count < 1:
            raise WorkloadError("need at least one object")
        if self.levels < 1:
            raise WorkloadError("objects need at least one detail level")
        if self.placement not in ("uniform", "zipf"):
            raise WorkloadError(f"unknown placement {self.placement!r}")
        if not 0.0 <= self.landmark_fraction <= 1.0:
            raise WorkloadError("landmark_fraction must be in [0, 1]")
        if self.zipf_clusters < 1:
            raise WorkloadError("need at least one zipf cluster")
        if not 0.0 < self.min_size_frac <= self.max_size_frac:
            raise WorkloadError(
                "need 0 < min_size_frac <= max_size_frac, got "
                f"{self.min_size_frac}/{self.max_size_frac}"
            )


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf probabilities ``p_i ~ 1 / i^exponent``."""
    if n < 1:
        raise WorkloadError("need n >= 1")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


def _object_positions(config: CityConfig, rng: np.random.Generator) -> np.ndarray:
    low = config.space.low
    high = config.space.high
    margin = 0.04 * config.space.extents
    if config.placement == "uniform":
        return rng.uniform(low + margin, high - margin, size=(config.object_count, 2))
    centers = rng.uniform(
        low + 4 * margin, high - 4 * margin, size=(config.zipf_clusters, 2)
    )
    probs = zipf_weights(config.zipf_clusters, config.zipf_exponent)
    assignment = rng.choice(config.zipf_clusters, size=config.object_count, p=probs)
    sigma = 0.06 * float(config.space.extents.min())
    positions = centers[assignment] + rng.normal(0.0, sigma, size=(config.object_count, 2))
    return np.clip(positions, low + margin, high - margin)


def build_city(
    config: CityConfig,
    *,
    encoding: EncodingModel = DEFAULT_ENCODING,
    spatial_dims: int = 2,
) -> ObjectDatabase:
    """Generate and decompose every object into a ready database."""
    return populate_city(
        ObjectDatabase(encoding=encoding, spatial_dims=spatial_dims), config
    )


def populate_city(db: ObjectDatabase, config: CityConfig) -> ObjectDatabase:
    """Fill any (subclass of) object database with the city's objects.

    The object stream is a pure function of ``config`` -- the target
    database never touches the generator state -- so a static
    :class:`ObjectDatabase` and an epoch-versioned
    :class:`~repro.server.scene.SceneDatabase` built from the same
    config hold identical epoch-0 geometry.
    """
    rng = np.random.default_rng(config.seed)
    positions = _object_positions(config, rng)
    extent = float(config.space.extents.min())
    for oid in range(config.object_count):
        child = np.random.default_rng(rng.integers(0, 2**63))
        x, y = positions[oid]
        lo, hi = config.min_size_frac, config.max_size_frac
        if child.random() < config.landmark_fraction:
            radius = extent * child.uniform(0.75 * lo, 0.75 * hi)
            hierarchy = procedural_landmark(
                child,
                center=(float(x), float(y), radius),
                radius=radius,
                levels=config.levels,
            )
        else:
            width = extent * child.uniform(lo, hi)
            depth = extent * child.uniform(lo, hi)
            height = extent * child.uniform(1.8 * lo, 2.0 * hi)
            hierarchy = procedural_building(
                child,
                center=(float(x), float(y), 0.0),
                footprint=(width, depth),
                height=height,
                levels=config.levels,
            )
        db.add_object(oid, analyze_hierarchy(hierarchy))
    return db
