"""Shared experiment infrastructure.

Every experiment module produces a :class:`ResultTable` -- a list of
rows with named columns -- and gets its datasets and tours from here so
expensive city builds are cached across experiments within a process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.box import Box
from repro.motion.trajectory import Trajectory, make_tours
from repro.server.database import ObjectDatabase
from repro.workloads.cityscape import CityConfig, build_city
from repro.workloads.config import ExperimentScale

__all__ = ["ResultTable", "city_database", "tour_suite", "clear_caches"]


@dataclass
class ResultTable:
    """Rows/columns of one reproduced table or figure.

    ``notes`` carries the experiment's free-text context (what the
    paper's corresponding figure shows).
    """

    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def add(self, **values) -> None:
        missing = [c for c in self.columns if c not in values]
        extra = [k for k in values if k not in self.columns]
        if missing or extra:
            raise ConfigurationError(
                f"row mismatch for {self.name}: missing={missing} extra={extra}"
            )
        self.rows.append(dict(values))

    def column(self, name: str) -> list:
        if name not in self.columns:
            raise ConfigurationError(f"no column {name!r} in {self.name}")
        return [row[name] for row in self.rows]

    def series(self, x: str, y: str, **filters) -> list[tuple]:
        """(x, y) pairs of rows matching the filters, sorted by x."""
        pairs = [
            (row[x], row[y])
            for row in self.rows
            if all(row.get(k) == v for k, v in filters.items())
        ]
        return sorted(pairs)

    def to_text(self) -> str:
        """An aligned, printable table."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        header = list(self.columns)
        body = [[fmt(row[c]) for c in header] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in body)) if body else len(h)
            for i, h in enumerate(header)
        ]
        lines = [self.name]
        if self.notes:
            lines.append(self.notes)
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


_city_cache: dict[tuple, ObjectDatabase] = {}
_tour_cache: dict[tuple, list[Trajectory]] = {}


def clear_caches() -> None:
    """Drop memoised datasets/tours (tests use this for isolation)."""
    _city_cache.clear()
    _tour_cache.clear()


def city_database(
    scale: ExperimentScale,
    *,
    object_count: int | None = None,
    placement: str = "uniform",
    seed: int = 7,
    dense: bool = False,
    deep: bool = False,
) -> ObjectDatabase:
    """A cached city database for the given configuration.

    ``dense=True`` builds the buffer-management variant: many shallower
    objects with larger footprints, so most grid blocks hold data (the
    paper's city is dense along the tours).  ``dense=True, deep=True``
    keeps the density but at full subdivision depth -- the end-to-end
    system experiments need real per-object data volume so the naive
    full-resolution system pays a visible transfer cost.
    """
    count = object_count if object_count is not None else (
        scale.buffer_objects if dense else scale.default_objects
    )
    if dense and deep:
        count = object_count if object_count is not None else max(
            scale.buffer_objects * 2 // 5, 20
        )
    levels = scale.levels if (deep or not dense) else scale.buffer_levels
    key = (count, placement, levels, seed, dense, deep)
    if key not in _city_cache:
        config = CityConfig(
            space=scale.space,
            object_count=count,
            levels=levels,
            placement=placement,
            seed=seed,
            min_size_frac=0.02 if dense else 0.008,
            max_size_frac=0.05 if dense else 0.02,
        )
        _city_cache[key] = build_city(config)
    return _city_cache[key]


def tour_suite(
    scale: ExperimentScale,
    kind: str,
    *,
    speed: float,
    steps: int | None = None,
    count: int | None = None,
    base_seed: int = 1000,
) -> list[Trajectory]:
    """A cached suite of tours ("tourists") for one kind and speed."""
    n_steps = steps if steps is not None else scale.tour_steps
    n_tours = count if count is not None else scale.tours_per_kind
    key = (kind, round(speed, 6), n_steps, n_tours, base_seed)
    if key not in _tour_cache:
        _tour_cache[key] = make_tours(
            scale.space,
            kind,
            count=n_tours,
            speed=speed,
            steps=n_steps,
            base_seed=base_seed,
        )
    return _tour_cache[key]


def query_box_for(space: Box, position: np.ndarray, query_frac: float) -> Box:
    """The query frame of a client at ``position``."""
    return Box.from_center(position, query_frac * space.extents)


__all__.append("query_box_for")
