"""Experiment configuration defaults (Section VII-A) and scaling.

The paper's setup: datasets of 100/200/300/400 objects (20/40/60/80 MB,
default 60 MB), query frames of 5/10/15/20 % of the space (default
10 %), 256 Kbps / 200 ms links, buffers of 16-128 KB, tours of 10
tourists (tram and pedestrian), speeds normalised to 0.001-1.0.

Running the full-size setup in pure Python is possible but slow, so the
experiment modules default to a shape-preserving scaled configuration
and honour the ``REPRO_SCALE`` environment variable (a float; 1.0 is the
default scaled size, larger values move toward the paper's full size).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.geometry.box import Box
from repro.net.link import LinkConfig

__all__ = ["ExperimentScale", "PAPER_SPEEDS", "PAPER_QUERY_FRACS", "PAPER_BUFFER_KB"]

# The speed axis used throughout Section VII.
PAPER_SPEEDS = (0.001, 0.25, 0.5, 0.75, 1.0)

# Query frame side as a fraction of the space side (Fig. 9a / 13a).
PAPER_QUERY_FRACS = (0.05, 0.10, 0.15, 0.20)

# Buffer sizes of Fig. 10.
PAPER_BUFFER_KB = (16, 32, 64, 128)

# Dataset sizes in paper MB (ExperimentScale.objects_for maps them to objects).
PAPER_DATASETS_MB = (20, 40, 60, 80)


def _env_scale() -> float:
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"REPRO_SCALE must be a float, got {raw!r}") from exc
    if value <= 0:
        raise ConfigurationError(f"REPRO_SCALE must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by every experiment, derived from ``REPRO_SCALE``.

    At scale 1.0 (default): 8 objects per paper-20MB, subdivision depth
    3, 120-step tours, 3 tourists per kind.  At scale 4.0 the object
    counts and tour suite approach the paper's setup.
    """

    scale: float = field(default_factory=_env_scale)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")

    @property
    def space(self) -> Box:
        """The city ground extent (units are metres-ish; size is moot)."""
        return Box((0.0, 0.0), (1000.0, 1000.0))

    @property
    def levels(self) -> int:
        """Subdivision depth of the objects."""
        return 3

    def objects_for(self, paper_mb: int) -> int:
        """Object count standing in for the paper's ``paper_mb`` dataset."""
        if paper_mb not in PAPER_DATASETS_MB:
            raise ConfigurationError(
                f"paper dataset must be one of {PAPER_DATASETS_MB}, got {paper_mb}"
            )
        per20 = max(int(round(8 * self.scale)), 3)
        return per20 * (paper_mb // 20)

    @property
    def default_objects(self) -> int:
        """Objects for the paper's default 60 MB dataset."""
        return self.objects_for(60)

    @property
    def tour_steps(self) -> int:
        return max(int(round(120 * self.scale)), 40)

    @property
    def tours_per_kind(self) -> int:
        """Tourists per motion kind (paper: 10)."""
        return max(int(round(3 * self.scale)), 2)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (20, 20)

    @property
    def buffer_objects(self) -> int:
        """Object count for the (dense) buffer-management city."""
        return max(int(round(150 * self.scale)), 60)

    @property
    def buffer_levels(self) -> int:
        """Subdivision depth for the buffer city (shallower = denser)."""
        return 2

    @property
    def link(self) -> LinkConfig:
        """The paper's 256 Kbps / 200 ms wireless link."""
        return LinkConfig()

    def buffer_bytes(self, kb: int) -> int:
        """A Fig.-10 buffer size in bytes: exactly ``kb * 1024``.

        Not scaled to the dataset's density or to ``scale``: a buffer
        of the paper's size may hold a whole scaled-down city.
        Reporting that regime and fixing it is ROADMAP item 2(c).
        """
        if kb <= 0:
            raise ConfigurationError(f"buffer KB must be positive, got {kb}")
        return kb * 1024
