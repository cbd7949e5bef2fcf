"""Shared set-up of the four workloads: the city preset, the seeds, sizes.

Everything the program under test receives is generated here from
``--seed``; the workloads themselves only see the generated inputs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from repro.geometry.box import Box
from repro.net.messages import RegionRequest, RetrieveRequest
from repro.store.uids import UidSet
from repro.workloads.cityscape import CityConfig

SPACE = Box((0.0, 0.0), (1000.0, 1000.0))

#: The run length every size below was chosen for (``run_seconds`` in
#: BENCHMARK.json); ``--seconds`` scales the phases linearly from here.
RUN_SECONDS = 15

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Half-extent of a socket viewer's query window.
WINDOW_HALF = 150.0

#: Logical viewers multiplexed over the generator's connections, and the
#: fresh ones of the closed-loop capacity phase.  A pedestrian sees one
#: neighbourhood, so ``serve_churn`` needs more of them than ``serve_tram``
#: needs trams before bytes per frame stop depending on where they start.
VIEWERS = {"serve_tram": 64, "serve_churn": 128}
CLOSED_VIEWERS = {"serve_tram": 16, "serve_churn": 64}

#: Measurement windows of an open-loop phase; a timing metric is the
#: median of the per-window values.
WINDOWS = 5

#: Spatial shards of the sharded workloads.
SHARDS = 4

#: ``serve_churn``: epochs applied before serving starts, so planners,
#: pinned index views and the epoch chain are in use when timing begins.
PRIME_EPOCHS = 32
CHURN_AMPLITUDE = 6.0

#: A frame slower than this (or failed) counts in ``serve.client.miss_share``.
MISS_LIMIT_MS = 100.0

#: Every n-th response is checked against the oracle.
ORACLE_EVERY = 16


#: The dataset is one fixed city; ``--seed`` drives the traffic over it.
#: Where 48 objects fall moves every byte count by ~7 % from one city to
#: the next, which would be the floor of every spread between seeds.
CITY_SEED = 48


@dataclass(frozen=True)
class Seeds:
    """The independent traffic streams derived from ``--seed``."""

    tours: int
    ticks: int
    deltas: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        tours, ticks, deltas = (
            int(s) for s in np.random.SeedSequence(seed).generate_state(3)
        )
        return cls(tours=tours, ticks=ticks, deltas=deltas)


def city_config(*, smoke: bool = False) -> CityConfig:
    """Preset ``city48`` (or a 12-object city for the harness tests)."""
    return CityConfig(
        space=SPACE,
        object_count=12 if smoke else 48,
        levels=2,
        min_size_frac=0.02,
        max_size_frac=0.05,
        seed=CITY_SEED,
    )


def churn_ids(config: CityConfig) -> np.ndarray:
    """Every 10th object commutes in ``serve_churn``."""
    return np.arange(0, config.object_count, 10, dtype=np.int64)


def frame_request(
    client_id: int, frame: int, position: np.ndarray, exclude: UidSet
) -> RetrieveRequest:
    """One viewer frame; ``timestamp`` carries the frame index so the
    child can name the trace it belongs to."""
    window = Box(position - WINDOW_HALF, position + WINDOW_HALF)
    return RetrieveRequest(
        timestamp=float(frame),
        client_id=client_id,
        regions=(RegionRequest(window, 0.0, 1.0),),
        exclude_uids=exclude,
    )


def scaled(count: int, seconds: float, *, least: int = 1) -> int:
    """``count`` units of fixed work at ``RUN_SECONDS``, scaled to ``seconds``."""
    return max(least, round(count * seconds / RUN_SECONDS))


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (``VmHWM``).

    Not ``ru_maxrss``: that one survives ``exec``, so a child would
    report at least whatever its parent once held.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


#: Share of the slowest frames whose mean latency is ``frame_tail_ms``.
TAIL_SHARE = 0.10


def tail_mean(values) -> float:
    """Mean of the slowest ``TAIL_SHARE`` of ``values`` (at least one).

    Latencies here are bimodal -- a tick either hits the buffer or runs
    the whole prediction, a frame either passes or queues behind an
    epoch -- and the slow mode holds about one frame in twenty, so a
    95th percentile lands on the edge between the modes and flips from
    seed to seed.  The mean of the slowest tenth contains the whole
    slow mode and moves smoothly with its size and its cost.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    count = max(1, int(np.ceil(ordered.size * TAIL_SHARE)))
    return float(ordered[-count:].mean())


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q3 - q1)
