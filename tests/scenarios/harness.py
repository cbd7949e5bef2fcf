"""Table-driven fault-scenario harness.

A :class:`Scenario` pins everything a run depends on -- the fault
schedule, the tour generator seed and the system seed -- so replaying a
scenario is a pure function: same table row, same
:class:`~repro.core.system.SystemRunResult`, bit for bit.

The scenario configs zero out server I/O time so the per-tick response
is exactly the resilient-exchange time, which
:func:`response_bound` bounds in closed form via
:meth:`~repro.core.resilience.ResiliencePolicy.worst_case_request_s`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.resilience import ResiliencePolicy
from repro.core.system import SystemConfig, SystemRunResult
from repro.geometry.box import Box
from repro.motion.trajectory import Trajectory, tram_tour
from repro.net.faults import (
    FaultSchedule,
    GilbertElliottConfig,
    bandwidth_collapse_schedule,
    latency_spike_schedule,
    outage_schedule,
)
from repro.net.link import LinkConfig
from repro.server.database import ObjectDatabase
from repro.server.server import Server

SPACE = Box((0, 0), (1000, 1000))

# Shared by every scenario so differences come from the schedule alone.
SCENARIO_LINK = LinkConfig(max_attempts=4)
SCENARIO_POLICY = ResiliencePolicy(
    max_retries=2,
    base_backoff_s=0.2,
    backoff_factor=2.0,
    max_backoff_s=2.0,
    jitter_frac=0.25,
    timeout_s=30.0,
    degraded_window_s=15.0,
    degraded_w_min=0.9,
)


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table."""

    name: str
    schedule: FaultSchedule
    expect_failures: bool
    speed: float = 0.6
    steps: int = 60
    tour_seed: int = 21
    seed: int = 3


SCENARIOS: tuple[Scenario, ...] = (
    Scenario("baseline", FaultSchedule(), expect_failures=False),
    Scenario(
        "burst_loss",
        # A harsh channel: short good spells, long lossy bursts.  The
        # chain starts good, so the early cold-start fetches see the
        # moderate ``loss_good`` and the bursts hit steady-state ticks.
        FaultSchedule(
            name="burst_loss",
            gilbert_elliott=GilbertElliottConfig(
                p_good_bad=0.5,
                p_bad_good=0.1,
                loss_good=0.4,
                loss_bad=0.98,
                step_s=1.0,
            ),
        ),
        expect_failures=True,
    ),
    Scenario(
        "outage",
        # Periodic blackouts from t=0, each long enough to outlast a
        # full retry chain, so both systems fail regardless of how far
        # their clocks drift ahead of the tour timestamps.
        outage_schedule(
            start_s=0.0, duration_s=16.0, period_s=30.0, horizon_s=600.0
        ),
        expect_failures=True,
    ),
    Scenario(
        "latency_spike",
        latency_spike_schedule(
            start_s=0.0, duration_s=30.0, extra_latency_s=2.0
        ),
        expect_failures=False,
    ),
    Scenario(
        "bandwidth_collapse",
        bandwidth_collapse_schedule(start_s=0.0, duration_s=30.0, factor=0.05),
        expect_failures=False,
    ),
)


def make_config(scenario: Scenario) -> SystemConfig:
    return SystemConfig(
        space=SPACE,
        grid_shape=(12, 12),
        buffer_bytes=8 * 1024,
        query_frac=0.12,
        link=SCENARIO_LINK,
        io_time_per_node_s=0.0,
        faults=scenario.schedule,
        resilience=SCENARIO_POLICY,
        seed=scenario.seed,
    )


def make_tour(scenario: Scenario) -> Trajectory:
    return tram_tour(
        SPACE,
        np.random.default_rng(scenario.tour_seed),
        speed=scenario.speed,
        steps=scenario.steps,
    )


def run_scenario(city: ObjectDatabase, scenario: Scenario, system_cls):
    """Replay one scenario on a fresh server; returns (system, result)."""
    system = system_cls(Server(city), make_config(scenario))
    return system, system.run(make_tour(scenario))


def response_bound(city: ObjectDatabase, scenario: Scenario) -> float:
    """Closed-form worst-case per-tick response for this scenario.

    No single tick can demand more than the whole database plus its
    base connectivity, so ``2 * total_bytes`` caps every payload.
    """
    payload_cap = 2 * city.total_bytes
    return SCENARIO_POLICY.worst_case_request_s(
        SCENARIO_LINK,
        payload_cap,
        speed=make_tour(scenario).nominal_speed,
        extra_latency_s=scenario.schedule.worst_extra_latency_s(),
        bandwidth_factor=scenario.schedule.min_bandwidth_factor(),
    )


def fingerprint(result: SystemRunResult) -> tuple:
    """Every field of a run result as one hashable, exact tuple."""
    data = dataclasses.asdict(result)
    return tuple(
        (key, tuple(value) if isinstance(value, list) else value)
        for key, value in sorted(data.items())
    )


def result_digest(result) -> str:
    """SHA-256 over every field of a run/fleet result dataclass."""
    return hashlib.sha256(repr(dataclasses.asdict(result)).encode()).hexdigest()
