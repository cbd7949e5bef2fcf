"""Metrics of a socket run: correctness, end to end, and per layer.

The per-layer part joins the generator's spans with the child's on the
trace ``(client_id, frame index)`` both record, using durations only --
the two processes' clocks are never compared.
"""

from __future__ import annotations

import asyncio

from repro.store.scene import SceneStore
from repro.workloads.cityscape import build_city
from repro.workloads.dynamics import dynamic_city

from benchmarks.e2e import oracle, setups
from benchmarks.e2e.layers import RunResult, close_layers, span_metrics
from benchmarks.e2e.scenario import (
    MISS_LIMIT_MS,
    WINDOWS,
    Seeds,
    city_config,
    iqr,
    median,
    percentile,
    tail_mean,
)
from benchmarks.e2e.serve_load import (
    CLOSED_FIRST_ID,
    HANG_GUARD_S,
    MAX_LATE_P95_MS,
    MIN_ACHIEVED_SHARE,
    Measured,
    measure,
)
from benchmarks.e2e.tracing import Tracer


def run(
    workload: str, seed: int, seconds: float, tracer: Tracer, *, smoke: bool = False
) -> RunResult:
    """Run one socket workload under the hang guard; report its metrics."""
    measured = asyncio.run(
        asyncio.wait_for(
            measure(workload, seed, seconds, tracer, smoke), HANG_GUARD_S + seconds
        )
    )
    return report(measured, seed, tracer, smoke)


def _oracle_stores(workload: str, config, seeds: Seeds, last_epoch: int):
    """The generator's own copy of the data, epoch by epoch."""
    if workload == "serve_tram":
        store = build_city(config).store
        return lambda epoch: store
    scene: SceneStore = dynamic_city(config).scene
    next_delta = setups.churn_deltas(config, seeds)
    for k in range(last_epoch):
        scene.apply(next_delta(k))
    return scene.at_epoch


def report(m: Measured, seed: int, tracer: Tracer, smoke: bool) -> RunResult:
    seeds = Seeds.derive(seed)
    gen = m.generator
    # Every sampled response against a linear scan of the epoch it is
    # stamped with.
    last_epoch = max([m.hello["epoch"]] + [e for _, e, _ in gen.epochs])
    store_at = _oracle_stores(
        m.workload, city_config(smoke=smoke), seeds, last_epoch
    )
    mismatches = sum(
        oracle.mismatch(
            s.uids,
            oracle.expected_uids(
                store_at(s.epoch), s.low, s.high, 0.0, 1.0, s.exclude
            ),
        )
        for s in gen.samples
    )

    timed = [f for f in gen.frames if f.window >= 0]
    by_window = [
        [(f.done - f.due) * 1e3 for f in timed if f.window == w and f.ok]
        for w in range(WINDOWS)
    ]
    p50s = [percentile(w, 50) for w in by_window]
    tails = [tail_mean(w) for w in by_window]
    phase_a = {
        key: m.after["engine"][key] - m.before["engine"][key]
        for key in ("requests", "bytes_out")
    }
    closed_started, closed_ended, closed_frames = m.closed
    end_to_end = {
        "setup_s": median(m.setup_walls),
        "peak_rss_mb": m.final["peak_rss_mb"],
        "frame_p50_ms": median(p50s),
        "frame_tail_ms": median(tails),
        "capacity_rps": closed_frames / (closed_ended - closed_started),
        "wire_bytes_per_frame": phase_a["bytes_out"] / phase_a["requests"],
    }

    # Validity of the generator: it offered what it claims, on time.
    problems = list(m.problems)
    late_p95_ms = percentile(gen.late_s, 95) * 1e3
    achieved = sum(f.ok for f in timed) / (
        max(f.done for f in timed) - min(f.due for f in timed)
    )
    if achieved < MIN_ACHIEVED_SHARE * m.rate:
        problems.append(
            f"phase A achieved {achieved:.1f} of {m.rate:.1f} offered frames/s"
        )
    if not tracer.enabled and late_p95_ms > MAX_LATE_P95_MS:
        problems.append(f"generator ran {late_p95_ms:.2f} ms late at p95")

    result = RunResult(
        end_to_end=end_to_end,
        attempted=len(gen.frames) + len(gen.epochs),
        failed=sum(not f.ok for f in gen.frames) + mismatches,
        problems=problems,
        detail={
            "rate_fps": m.rate,
            "achieved_fps": achieved,
            "late_p95_ms": late_p95_ms,
            "window_p50_ms": p50s,
            "window_p95_ms": [percentile(w, 95) for w in by_window],
            "window_tail_ms": tails,
            "window_samples": [len(w) for w in by_window],
            "frame_p50_iqr_ms": iqr(p50s),
            "frame_tail_iqr_ms": iqr(tails),
            "setup_walls_s": m.setup_walls,
            "child_setup": m.hello["setup"],
            "records": m.hello["records"],
            "closed_frames": closed_frames,
            "closed_request_bytes": (
                m.last["engine"]["bytes_in"] - m.after["engine"]["bytes_in"]
            )
            / closed_frames,
            "epochs": len(gen.epochs),
            "epoch_apply_ms": [ms for _, _, ms in gen.epochs],
            "oracle_checked": len(gen.samples),
            "oracle_mismatches": mismatches,
            "service": m.last["service"],
        },
    )
    if tracer.enabled:
        ours = tracer.records()
        result.per_layer = _per_layer(
            m, ours, late_p95_ms, end_to_end["frame_p50_ms"]
        )
        result.spans = ours + [
            dict(record, process="child") for record in m.final["spans"]
        ]
    return result


def _root_ms(records: list[dict]) -> float:
    """Summed duration of the operation roots among ``records``."""
    return sum(
        r["end_ns"] - r["start_ns"] for r in records if r["parent"] is None
    ) / 1e6


def _per_layer(
    m: Measured, ours: list[dict], late_p95_ms: float, p50_ms: float
) -> dict:
    gen = m.generator
    theirs = m.final["spans"]
    timed = {f.trace for f in gen.frames if f.window >= 0 and f.ok}
    closed = {f.trace for f in gen.frames if f.trace[0] >= CLOSED_FIRST_ID}
    t_lo = min(f.due for f in gen.frames if f.window >= 0)
    t_hi = max(f.done for f in gen.frames if f.window >= 0)
    # Epoch k of the run is the k-th the generator asked for.
    timed_epochs = {
        k for k, (at, _, _) in enumerate(gen.epochs) if t_lo <= at <= t_hi
    }

    def of(records: list[dict], traces: set) -> list[dict]:
        return [
            r for r in records
            if r["trace"] and r["end_ns"] is not None and tuple(r["trace"]) in traces
        ]

    frames = len(timed)
    mine, served = of(ours, timed), of(theirs, timed)
    # Span ids restart in each process, so the two trees are summed apart.
    layer = span_metrics(mine, frames)
    layer.update(span_metrics(served, frames))
    # The frame root's self time is what the client did not spend
    # encoding.  Less the child's handle span and the client's decode,
    # it is the wait: transport, both event loops, queueing behind
    # other frames and behind epochs.
    handled_ms = _root_ms(served) / frames
    layer["serve.service.queue_wait_ms"] = (
        layer.pop("serve.client.frame_ms")
        - handled_ms
        - layer["serve.client.decode_ms"]
    )
    frame_ms = sum(
        r["end_ns"] - r["start_ns"] for r in mine if r["name"] == "frame"
    ) / 1e6 / frames
    close_layers(layer, frame_ms, p50_ms)
    fetched = layer.get("server.server.rows_fetched", 0.0)
    layer["server.server.useful_row_share"] = (
        layer.get("server.server.rows_shipped", 0.0) / fetched if fetched else 0.0
    )

    epochs = of(theirs, {("epoch", k) for k in timed_epochs})
    if timed_epochs:
        layer.update(span_metrics(epochs, len(timed_epochs)))
        layer["serve.service.epoch_apply_ms"] = median(
            [gen.epochs[k][2] for k in timed_epochs]
        )
        for choice in ("patches", "rebuilds"):
            layer[f"index.dynamic.{choice}"] = m.final["index"][choice] / len(
                gen.epochs
            )
    closed_started, closed_ended, _ = m.closed
    closed_epochs = {
        ("epoch", k)
        for k, (at, _, _) in enumerate(gen.epochs)
        if closed_started <= at <= closed_ended
    }
    planner = {
        key: m.after["planner"][key] - m.before["planner"][key]
        for key in ("warm", "cold")
    }
    lookups = planner["warm"] + planner["cold"]
    latencies = [
        (f.done - f.due) * 1e3 if f.ok else float("inf")
        for f in gen.frames
        if f.window >= 0
    ]
    layer.update(m.hello["setup"])
    layer.update(
        {
            "serve.client.late_p95_ms": late_p95_ms,
            "serve.client.miss_share": sum(ms > MISS_LIMIT_MS for ms in latencies)
            / len(latencies),
            "serve.service.busy_share": (_root_ms(served) + _root_ms(epochs))
            / 1e3
            / (t_hi - t_lo),
            "serve.service.closed_busy_share": _root_ms(
                of(theirs, closed | closed_epochs)
            )
            / 1e3
            / (closed_ended - closed_started),
            "serve.service.queue_high_water": m.last["service"]["queue_high_water"],
            "serve.service.request_errors": m.last["service"]["request_errors"],
            "server.planner.hit_rate": planner["warm"] / lookups if lookups else 0.0,
            "index.packed.node_reads": sum(
                f.node_reads for f in gen.frames if f.trace in timed
            )
            / frames,
        }
    )
    return layer
