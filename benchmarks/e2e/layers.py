"""From spans and counters to the per-layer metrics of a traced run."""

from __future__ import annotations

from dataclasses import dataclass, field

from benchmarks.e2e.tracing import totals


@dataclass
class RunResult:
    """What one workload run hands back to the command line."""

    end_to_end: dict[str, float]
    attempted: int
    failed: int
    #: Per-layer values of a traced run (empty when untraced).
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Validity-guard violations; any makes the command exit non-zero.
    problems: list[str] = field(default_factory=list)
    #: Per-window values, spreads, sizes -- written to ``--out`` only.
    detail: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


def span_metrics(records: list[dict], operations: int) -> dict[str, float]:
    """Self time and counts per operation, named after the spans.

    A span ``(layer, name)`` yields ``<layer>.<name>_ms``; a count
    ``c`` recorded on a span of ``layer`` yields ``<layer>.<c>``.
    """
    self_ns, counts = totals(records)
    out = {f"{key}_ms": ns / 1e6 / operations for key, ns in self_ns.items()}
    for key, value in counts.items():
        out[key] = value / operations
    return out


def close_layers(metrics: dict[str, float], wall_ms: float, p50_ms: float) -> None:
    """Finish a traced run's span metrics in place.

    Turns the shard-plan carrier counts into ``shards_per_query``, then
    adds the ``trace.*`` pair: the share of the traced per-operation wall
    the ``_ms`` self times account for, and the traced run's own median.
    """
    queries = metrics.pop("shard.database.queries", 0.0)
    consulted = metrics.pop("shard.database.shards_consulted", 0.0)
    metrics["shard.database.shards_per_query"] = (
        consulted / queries if queries else 0.0
    )
    metrics["trace.coverage_share"] = (
        sum(v for k, v in metrics.items() if k.endswith("_ms")) / wall_ms
    )
    metrics["trace.frame_p50_ms"] = p50_ms
