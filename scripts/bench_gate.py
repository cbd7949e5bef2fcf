#!/usr/bin/env python
"""Benchmark regression gate.

Compares a freshly produced benchmark document against the committed
reference (``BENCH_datapath.json`` / ``BENCH_index.json`` /
``BENCH_serve.json``) and fails when a speedup ratio regressed beyond
the tolerance, or when a parity flag (``identical_*``) that the
reference asserts is no longer true.

Only *ratios* are compared -- absolute seconds differ across machines,
but "columnar is Nx faster than per-record on the same box" should
hold anywhere.  The tolerance is deliberately generous because CI
runners are noisy and smoke runs use a smaller dataset than the
committed full-scale documents; the gate exists to catch the order-of-
magnitude regressions (a vectorised path silently falling back to a
Python loop), not 10% jitter.

Usage::

    python scripts/bench_gate.py --fresh out.json --committed BENCH_index.json
    python scripts/bench_gate.py --fresh out.json --committed BENCH_index.json \
        --tolerance 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.5


def iter_metrics(document: dict) -> list[tuple[str, str, object]]:
    """Flatten ``section.key`` leaves we gate on: speedups and flags.

    Sections nest: dict values recurse with dotted section paths
    (``section.sub_section``) so a gated ratio can live at any depth.  Lists are skipped --
    scaling-curve points carry machine-specific absolute times, never
    gated ratios.
    """
    out: list[tuple[str, str, object]] = []
    for section, body in document.items():
        if not isinstance(body, dict):
            continue
        for key, value in body.items():
            if key == "speedup" or key.endswith("_speedup"):
                out.append((section, key, float(value)))
            elif key.startswith("identical_"):
                out.append((section, key, bool(value)))
            elif isinstance(value, dict):
                out.extend(
                    (f"{section}.{sub_section}", sub_key, sub_value)
                    for sub_section, sub_key, sub_value in iter_metrics(
                        {key: value}
                    )
                )
    return out


def compare(fresh: dict, committed: dict, tolerance: float) -> list[str]:
    """Every committed metric must hold in the fresh document."""
    failures: list[str] = []
    fresh_metrics = {
        (section, key): value for section, key, value in iter_metrics(fresh)
    }
    for section, key, reference in iter_metrics(committed):
        value = fresh_metrics.get((section, key))
        label = f"{section}.{key}"
        if value is None:
            failures.append(f"{label}: missing from fresh document")
        elif isinstance(reference, bool):
            if reference and not value:
                failures.append(f"{label}: parity flag regressed to false")
        else:
            floor = reference * (1.0 - tolerance)
            assert isinstance(value, float)
            if value < floor:
                failures.append(
                    f"{label}: {value:.2f}x below floor {floor:.2f}x "
                    f"(committed {reference:.2f}x, tolerance {tolerance:.0%})"
                )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh", type=Path, required=True,
        help="benchmark JSON produced by this run",
    )
    parser.add_argument(
        "--committed", type=Path, required=True,
        help="committed reference JSON (BENCH_*.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional speedup loss vs committed (default %(default)s)",
    )
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")
    fresh = json.loads(args.fresh.read_text())
    committed = json.loads(args.committed.read_text())
    failures = compare(fresh, committed, args.tolerance)
    if failures:
        for failure in failures:
            print(f"BENCH REGRESSION: {failure}", file=sys.stderr)
        return 1
    gated = len(iter_metrics(committed))
    print(
        f"bench gate ok: {gated} metric(s) from {args.committed} "
        f"hold in {args.fresh} (tolerance {args.tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
