"""Command line of the end-to-end benchmark.

``--workload W --seed N --seconds S --trace 0|1`` runs one workload and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of an untraced run, the per-layer metrics of a traced
one, each by the name and unit ``BENCHMARK.json`` gives it.  ``compare
A.json B.json`` applies the bounds of ``BENCHMARK.json`` to two sets of
``--out`` documents.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from benchmarks.e2e.layers import RunResult
from benchmarks.e2e.scenario import RUN_SECONDS, Seeds
from benchmarks.e2e.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = ("serve_tram", "serve_churn", "tour_motion", "fleet_flat")


def load_spec() -> dict:
    """``BENCHMARK.json``: the one list of metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_context(seed: int) -> dict:
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a checkout without git metadata
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "commit": commit,
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False
) -> RunResult:
    tracer = Tracer(enabled=trace)
    try:
        if workload.startswith("serve_"):
            from benchmarks.e2e import serve_metrics

            return serve_metrics.run(workload, seed, seconds, tracer, smoke=smoke)
        from benchmarks.e2e import inproc

        run = inproc.tour_motion if workload == "tour_motion" else inproc.fleet_flat
        return run(Seeds.derive(seed), seconds, tracer, smoke=smoke)
    finally:
        tracer.restore()


def contract_line(result: RunResult, trace: bool, spec: dict) -> dict:
    """The result object of the driver's contract, checked against the spec."""
    listed = spec["per_layer" if trace else "end_to_end"]
    values = result.per_layer if trace else result.end_to_end
    unknown = sorted(set(values) - {m["name"] for m in listed})
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    if not trace:
        absent = sorted({m["name"] for m in listed} - set(values))
        if absent:
            raise SystemExit(f"end-to-end metrics not measured: {absent}")
    return {
        "correct": result.failed == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            # A layer the workload never enters did no work: 0.
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in listed
        },
    }


def write_out(
    out: Path, workload: str, seed: int, trace: bool, document: dict,
    result: RunResult,
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    if trace:
        with open(out / f"{stem}-spans.jsonl", "w") as handle:
            for span in result.spans:
                handle.write(json.dumps(span) + "\n")
        baseline = out / f"{stem}-untraced.json"
        if baseline.exists():
            base = json.loads(baseline.read_text())["metrics"]["frame_p50_ms"]["value"]
            traced = result.per_layer["trace.frame_p50_ms"]
            document["trace_overhead_share"] = traced / base - 1.0
            print(
                f"trace_overhead_share {traced / base - 1.0:+.3f} "
                f"(frame_p50_ms {traced:.3f} traced over {base:.3f} untraced)"
            )
    kind = "traced" if trace else "untraced"
    (out / f"{stem}-{kind}.json").write_text(json.dumps(document, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for the full document (and a traced run's spans)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="harness-test scale, not a measurement"
    )
    args = parser.parse_args(argv)
    spec = load_spec()
    trace = bool(args.trace)
    context = machine_context(args.seed)
    result = run_workload(
        args.workload, args.seed, args.seconds, trace, smoke=args.smoke
    )
    line = contract_line(result, trace, spec)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} on {context['nproc']}x {context['cpu']}, "
          f"load {context['loadavg'][0]:.2f}, commit {context['commit'][:12]}")
    for name, metric in line["metrics"].items():
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}")
    for problem in result.problems:
        print(f"INVALID: {problem}")
    if args.out is not None:
        document = {
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "context": context, **line,
            "problems": result.problems, "detail": result.detail,
        }
        write_out(args.out, args.workload, args.seed, trace, document, result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
