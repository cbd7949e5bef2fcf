"""``compare A B``: do two sets of runs agree within the benchmark's bounds?

``A`` and ``B`` are ``--out`` directories (or single documents) of
untraced runs.  For every (workload, end-to-end metric) the medians of
the two sets are compared under the bound ``BENCHMARK.json`` fixes:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either set's own spread (quartile distance over
  median) is wider than the bound, so a move of that size cannot be
  told from noise -- unless every run of B beats every run of A;
* ``better``     -- B's median is better by more than the bound;
* ``same``       -- the medians differ by no more than the bound.

Every ratio is B over A, printed with its base.  The exit code is
non-zero when anything is ``worse``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from benchmarks.e2e.scenario import iqr, median


def load_set(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the untraced documents at ``path``."""
    files = sorted(path.glob("*-untraced.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no *-untraced.json documents under {path}")
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for file in files:
        document = json.loads(file.read_text())
        for name, metric in document["metrics"].items():
            values[(document["workload"], name)].append(metric["value"])
    return values


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, ratio of medians B/A, wider relative spread)``."""
    med_a, med_b = median(a), median(b)
    ratio = med_b / med_a
    spread = max(iqr(a) / med_a, iqr(b) / med_b)
    gain = (1.0 / ratio if better == "lower" else ratio) - 1.0
    if better == "lower":
        dominates = max(b) < min(a)
    else:
        dominates = min(b) > max(a)
    if gain < -bound:
        return "worse", ratio, spread
    if spread > bound and not dominates:
        return "unresolved", ratio, spread
    return ("better" if gain > bound else "same"), ratio, spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: compare A B  (two --out directories or documents)")
    from benchmarks.e2e.cli import load_spec

    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    set_a, set_b = load_set(Path(argv[0])), load_set(Path(argv[1]))
    worse = 0
    print(f"{'workload':12s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict (base: A; n = runs in A/B)")
    for key in sorted(set(set_a) & set(set_b)):
        workload, name = key
        if name not in spec:
            continue
        a, b = set_a[key], set_b[key]
        outcome, ratio, spread = verdict(
            a, b, spec[name]["better"], spec[name]["bound"]
        )
        worse += outcome == "worse"
        print(f"{workload:12s} {name:22s} {median(a):12.4f} {median(b):12.4f} "
              f"{ratio:7.3f} {spread:7.3f} {spec[name]['bound']:6.2f}  "
              f"{outcome} (n={len(a)}/{len(b)})")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
