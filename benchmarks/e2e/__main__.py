"""``python -m benchmarks.e2e`` / ``python3 benchmarks/e2e/__main__.py``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no src/repro under {ROOT}: nothing to benchmark")
    # Run as a file, sys.path[0] is this directory; the package and the
    # program under test are found from the checkout's root instead.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
        p for p in sys.path if p not in (here, str(ROOT), str(ROOT / "src"))
    ]
    from benchmarks.e2e.cli import main

    raise SystemExit(main())
