"""End-to-end benchmark: one client frame's journey, measured.

Four workloads over one seeded city, each stressing different layers
(socket serving, serving beside scene epochs, the client-side
motion-aware tick, whole-fleet batched ticks).  An untraced run prints
the end-to-end metrics; a traced run of the same workload prints the
per-layer metrics from spans recorded in this package's own files.
See ``README.md`` here and ``BENCHMARK.json`` at the repository root.
"""
