"""Harness checks at smoke scale (``PYTHONPATH=src pytest benchmarks/e2e``).

These test the benchmark, not the program: that it emits exactly the
metrics ``BENCHMARK.json`` lists, that its oracle and its span
arithmetic are right, and that it leaves no process behind.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import cli, compare, oracle, setups
from benchmarks.e2e.scenario import SPACE, city_config, tail_mean
from benchmarks.e2e.serve_load import Child
from benchmarks.e2e.tracing import Tracer, self_times, totals

PACKAGE = Path(__file__).resolve().parent
SPEC = cli.load_spec()


@pytest.fixture(scope="module")
def smoke_runs():
    """Every workload once, traced, at smoke scale."""
    return {
        workload: cli.run_workload(workload, seed=3, seconds=1.0, trace=True, smoke=True)
        for workload in cli.WORKLOADS
    }


class TestSpec:
    def test_workloads_match(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(cli.WORKLOADS)

    def test_every_metric_has_a_unit_and_direction(self):
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert metric["unit"]
            assert metric["better"] in ("lower", "higher")
        assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])

    def test_no_module_is_collected_as_a_repo_benchmark(self):
        assert not list(PACKAGE.glob("bench_*.py"))


class TestEmittedNames:
    def test_end_to_end_names_equal_the_spec(self, smoke_runs):
        listed = {m["name"] for m in SPEC["end_to_end"]}
        for workload, result in smoke_runs.items():
            assert set(result.end_to_end) == listed, workload
            assert all(v > 0 for v in result.end_to_end.values()), workload

    def test_per_layer_names_equal_the_spec(self, smoke_runs):
        listed = {m["name"] for m in SPEC["per_layer"]}
        emitted = set()
        for workload, result in smoke_runs.items():
            assert set(result.per_layer) <= listed, workload
            emitted |= set(result.per_layer)
        # Every listed layer metric is measured by at least one workload.
        assert emitted == listed

    def test_layers_are_idle_where_the_workload_bypasses_them(self, smoke_runs):
        def entered(workload, prefix):
            return any(
                key.startswith(prefix) and value
                for key, value in smoke_runs[workload].per_layer.items()
            )

        assert entered("tour_motion", "motion.predictor.visit_prob_ms")
        for workload in ("serve_tram", "serve_churn", "fleet_flat"):
            assert not entered(workload, "motion.")
        for workload in ("tour_motion", "fleet_flat"):
            assert not entered(workload, "serve.")
        assert entered("serve_churn", "index.dynamic.")
        for workload in ("serve_tram", "tour_motion", "fleet_flat"):
            assert not entered(workload, "index.dynamic.")

    def test_self_times_cover_the_traced_wall(self, smoke_runs):
        for workload, result in smoke_runs.items():
            share = result.per_layer["trace.coverage_share"]
            assert 0.9 <= share <= 1.1, (workload, share)

    def test_runs_are_correct(self, smoke_runs):
        for workload, result in smoke_runs.items():
            assert result.failed == 0, workload
            assert result.attempted >= 1

    def test_contract_line(self, smoke_runs):
        for trace in (False, True):
            line = cli.contract_line(smoke_runs["fleet_flat"], trace, SPEC)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            listed = SPEC["per_layer" if trace else "end_to_end"]
            assert list(line["metrics"]) == [m["name"] for m in listed]
            json.dumps(line)


class TestOracle:
    @pytest.fixture(scope="class")
    def store(self):
        return setups.static_city(city_config(smoke=True), {}).store

    def test_matches_the_indexed_answer(self, store):
        low, high = np.array([200.0, 200.0]), np.array([700.0, 700.0])
        want = oracle.expected_uids(store, low, high, 0.0, 1.0)
        assert want.size
        assert not oracle.mismatch(want[::-1].copy(), want)

    def test_catches_an_injected_wrong_row(self, store):
        low, high = np.array([200.0, 200.0]), np.array([700.0, 700.0])
        want = oracle.expected_uids(store, low, high, 0.0, 1.0)
        outside = np.setdiff1d(store.packed_uids, want)[:1]
        assert oracle.mismatch(np.concatenate([want, outside]), want)
        assert oracle.mismatch(want[1:], want)

    def test_exclude_and_band(self, store):
        low, high = SPACE.low, SPACE.high
        everything = oracle.expected_uids(store, low, high, 0.0, 1.0)
        assert everything.size == len(store)
        held = everything[::2]
        rest = oracle.expected_uids(store, low, high, 0.0, 1.0, held)
        assert np.array_equal(rest, everything[1::2])
        coarse = oracle.expected_uids(store, low, high, 0.5, 1.0)
        assert 0 < coarse.size < everything.size


class TestSpans:
    def test_self_time_of_a_synthetic_tree(self):
        def span(index, parent, layer, start, end):
            return {
                "span": index, "parent": parent, "layer": layer, "name": "op",
                "start_ns": start, "end_ns": end, "trace": (0, 0), "counts": {},
            }

        records = [
            span(0, None, "a", 0, 100),
            span(1, 0, "b", 10, 40),
            span(2, 1, "c", 20, 25),
            span(3, 0, "b", 50, 90),
        ]
        assert self_times(records) == [30, 25, 5, 40]
        self_ns, _ = totals(records)
        assert self_ns == {"a.op": 30, "b.op": 65, "c.op": 5}
        assert sum(self_ns.values()) == 100

    def test_shims_nest_and_restore(self):
        class Layer:
            def outer(self, n):
                return self.inner(n) + 1

            def inner(self, n):
                return n * 2

        tracer = Tracer()
        tracer.wrap(Layer, "outer", "x", "outer", root=True)
        tracer.wrap(Layer, "inner", "x", "inner", counts=lambda r, a: {"n": r})
        assert Layer().outer(4) == 9
        tracer.restore()
        assert Layer().outer(4) == 9
        outer, inner = tracer.records()
        assert (outer["parent"], inner["parent"]) == (None, outer["span"])
        assert inner["counts"] == {"n": 8}
        assert len(tracer.spans) == 2  # nothing recorded after restore

    def test_a_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x", "y", trace=(1, 2)):
            pass
        tracer.close(tracer.open("x", "z"))
        assert tracer.records() == []

    def test_tail_mean(self):
        assert tail_mean([1.0] * 90 + [101.0] * 10) == 101.0
        assert tail_mean([3.0]) == 3.0


class TestCompare:
    def test_verdicts(self):
        steady = [10.0, 10.1, 9.9, 10.0]
        assert compare.verdict(steady, steady, "lower", 0.1)[0] == "same"
        assert compare.verdict(steady, [12.0] * 4, "lower", 0.1)[0] == "worse"
        assert compare.verdict(steady, [8.0] * 4, "lower", 0.1)[0] == "better"
        assert compare.verdict(steady, [8.0] * 4, "higher", 0.1)[0] == "worse"
        noisy = [8.0, 10.0, 12.0, 14.0]
        assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
        # Wide spread, but every run of B beats every run of A.
        assert compare.verdict(noisy, [4.0, 5.0, 6.0, 7.0], "lower", 0.1)[0] == "better"


class TestChildTeardown:
    @staticmethod
    def alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    def test_kill_and_end_of_input_leave_no_process(self):
        async def scenario():
            killed, _, _ = await Child.spawn("serve_tram", 3, False, True)
            await killed.kill()
            assert not self.alive(killed.pid)
            # A generator that dies closes the child's stdin: it must exit.
            orphan, _, _ = await Child.spawn("serve_tram", 3, False, True)
            assert await orphan.hang_up() == 0
            assert not self.alive(orphan.pid)

        asyncio.run(scenario())
