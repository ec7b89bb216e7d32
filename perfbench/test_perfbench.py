"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _digest(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def current_attributes():
    """The raw objects the traced entry points resolve to right now."""
    return [vars(owner)[attribute]
            for owner, attribute, _ in spans.resolve_targets()]


def test_same_seed_gives_identical_inputs():
    def inputs(seed):
        return _digest({
            "cold": [workloads.cold_bundle(seed, index)
                     for index in range(4)],
            "steady": [workloads.fig7_sources(seed, rep)
                       for rep in range(2)],
            "fleet": [workloads.fleet_spec(seed, rep).programs
                      for rep in range(2)],
        })
    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_dead_ldi_shadows_the_first_ldi_after_main():
    source = "x:\n    ldi r17, 3\nmain:\n    nop\n    ldi r20, 9\n"
    assert workloads.with_dead_ldi(source, 0x1AB) == (
        "x:\n    ldi r17, 3\nmain:\n    nop\n"
        "    ldi r20, 171\n    ldi r20, 9\n")


def test_cold_requests_distinct_code_equal_instructions():
    from repro.pipeline.pipeline import BuildRequest, Pipeline
    pipeline = Pipeline()
    fingerprints = set()
    instructions = set()
    for index in range(3):
        verdict = pipeline.submit(BuildRequest.from_payload({
            "programs": workloads.cold_bundle(11, index),
            "options": {"max_instructions": workloads.VERDICT_BUDGET}}))
        assert verdict["cached"] is False
        fingerprints.add(verdict["rewrite"]["image_fingerprint"])
        instructions.add(verdict["simulation"]["instructions"])
    assert len(fingerprints) == 3
    assert len(instructions) == 1


@pytest.fixture(scope="module")
def traced_fleet():
    """Two fleet ops, the second traced."""
    workload = workloads.FleetFlood(seed=3, ops=2, scratch="")
    workload.setup(0, 1)
    tracer = spans.Tracer()
    timed = run.timed_loop(workload, 2, None, tracer)
    return tracer, timed


def test_spans_nest_and_self_times_sum_to_the_op(traced_fleet):
    tracer, timed = traced_fleet
    assert timed.failed == 0 and len(timed.layer_rows) == 1
    rows = tracer.spans
    assert rows and all(row[4] == 1 for row in rows)
    root = rows[0]
    assert root[0] == "op" and root[3] is None
    for row in rows[1:]:
        parent = row[3]
        assert parent is not None
        assert parent[1] <= row[1] <= row[2] <= parent[2]
    profile = spans.op_profile(rows)
    assert all(entry[1] >= 0 for entry in profile.values())
    assert sum(entry[1] for entry in profile.values()) == root[2] - root[1]
    layer = timed.layer_rows[0]
    assert layer["node.slices"] > 0 and layer["fleet.build_ms"] > 0
    assert layer["net.delivered"] == workloads.FLEET_BYTES * 48


def test_layer_metrics_cover_the_declared_per_layer_list(traced_fleet):
    _, timed = traced_fleet
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {entry["name"] for entry in bench["per_layer"]}
    produced = set(timed.layer_rows[0]) | {"trace.op_ms",
                                           "trace.overhead_ms"}
    assert declared == produced


def test_untraced_run_installs_no_wrappers():
    originals = current_attributes()
    seen = []

    class Spy:
        def op(self, index):
            seen.append(current_attributes())
            return index

        observe = staticmethod(lambda out: {})
        work = staticmethod(lambda out: 1)
        layer_counts = staticmethod(lambda out: {})

    timed = run.timed_loop(Spy(), 3, None, None)
    assert timed.failed == 0
    assert all(a is b for attrs in seen for a, b in zip(attrs, originals))

    seen.clear()
    run.timed_loop(Spy(), 2, None, spans.Tracer())
    untraced, traced = seen
    assert all(a is b for a, b in zip(untraced, originals))
    assert all(a is not b for a, b in zip(traced, originals))
    assert all(a is b for a, b in
               zip(current_attributes(), originals))


def test_benchmark_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady_exec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
