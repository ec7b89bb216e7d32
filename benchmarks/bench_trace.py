"""Trace-JIT ablation: traces vs the stepwise oracle.

The same two trap-heavy workloads as ``bench_trapspec.py`` run traced
(``fuse=True``, the default) and stepwise (``fuse=False``):

* ``TRAP_LOOP`` — the SPIN shape the recorded kernelized baselines
  measure.  Traced, the whole nested loop runs inside two closures: the
  inner spin strip-mines (one bound computation per dispatch, zero
  per-iteration checks) and the outer loop chains ``dec`` + branch trap
  back to the strip.
* ``TRAP_MIX`` — every specialized PatchKind per iteration; traced, the
  loop body's eight trap sites chain under a single hoisted guard.

Both modes must retire bit-identical state — tracing is a pure
execution-speed knob — and a traced run must chain blocks and
specialize trap sites.  Measured rates land in ``BENCH_trace.json``.

``--quick`` (no pytest plugin needed) is the CI smoke: one timed pass
per configuration plus the identity check.
"""

import json
from pathlib import Path

from bench_trapspec import TRAP_LOOP, TRAP_MIX

from repro.kernel import SensorNode

RESULTS_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_trace.json"

WORKLOADS = {"trap_loop": TRAP_LOOP, "trap_mix": TRAP_MIX}


def _record(key: str, rate: float) -> None:
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[key] = round(rate)
    RESULTS_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n")


def _run(workload: str, fuse: bool):
    def run():
        node = SensorNode.from_sources(
            [(workload, WORKLOADS[workload])], fuse=fuse,
            block_cache=False)
        node.run(max_instructions=10_000_000)
        assert node.finished
        if fuse:
            # Blocks chain into traces and the trap sites on them are
            # specialized.
            assert node.kernel.tracer.chained
            assert node.kernel.specializer.stats.compiled > 0
        return node

    return run


def _digest(node):
    kernel = node.kernel
    return (node.cpu.instret, node.cpu.cycles, node.cpu.sp,
            bytes(node.cpu.mem.data), dict(kernel.stats.trap_counts),
            kernel.stats.kernel_cycles, kernel.stats.scheduler_checks)


def _identical(workload: str) -> None:
    assert _digest(_run(workload, True)()) == \
        _digest(_run(workload, False)())


def _rate(benchmark, run, rounds: int = 3) -> float:
    node = benchmark.pedantic(run, rounds=rounds, iterations=1)
    return node.cpu.instret / benchmark.stats["mean"]


def test_trap_loop_stepwise(benchmark):
    rate = _rate(benchmark, _run("trap_loop", fuse=False))
    print(f"\ntrap_loop, stepwise: {rate / 1e6:.2f} M instr/s")
    _record("trap_loop_stepwise", rate)


def test_trap_loop_traced(benchmark):
    rate = _rate(benchmark, _run("trap_loop", fuse=True))
    print(f"\ntrap_loop, traced: {rate / 1e6:.2f} M instr/s")
    _record("trap_loop_traced", rate)
    _identical("trap_loop")


def test_trap_mix_stepwise(benchmark):
    rate = _rate(benchmark, _run("trap_mix", fuse=False))
    print(f"\ntrap_mix, stepwise: {rate / 1e6:.2f} M instr/s")
    _record("trap_mix_stepwise", rate)


def test_trap_mix_traced(benchmark):
    rate = _rate(benchmark, _run("trap_mix", fuse=True))
    print(f"\ntrap_mix, traced: {rate / 1e6:.2f} M instr/s")
    _record("trap_mix_traced", rate)
    _identical("trap_mix")


def _quick() -> None:
    """CI smoke: one timed pass per configuration, no pytest plugin,
    no BENCH_trace.json update — prove both modes run, retire identical
    state, blocks chain into traces and the specializer engages."""
    import time
    for workload in WORKLOADS:
        for fuse in (True, False):
            run = _run(workload, fuse)
            started = time.perf_counter()
            node = run()
            elapsed = time.perf_counter() - started
            mode = "traced" if fuse else "stepwise"
            print(f"{workload}, {mode}: "
                  f"{node.cpu.instret / elapsed / 1e6:.2f} M instr/s")
        _identical(workload)
    print("quick smoke OK")


if __name__ == "__main__":
    import sys
    if "--quick" in sys.argv:
        _quick()
    else:
        raise SystemExit("run under pytest, or pass --quick")
