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

Extra modes for CI and tuning (no pytest plugin needed):

* ``--quick`` — one timed pass per configuration plus the identity
  check.
* ``--sweep`` — rate vs the ``max_block_members`` fusion cap
  (satellite knob: ``KernelConfig.max_block_members``).
* ``--phase cold|warm`` — persistent-store round trip: ``cold``
  populates ``SENSMART_TRACE_STORE`` and prints a digest; ``warm`` (a
  fresh process) must compile zero traces, serve everything from the
  store, and print the same digest.
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


def _run(workload: str, fuse: bool, max_block_members=None):
    def run():
        node = SensorNode.from_sources(
            [(workload, WORKLOADS[workload])], fuse=fuse,
            max_block_members=max_block_members, block_cache=False)
        node.run(max_instructions=10_000_000)
        assert node.finished
        tracer = node.kernel.tracer
        if fuse and tracer.stats.store_hits == 0:
            # Compiled in this process: blocks chain into traces and
            # the trap sites on them are specialized.
            assert tracer.chained
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


def _sweep() -> None:
    """Rate vs the trace fusion length cap."""
    import time
    for cap in (4, 8, 16, 32, 48, 64):
        run = _run("trap_mix", fuse=True, max_block_members=cap)
        started = time.perf_counter()
        node = run()
        elapsed = time.perf_counter() - started
        print(f"max_block_members={cap:>3}: "
              f"{node.cpu.instret / elapsed / 1e6:.2f} M instr/s")


def _phase(which: str) -> None:
    """Persistent-store round trip, one phase per process.

    ``cold`` compiles and populates the store; ``warm`` must run
    entirely from it (zero fresh compiles) and reproduce the same
    digest.  Drive it as:

        export SENSMART_TRACE_STORE=/tmp/sensmart-traces
        python benchmarks/bench_trace.py --phase cold  > cold.out
        python benchmarks/bench_trace.py --phase warm  > warm.out
        cmp cold.out warm.out
    """
    import os
    import sys

    from repro.fingerprint import blake2b_hex
    assert os.environ.get("SENSMART_TRACE_STORE"), \
        "set SENSMART_TRACE_STORE to the store directory first"
    for workload in WORKLOADS:
        node = _run(workload, fuse=True)()
        stats = node.kernel.tracer.stats
        if which == "warm":
            assert stats.compiled == 0, \
                f"warm run compiled {stats.compiled} traces " \
                f"({workload}): store did not serve them"
            assert stats.store_hits > 0
        digest = blake2b_hex(repr(_digest(node)).encode(),
                             digest_size=8)
        print(f"{workload}: digest {digest}")
    # stdout carries only the digests, so ``cmp cold.out warm.out``
    # proves byte-identical results across the two processes.
    print(f"{which} phase OK", file=sys.stderr)


if __name__ == "__main__":
    import sys
    if "--quick" in sys.argv:
        _quick()
    elif "--sweep" in sys.argv:
        _sweep()
    elif "--phase" in sys.argv:
        _phase(sys.argv[sys.argv.index("--phase") + 1])
    else:
        raise SystemExit(
            "run under pytest, or pass --quick / --sweep / "
            "--phase cold|warm")
