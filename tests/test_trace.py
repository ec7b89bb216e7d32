"""Trace JIT: chained superblocks must be an invisible speed knob.

Six angles:

* differential bit-identity — the paper workloads retire identical
  architectural and kernel state traced, specialized, fused, and
  stepwise;
* device polling loops — traces through I/O-class direct accesses and
  SBRS/SBRC skips match stepwise execution at every early stop, under
  ``until()``, across a radio link, and through skip-head deopts;
* deoptimization — a forced mid-run relocation bumps the region epoch,
  the stale traces' hoisted guards fire, and the run (resumed from an
  arbitrary mid-loop stop) stays bit-identical;
* re-entry — a second node on a shared cache rebinds every trace the
  first compiled, across relocation, unload and dynamic load;
* the persistent store — a warm process compiles nothing and
  reproduces the cold digest byte for byte; corrupt or mismatched
  store files fall back to a clean recompile;
* the SREG-liveness masks the flag-elision pass is built on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.static import ALL_FLAGS, sreg_effects
from repro.avr import ioports
from repro.avr.cpu import SuperblockCache
from repro.experiments.extra_static import _workload_sources
from repro.faults import FaultInjector, FaultPlan
from repro.fleet.workload import receiver_src, relay_src, sender_src
from repro.kernel import KernelConfig, SensorNode
from repro.net import Network
from repro.workloads.bintree import search_task_source
from repro.workloads.kernelbench import KERNEL_BENCHMARKS

# SPIN shape (inner self-loop strip + outer chain) plus stack traffic,
# so traces with both branch traps and region-guarded sites compile.
_SPIN_STACK = """
main:
    ldi r28, 24
outer:
    push r16
    pop r16
    ldi r26, 0
    ldi r27, 0
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""


def _digest(node):
    kernel, cpu = node.kernel, node.cpu
    return (bytes(cpu.r), cpu.pc, cpu.sp, cpu.sreg, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data),
            dict(kernel.stats.trap_counts), kernel.stats.kernel_cycles,
            kernel.stats.context_switches,
            kernel.stats.scheduler_checks,
            tuple(kernel.stats.terminations))


def _boot(sources, **overrides):
    return SensorNode.from_sources(sources, block_cache=False,
                                   **overrides)


# -- differential bit-identity --------------------------------------------------

@pytest.mark.parametrize("workload", ["table1", "table2", "kernelbench"])
def test_traced_matches_every_other_tier(workload):
    sources = _workload_sources(workload, quick=True)

    def run(**overrides):
        node = _boot(sources, **overrides)
        node.run(max_instructions=50_000_000)
        assert node.finished
        return node

    traced = run(trace=True)
    if workload != "table1":  # table1-quick's loops are single-block
        assert traced.kernel.tracer.stats.compiled > 0
    reference = _digest(traced)
    assert reference == _digest(run(trace=False))
    assert reference == _digest(run(trace=False, specialize=False))
    assert reference == _digest(run(trace=False, specialize=False,
                                    fuse=False))


def test_fusion_cap_override_reaches_cpu_and_preserves_state():
    wide = _boot([("spin", _SPIN_STACK)])
    assert wide.cpu._max_block == KernelConfig().max_block_members
    narrow = _boot([("spin", _SPIN_STACK)], max_block_members=3)
    assert narrow.cpu._max_block == 3
    for node in (wide, narrow):
        node.run(max_instructions=5_000_000)
        assert node.finished
    assert _digest(wide) == _digest(narrow)


# -- deoptimization and mid-trace re-entry --------------------------------------

def test_relocation_deopts_stale_traces_bit_identically():
    """Growing a stack mid-run bumps the region epoch: every trace
    compiled before the move must deopt (guard failure, counted), the
    interrupted loop must re-enter correctly from its mid-trace stop
    point, and the final state must match the untraced run."""

    def run(trace):
        # Two tasks so growing one stack has a donor to take from.
        node = _boot([("spin", _SPIN_STACK), ("spin2", _SPIN_STACK)],
                     trace=trace)
        # Stop mid-loop (inside the strip-mined inner spin), with
        # every hot trace already compiled and guarded on epoch 0.
        node.run(max_instructions=600_000)
        assert not node.finished
        result = node.kernel.relocator.grow_stack(0, 16)
        assert result.moved
        assert node.kernel.tasks[0].region_epoch > 0
        node.run(max_instructions=50_000_000)
        assert node.finished
        return node

    traced = run(trace=True)
    assert traced.kernel.specializer.stats.deopts > 0
    assert _digest(traced) == _digest(run(trace=False))


def test_null_fault_plan_with_traces_leaves_no_trace():
    sources = _workload_sources("kernelbench", quick=True)

    def run(attach):
        node = _boot(sources, trace=True)
        if attach:
            plan = FaultPlan(seed=0xDEAD, horizon_cycles=10_000_000)
            FaultInjector(plan).attach("n", node)
        node.run(max_instructions=50_000_000)
        assert node.finished
        return node

    assert _digest(run(attach=False)) == _digest(run(attach=True))


# -- device polling loops: I/O-class direct sites and SBRS/SBRC skips -----------

# Polls TCNT0 through a direct load: the value read depends on the
# exact cycle, so the trace must publish its clock before the access.
_TIMER0_POLL = f"""
main:
    ldi r20, 12
again:
wait_set:
    lds r17, {ioports.TCNT0}
    sbrs r17, 3
    rjmp wait_set
wait_clear:
    lds r17, {ioports.TCNT0}
    sbrc r17, 3
    rjmp wait_clear
    add r18, r17
    dec r20
    brne again
    break
"""

# Starts a conversion, spins ~150 strip-mined iterations (past the
# 832-cycle completion) inside the same trace, then reads ADCL without
# polling: the result is fresh only if the trace re-read the event
# horizon after the ADCSRA store scheduled the completion.
_ADC_DELAY = f"""
main:
    ldi r20, 6
again:
    ldi r18, {1 << ioports.ADSC}
    sts {ioports.ADCSRA}, r18
    ldi r24, 0x6A
    ldi r25, 0xFF
    rjmp delay
delay:
    adiw r24, 1
    brne delay
    lds r18, {ioports.ADCL}
    add r19, r18
    dec r20
    brne again
    break
"""

# Skips one-word instructions on TCNT0 bits that change every few
# iterations, so skip heads are entered (and deopted) on both arms.
_TIMER0_SKIPS = f"""
main:
    ldi r20, 200
loop:
    lds r17, {ioports.TCNT0}
    sbrs r17, 0
    inc r18
    sbrc r17, 1
    inc r19
    dec r20
    brne loop
    break
"""

_POLLING = {
    "timer0": _TIMER0_POLL,
    "timer0_skips": _TIMER0_SKIPS,
    "adc_delay": _ADC_DELAY,
    "readadc": KERNEL_BENCHMARKS["readadc"](),
    "am": KERNEL_BENCHMARKS["am"](),
}


def _stops():
    yield from range(1, 401)
    yield from range(400 + 97, 20_001, 97)


@pytest.mark.parametrize("name", sorted(_POLLING))
def test_polling_loops_match_stepwise_at_every_stop(name):
    """Traced polling loops retire stepwise-identical state whether run
    in one go or stopped at every early instruction count (each stop
    leaves a trace at a seam and re-enters it mid-loop)."""
    sources = [(name, _POLLING[name])]
    whole = _boot(sources)
    whole.run(max_instructions=50_000_000)
    assert whole.finished
    assert whole.kernel.tracer.stats.compiled > 0
    reference = _boot(sources, fuse=False)
    reference.run(max_instructions=50_000_000)
    assert _digest(whole) == _digest(reference)

    traced, stepwise = _boot(sources), _boot(sources, fuse=False)
    for stop in _stops():
        traced.run(max_instructions=stop)
        stepwise.run(max_instructions=stop)
        assert _digest(traced) == _digest(stepwise), stop
        if stepwise.finished:
            break


@pytest.mark.parametrize("name", sorted(_POLLING))
def test_polling_loops_stop_on_until_like_untraced(name):
    """``until()`` is evaluated once per dispatch, so its stops are
    compared with the untraced fused tier rather than stepwise."""
    sources = [(name, _POLLING[name])]
    traced, fused = _boot(sources), _boot(sources, trace=False)
    for limit in range(50, 3_000, 71):
        def until(cpu, limit=limit):
            return cpu.instret >= limit or cpu.r[17] == limit & 0xFF
        traced.run(max_instructions=50_000_000, until=until)
        fused.run(max_instructions=50_000_000, until=until)
        assert _digest(traced) == _digest(fused), limit
    traced.run(max_instructions=50_000_000)
    fused.run(max_instructions=50_000_000)
    assert _digest(traced) == _digest(fused)


def test_radio_network_traced_matches_stepwise():
    def run(**overrides):
        net = Network()
        net.add_node("tx", _boot([("sender", sender_src(12))],
                                 **overrides))
        net.add_node("rx", _boot([("receiver", receiver_src(12))],
                                 **overrides))
        net.connect("tx", "rx", latency_cycles=700)
        net.run(max_cycles=50_000_000)
        assert all(node.finished for node in net.nodes.values())
        return net

    traced, stepwise = run(), run(fuse=False)
    assert traced.nodes["tx"].kernel.tracer.stats.compiled > 0
    for name in ("tx", "rx"):
        assert _digest(traced.nodes[name]) == \
            _digest(stepwise.nodes[name]), name


def test_relay_spin_loops_trace_without_declines():
    """A relay's ``lds UCSR0A; sbrs; rjmp`` spins chain into traces
    instead of declining at the I/O load."""
    node = _boot([("relay", relay_src(16))])
    node.run(max_instructions=30_000)
    stats = node.kernel.tracer.stats
    assert stats.compiled >= 1
    assert stats.declined == 0


def test_skip_head_deopt_replays_both_arms():
    """A region move retires traces whose head is a skip: the deopt arm
    replays the skip generically, taken or not, bit for bit."""

    def run(**overrides):
        node = _boot([("skips", _TIMER0_SKIPS), ("skips2", _TIMER0_SKIPS)],
                     **overrides)
        history = []
        for stop in range(1, 1_000):
            node.run(max_instructions=stop)
            history.append(_digest(node))
            if stop % 50 == 0:  # a region move every 50 instructions
                assert node.kernel.relocator.grow_stack(
                    stop // 50 % 2, 8).moved
        node.run(max_instructions=50_000_000)
        assert node.finished
        history.append(_digest(node))
        return node, history

    traced, history = run()
    assert traced.kernel.specializer.stats.deopts > 0
    assert history == run(fuse=False)[1]


# -- re-entry through the shared cache ------------------------------------------

_PUSH_POP = """
main:
    ldi r24, 200
loop:
    push r24
    pop r25
    add r26, r25
    dec r24
    brne loop
    break
"""


def test_shared_cache_rebinds_traces_across_relocation_and_reload():
    """A second node on one shared SuperblockCache must re-enter every
    trace the first compiled — through region-epoch deopts, an unload
    and a dynamic load — and both must match a private-cache run."""
    sources = [(f"s{index}", search_task_source(
        nodes=60, searches=15, seed=0x1357 + 0x1111 * index))
        for index in range(3)]

    def run(block_cache):
        node = SensorNode.from_sources(sources, block_cache=block_cache)
        node.run(max_instructions=8_000)
        assert not node.finished
        assert node.kernel.relocator.grow_stack(0, 16).moved
        node.run(max_instructions=28_000)
        assert not node.finished
        node.kernel.unload_task("s1")
        node.kernel.load_task("pushpop", _PUSH_POP)
        # Re-entry resolves one owner per trace from its lowest and
        # highest chained site, which needs disjoint alive code ranges.
        ranges = sorted((task.image.natural.base, task.image.natural.end)
                        for task in node.kernel.tasks.values()
                        if task.alive)
        assert len(ranges) >= 2  # a survivor and the loaded task
        assert all(end <= base for (_, end), (base, _)
                   in zip(ranges, ranges[1:]))
        node.run(max_instructions=50_000_000)
        assert node.finished
        return node

    reference = _digest(run(block_cache=False))
    cache = SuperblockCache()
    first = run(cache)
    second = run(cache)
    assert first.kernel.tracer.stats.compiled > 0
    stats = second.kernel.tracer.stats
    assert stats.compiled == 0
    assert stats.cache_hits > 0
    assert second.kernel.specializer.stats.deopts > 0
    assert _digest(first) == reference
    assert _digest(second) == reference
    assert max(cache.compile_counts.values()) == 1


# -- the persistent store -------------------------------------------------------

_STORE_DRIVER = """
import json, sys
from repro.kernel import SensorNode

source = '''{source}'''
node = SensorNode.from_sources([("spin", source)], block_cache=False)
node.run(max_instructions=5_000_000)
assert node.finished
stats = node.kernel.tracer.stats
print(json.dumps({{
    "compiled": stats.compiled,
    "store_hits": stats.store_hits,
    "instret": node.cpu.instret,
    "cycles": node.cpu.cycles,
    "mem": node.cpu.mem.data.hex(),
}}))
"""


def _store_run(tmp_path, store_dir):
    script = _STORE_DRIVER.format(source=_SPIN_STACK)
    env = dict(os.environ, SENSMART_TRACE_STORE=str(store_dir),
               PYTHONPATH=str(Path(__file__).resolve().parent.parent
                              / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_store_round_trip_warm_process_compiles_nothing(tmp_path):
    store = tmp_path / "traces"
    cold = _store_run(tmp_path, store)
    assert cold["compiled"] > 0
    files = list(store.glob("*.json"))
    assert files, "cold run persisted no artifacts"
    warm = _store_run(tmp_path, store)
    assert warm["compiled"] == 0
    assert warm["store_hits"] > 0
    assert warm == dict(cold, compiled=0,
                        store_hits=warm["store_hits"])


def test_store_corruption_falls_back_to_clean_recompile(tmp_path):
    store = tmp_path / "traces"
    cold = _store_run(tmp_path, store)
    (file,) = store.glob("*.json")

    # Outright garbage: unreadable JSON.
    pristine = file.read_text()
    file.write_text("{ not json")
    garbage = _store_run(tmp_path, store)
    assert garbage["compiled"] == cold["compiled"]
    assert garbage["mem"] == cold["mem"]

    # Valid JSON, wrong version: versioned artifacts are ignored.
    payload = json.loads(pristine)
    payload["version"] = 999
    file.write_text(json.dumps(payload))
    stale = _store_run(tmp_path, store)
    assert stale["compiled"] == cold["compiled"]
    assert stale["mem"] == cold["mem"]

    # Truncated artifact source: per-entry fallback, state unharmed.
    payload = json.loads(pristine)
    for entries in payload["traces"].values():
        for artifact in entries.values():
            artifact["source"] = "def _blk(:\n"
    file.write_text(json.dumps(payload))
    broken = _store_run(tmp_path, store)
    assert broken["compiled"] == cold["compiled"]
    assert broken["mem"] == cold["mem"]


# -- SREG liveness masks --------------------------------------------------------

def test_sreg_effects_masks():
    C, Z, N, V, S, H, T, I = (1 << b for b in range(8))
    arith = C | Z | N | V | S | H
    assert sreg_effects("ADD") == (0, arith)
    assert sreg_effects("ADC") == (C, arith)
    assert sreg_effects("SBC") == (C | Z, arith)
    assert sreg_effects("BRBS", (1, -3)) == (Z, 0)
    assert sreg_effects("BSET", (7,)) == (0, I)
    assert sreg_effects("OUT", (0x3F, 16)) == (0, ALL_FLAGS)
    assert sreg_effects("IN", (16, 0x3F)) == (ALL_FLAGS, 0)
    assert sreg_effects("RET") == (ALL_FLAGS, 0)
    assert sreg_effects("MYSTERY_OP") == (ALL_FLAGS, 0)  # conservative
    assert sreg_effects("LDI") == (0, 0)


def test_strip_elision_keeps_flag_tables_out_of_the_hot_loop():
    """The SPIN inner loop's ADIW flags feed only its own BRNE: the
    strip-mined body must test the result predicate directly, with the
    flag materialization hoisted to the strip exits."""
    import repro.avr.trace as trace_mod

    captured = {}
    original = trace_mod._Emitter.source

    def capture(self):
        text = original(self)
        captured[self.head_addr] = text
        return text

    trace_mod._Emitter.source = capture
    try:
        node = _boot([("spin", _SPIN_STACK)])
        node.run(max_instructions=300_000)
    finally:
        trace_mod._Emitter.source = original
    strip_sources = [text for text in captured.values()
                     if "for j in range(1, im + 1):" in text]
    assert strip_sources, "inner spin did not strip-mine"
    for text in strip_sources:
        loop = text.split("for j in range(1, im + 1):", 1)[1]
        loop = loop.split("else:", 1)[0]
        assert "sr =" not in loop  # flags elided from the hot body


# -- store bounding -------------------------------------------------------------

def _fake_base(tag: int):
    # the filename keeps only a fingerprint prefix, so vary the front
    return (f"{tag:02x}" * 16, 4096, ((100, 120),))


def test_store_is_bounded_with_lru_eviction(tmp_path):
    from repro.avr.trace import TraceStore
    store = TraceStore(str(tmp_path), max_files=3)
    for tag in range(5):
        store.put(_fake_base(tag), 0x100, "key", {"source": "pass\n"})
        time.sleep(0.01)  # distinct mtimes order the eviction
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 3
    assert store.stats.writes == 5
    assert store.stats.evictions == 2
    # the survivors are the most recently written images
    assert store.load(_fake_base(4))
    assert store.load(_fake_base(0)) == {}


def test_store_load_refreshes_mtime_lru(tmp_path):
    from repro.avr.trace import TraceStore
    store = TraceStore(str(tmp_path), max_files=2)
    store.put(_fake_base(0), 0x100, "key", {"source": "pass\n"})
    time.sleep(0.01)
    store.put(_fake_base(1), 0x100, "key", {"source": "pass\n"})
    time.sleep(0.01)
    # touch image 0 from a fresh store (no warm cache), then add a
    # third image: image 1 is now the oldest and must be the victim
    reader = TraceStore(str(tmp_path), max_files=2)
    assert reader.load(_fake_base(0))
    time.sleep(0.01)
    reader.put(_fake_base(2), 0x100, "key", {"source": "pass\n"})
    assert reader.load(_fake_base(0))
    assert reader.load(_fake_base(2))
    fresh = TraceStore(str(tmp_path), max_files=2)
    assert fresh.load(_fake_base(1)) == {}


def test_store_counts_corrupt_files(tmp_path):
    from repro.avr.trace import TraceStore
    store = TraceStore(str(tmp_path), max_files=8)
    store.put(_fake_base(0), 0x100, "key", {"source": "pass\n"})
    (file,) = tmp_path.glob("*.json")
    file.write_text("{ not json")
    fresh = TraceStore(str(tmp_path), max_files=8)
    assert fresh.load(_fake_base(0)) == {}
    assert fresh.stats.corrupt == 1
    # fingerprint mismatch with a valid file also counts
    file.write_text(json.dumps({"version": 1,
                                "fingerprint": "f" * 32,
                                "traces": {}}))
    fresh2 = TraceStore(str(tmp_path), max_files=8)
    assert fresh2.load(_fake_base(0)) == {}
    assert fresh2.stats.corrupt == 1


def test_store_max_files_env_override(tmp_path, monkeypatch):
    from repro.avr import trace as trace_mod
    monkeypatch.setenv("SENSMART_TRACE_STORE_MAX", "7")
    assert trace_mod.TraceStore(str(tmp_path)).max_files == 7
    monkeypatch.setenv("SENSMART_TRACE_STORE_MAX", "junk")
    assert trace_mod.TraceStore(str(tmp_path)).max_files == \
        trace_mod._DEFAULT_STORE_MAX_FILES
    monkeypatch.delenv("SENSMART_TRACE_STORE_MAX")
    assert trace_mod.TraceStore(str(tmp_path)).max_files == \
        trace_mod._DEFAULT_STORE_MAX_FILES
