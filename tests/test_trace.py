"""Trace JIT: traces must be an invisible speed knob.

Seven angles:

* differential bit-identity — the paper workloads retire identical
  architectural and kernel state traced and stepwise;
* device polling loops — traces through I/O-class direct accesses and
  SBRS/SBRC skips match stepwise execution at every early stop, under
  ``until()``, across a radio link, and through skip-head deopts;
* deoptimization — a forced mid-run relocation bumps the region epoch,
  the stale traces' hoisted guards fire, and the run (resumed from an
  arbitrary mid-loop stop) stays bit-identical;
* re-entry — a second node on a shared cache rebinds every trace the
  first compiled, across relocation, unload and dynamic load;
* the exit protocol — every exit of every trace shape breaks to one
  epilogue, the only place a trace writes its state back;
* tier-up — cold heads step and only hot ones compile, with the same
  outcome and exactly the JIT counters pinned for the cold bundle;
  heat gates compiles, never binds, lives per node on a private cache,
  is bounded on the shared one, and a head stays hot;
* the strip rule — a strip loop whose members read no SREG keeps its
  last member's flag update out of the hot loop.
"""

from __future__ import annotations

import pytest

from repro.avr import cpu as avr_cpu, ioports, trace
from repro.avr.cpu import SuperblockCache
from repro.experiments.extra_static import _workload_sources
from repro.faults import FaultInjector, FaultPlan
from repro.fleet.workload import receiver_src, relay_src, sender_src
from repro.kernel import KernelConfig, SensorNode
from repro.net import Network
from repro.rewriter.classify import PatchKind
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


def _polling_seams(node):
    """Where a trace that chains through *node*'s device polling code
    goes on, in address order: the resume address of every direct
    I/O-register trap site (``lds``/``sts`` below ``ram_start``) and
    the fall-through of every SBRS/SBRC.  A seam is in
    ``tracer.chained`` only if some trace continued past it."""
    ram_start = node.kernel.config.ram_start
    seams = set()
    for task in node.kernel.tasks.values():
        natural = task.image.natural
        seams.update(site.resume_address
                     for site in natural.sites.values()
                     if site.kind is PatchKind.MEM_DIRECT
                     and site.params[2] < ram_start)
        seams.update(item.next_address for item in natural.items
                     if getattr(item, "mnemonic", None) in ("SBRS",
                                                            "SBRC"))
    return sorted(seams)


def _assert_polling_chained(node):
    seams = _polling_seams(node)
    assert seams
    assert set(seams) <= node.kernel.tracer.chained


# -- differential bit-identity --------------------------------------------------

@pytest.mark.parametrize("workload", [
    pytest.param("table1", marks=pytest.mark.tier_up_at_once),
    "table2", "kernelbench"])
def test_traced_matches_every_other_tier(workload):
    sources = _workload_sources(workload, quick=True)

    def run(**overrides):
        node = _boot(sources, **overrides)
        node.run(max_instructions=50_000_000)
        assert node.finished
        return node

    traced = run()
    # Trap sites are specialized into traces, and blocks chain.
    assert traced.kernel.specializer.stats.compiled > 0
    if workload != "table1":  # table1-quick's loops are single-block
        assert traced.kernel.tracer.chained
    assert _digest(traced) == _digest(run(fuse=False))


def test_fusion_cap_override_reaches_cpu_and_preserves_state(monkeypatch):
    wide = _boot([("spin", _SPIN_STACK)])
    assert wide.cpu._max_block == avr_cpu._MAX_BLOCK
    monkeypatch.setattr(avr_cpu, "_MAX_BLOCK", 3)
    narrow = _boot([("spin", _SPIN_STACK)])
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

    def run(fuse):
        # Two tasks so growing one stack has a donor to take from.
        node = _boot([("spin", _SPIN_STACK), ("spin2", _SPIN_STACK)],
                     fuse=fuse)
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

    traced = run(fuse=True)
    assert traced.kernel.specializer.stats.deopts > 0
    assert _digest(traced) == _digest(run(fuse=False))


def test_null_fault_plan_with_traces_leaves_no_trace():
    sources = _workload_sources("kernelbench", quick=True)

    def run(attach):
        node = _boot(sources)
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


@pytest.mark.tier_up_at_once
@pytest.mark.parametrize("name", sorted(_POLLING))
def test_polling_loops_match_stepwise_at_every_stop(name):
    """Traced polling loops retire stepwise-identical state whether run
    in one go or stopped at every early instruction count (each stop
    leaves a trace at a seam and re-enters it mid-loop)."""
    sources = [(name, _POLLING[name])]
    whole = _boot(sources)
    whole.run(max_instructions=50_000_000)
    assert whole.finished
    _assert_polling_chained(whole)
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


class _IrqAfterReads:
    """Test device claiming the unclaimed I/O address 0x30: its 40th
    read raises an interrupt, and it reads 1 from the 43rd read on."""

    ADDRESS = 0x30

    def __init__(self):
        self.reads = 0
        self._cpu = None

    def attach(self, cpu) -> None:
        self._cpu = cpu
        cpu.io_read[self.ADDRESS] = self._read

    def _read(self, address: int) -> int:
        self.reads += 1
        if self.reads == 40:
            self._cpu.raise_interrupt(0x0004)
        return 1 if self.reads >= 43 else 0


_IRQ_POLL = f"""
main:
    sei
poll:
    lds r16, {_IrqAfterReads.ADDRESS}
    sbrs r16, 0
    rjmp poll
    break
"""


@pytest.mark.tier_up_at_once
def test_interrupt_raised_by_a_polled_read_stops_the_trace():
    """A device read inside a trace that raises an interrupt pins the
    trace's event horizon, so the trace exits at its next seam and the
    dispatch loop takes the interrupt after the same instruction as
    stepwise execution.  Each stop boots a fresh traced node, so the
    trace runs the poll loop from the start instead of one instruction
    per call.  The vector lands on erased flash, so the task ends in an
    invalid-instruction fault: a deterministic end state."""
    image = _boot([("irq_poll", _IRQ_POLL)]).kernel.image
    cache = SuperblockCache()

    def boot(fuse, block_cache=cache):
        node = SensorNode.from_image(image, config=KernelConfig(fuse=fuse),
                                     block_cache=block_cache)
        node.cpu.attach_device(_IrqAfterReads())
        return node

    stepwise = boot(fuse=False)
    for stop in (*range(1, 400), 1_000, 5_000, 20_000):
        traced = boot(fuse=True)
        traced.run(max_instructions=stop)
        stepwise.run(max_instructions=stop)
        assert _digest(traced) == _digest(stepwise), stop
        assert traced.cpu._devices[-1].reads == \
            stepwise.cpu._devices[-1].reads, stop
    reason = stepwise.task_named("irq_poll").exit_reason
    assert reason.startswith("fault") and "invalid" in reason, reason
    whole = boot(fuse=True, block_cache=False)  # compiles its own traces
    whole.run(max_instructions=20_000)
    assert _digest(whole) == _digest(stepwise)
    _assert_polling_chained(whole)


@pytest.mark.tier_up_at_once
@pytest.mark.parametrize("name", sorted(_POLLING))
def test_polling_loops_stop_on_until_like_untraced(name):
    """``until()`` is evaluated once per dispatch, and a pending
    ``until()`` pins every trace to exit at its first seam: a traced
    stop lands where ``until()`` holds, at most one head block past the
    first instruction where stepwise execution sees it hold, on the
    state stepwise execution reaches at the same instruction count."""
    sources = [(name, _POLLING[name])]
    traced, stepwise = _boot(sources), _boot(sources, fuse=False)
    one_block = traced.cpu._max_block + 1
    for limit in range(50, 3_000, 71):
        def until(cpu, limit=limit):
            return cpu.instret >= limit or cpu.r[17] == limit & 0xFF
        stepwise.run(max_instructions=50_000_000, until=until)
        first_hold = stepwise.cpu.instret
        traced.run(max_instructions=50_000_000, until=until)
        if not traced.finished:
            assert until(traced.cpu), limit
        assert first_hold <= traced.cpu.instret <= first_hold + one_block, \
            limit
        if stepwise.cpu.instret < traced.cpu.instret:
            stepwise.run(max_instructions=traced.cpu.instret)
        assert _digest(traced) == _digest(stepwise), limit
    traced.run(max_instructions=50_000_000)
    stepwise.run(max_instructions=50_000_000)
    assert _digest(traced) == _digest(stepwise)
    assert traced.kernel.tracer.stats.compiled > 0


def _receiver_polling_after_members(count: int) -> str:
    """``receiver_src`` whose poll block runs two members before its
    ``lds UCSR0A``, so a radio arrival can fall due between them."""
    poll = f"wait_rx:\n    lds r17, {ioports.UCSR0A}\n"
    source = receiver_src(count)
    assert poll in source
    return source.replace(poll, "wait_rx:\n    ldi r19, 1\n    ldi r18, 2\n"
                          f"    lds r17, {ioports.UCSR0A}\n")


@pytest.mark.tier_up_at_once
def test_radio_network_traced_matches_stepwise():
    def run(receiver, latency, **overrides):
        net = Network()
        net.add_node("tx", _boot([("sender", sender_src(12))],
                                 **overrides))
        net.add_node("rx", _boot([("receiver", receiver)], **overrides))
        net.connect("tx", "rx", latency_cycles=latency)
        net.run(max_cycles=50_000_000)
        assert all(node.finished for node in net.nodes.values())
        return net

    traced, stepwise = run(receiver_src(12), 700), \
        run(receiver_src(12), 700, fuse=False)
    for name in ("tx", "rx"):
        _assert_polling_chained(traced.nodes[name])
        assert _digest(traced.nodes[name]) == \
            _digest(stepwise.nodes[name]), name
    # An arrival due after the poll block's members but before its
    # ``lds`` is seen by that ``lds``, traced as stepwise: at these
    # latencies some arrival lands there.
    receiver = _receiver_polling_after_members(12)
    for latency in range(700, 760):
        traced, stepwise = run(receiver, latency), \
            run(receiver, latency, fuse=False)
        for name in ("tx", "rx"):
            assert _digest(traced.nodes[name]) == \
                _digest(stepwise.nodes[name]), (name, latency)


def test_relay_spin_loops_trace_without_declines():
    """A relay's ``lds UCSR0A; sbrs; rjmp`` spin chains into one trace
    through the I/O load and the skip, rather than stopping at either.
    With no radio traffic only the receive spin runs: its ``lds`` site
    and its ``sbrs`` are the first two seams."""
    node = _boot([("relay", relay_src(16))])
    node.run(max_instructions=30_000)
    receive_spin = _polling_seams(node)[:2]
    assert set(receive_spin) <= node.kernel.tracer.chained


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


# The fifth ``st X+`` leaves the 4-byte heap: the task is killed at that
# site, the trap-site pc the node halts on.
_STORE_PAST_HEAP = """
.bss buf, 4
main:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    ldi r16, 0x55
    ldi r20, 250
loop:
    inc r17
    st X+, r16
    dec r20
    brne loop
    break
"""


@pytest.mark.tier_up_at_once
def test_slow_trap_that_ends_the_last_task_halts_on_its_site():
    """A trace's slow arm, and its deopt arm, hand a trap to the generic
    dispatch with the pc on the trap site, as stepwise execution does:
    when the trap kills the last task, the node halts there."""
    stepwise = _boot([("store", _STORE_PAST_HEAP)], fuse=False)
    stepwise.run(max_instructions=100_000)
    site = stepwise.cpu.pc
    assert stepwise.finished
    assert stepwise.task_named("store").exit_reason.startswith("fault")

    slow = _boot([("store", _STORE_PAST_HEAP)])
    slow.run(max_instructions=100_000)
    assert _digest(slow) == _digest(stepwise)

    # Stop on the loop head before the fatal iteration and move the
    # region epoch: the trace's guard fails and its deopt arm runs the
    # head block (inc, then the fatal store) through the generic path.
    deopt = _boot([("store", _STORE_PAST_HEAP)])
    deopt.run(max_instructions=4 + 4 * 4)
    assert deopt.cpu.pc == site - 1
    deopt.kernel._on_region_change(0)
    deopt.run(max_instructions=100_000)
    assert deopt.kernel.specializer.stats.deopts == 1
    assert _digest(deopt) == _digest(stepwise)


# -- the exit protocol ----------------------------------------------------------

# Every exit kind, with no I/O-class direct access (which publishes
# ``cy`` before the device sees it): an ``ld`` from I/O space through X
# (MEM_INDIRECT slow arm), a skip and a forward branch (two-way nodes),
# an ``adiw``/``brne`` self-loop (conditional strip), a recursion that
# outgrows its stack (PUSH and CALL slow arms, relocation), a
# ``ret`` and a ``break`` (thunk heads) and a 12-member run (cut heads
# under an 8-member cap).
_EXIT_SHAPES = """
.bss cells, 16
main:
    ldi r20, 3
again:
    ldi r26, 0x30
    ldi r27, 0
    ld r16, X
    ldi r26, lo8(cells)
    ldi r27, hi8(cells)
    ld r16, X+
    sbrs r20, 0
    inc r17
    cpi r20, 2
    breq over
    inc r18
over:
    ldi r24, 0
    ldi r25, 0xF0
inner:
    adiw r24, 1
    brne inner
    ldi r21, 24
    rcall dive
    dec r20
    brne again
""" + "    inc r19\n" * 12 + """    break
dive:
    push r21
    dec r21
    breq up
    rcall dive
up:
    pop r21
    ret
"""

# A counted-forever ``rjmp`` self-loop (a strip with no branch
# condition) whose heap leaves every task a stack of about 56 bytes,
# and a task whose first ``pop`` underflows (POP slow arm).
_SPIN_FOREVER = (".bss hog, 3500\nmain:\n    ldi r22, 0\n"
                 "spin:\n    inc r22\n    rjmp spin\n")
_POP_EMPTY = "main:\n    inc r16\n    pop r16\n    break\n"


def _exit_kinds(emitter):
    """The kinds of exit one assembled trace has."""
    nodes = emitter.nodes
    kinds = {"head " + nodes[0].kind}
    if len(nodes) > 1:
        kinds.add("seam")
    for node in nodes:
        if node.kind in ("brcond", "skip"):
            kinds.add("two-way")
        if node.strip:
            kinds.add("strip" if node.bit is not None else "counter strip")
        name = node.facts.kind.name if node.facts is not None else None
        if name in ("MEM_INDIRECT", "STACK_PUSH", "STACK_POP",
                    "CALL_DIRECT"):
            kinds.add(name + " slow")
    return kinds


@pytest.mark.tier_up_at_once
def test_every_exit_breaks_to_one_write_back(monkeypatch, emitted_traces):
    """Each trace writes its shadowed state back once, in the epilogue
    every exit breaks to: its only ``return`` is the deopt arm's, which
    runs before the trace loop.  ``TraceStats.lines`` counts exactly the
    generated lines compiled."""
    monkeypatch.setattr(avr_cpu, "_MAX_BLOCK", 8)
    node = _boot([("shapes", _EXIT_SHAPES), ("spin", _SPIN_FOREVER),
                  ("empty", _POP_EMPTY)])
    node.run(max_instructions=400_000)
    assert node.task_named("shapes").exit_reason == "exit"
    assert node.task_named("empty").exit_reason.startswith("fault")
    assert node.kernel.stats.relocations > 0

    kinds = set().union(*(_exit_kinds(emitter)
                          for emitter, _ in emitted_traces))
    assert kinds >= {"seam", "two-way", "strip", "counter strip",
                     "MEM_INDIRECT slow", "STACK_PUSH slow",
                     "STACK_POP slow", "CALL_DIRECT slow", "head thunk",
                     "head cut"}
    for _, text in emitted_traces:
        lines = [line.strip() for line in text.splitlines()]
        assert lines.count("cpu.cycles = cy") == 1, text
        returns = [i for i, line in enumerate(lines) if line == "return"]
        assert returns == [] or (len(returns) == 1 and returns[0]
                                 < lines.index("while True:")), text
    assert node.kernel.tracer.stats.lines == sum(
        text.count("\n") + 1 for _, text in emitted_traces)


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


@pytest.mark.tier_up_at_once
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


@pytest.mark.tier_up_at_once
def test_second_node_rebinds_without_walking_its_sites(monkeypatch):
    """A second node of one image on a shared cache compiles nothing and
    derives no site's facts, also across the deopts a relocation
    causes: re-entry reads what each trace recorded when it compiled,
    and finds the owner by its code base, not by asking tasks whether
    they own a site."""
    from repro.kernel.specialize import TrapSpecializer
    from repro.kernel.task import Task
    sources = [(f"s{index}", search_task_source(
        nodes=60, searches=15, seed=0x1357 + 0x1111 * index))
        for index in range(3)]
    cache = SuperblockCache()
    nodes = [SensorNode.from_sources(sources, block_cache=cache)
             for _ in range(2)]
    calls = []
    for name, owner in (("trace_facts", TrapSpecializer),
                        ("owns_code", Task)):
        def counting(*args, _name=name, _function=getattr(owner, name)):
            calls.append(_name)
            return _function(*args)
        monkeypatch.setattr(owner, name, counting)
    for node in nodes:
        calls.clear()
        node.run(max_instructions=8_000)
        assert node.kernel.relocator.grow_stack(0, 16).moved
        node.run(max_instructions=50_000_000)
        assert node.finished
    first, second = nodes
    assert first.kernel.tracer.stats.compiled > 0
    assert second.kernel.tracer.stats.compiled == 0
    assert second.kernel.tracer.stats.cache_hits > 0
    assert second.kernel.specializer.stats.deopts > 0
    assert calls == []
    assert _digest(second) == _digest(first)


@pytest.mark.tier_up_at_once
def test_shared_cache_keeps_no_image_alive():
    """The process-wide cache outlives images: once a node and the image
    it booted from are dropped, the image, its task images and its
    trampoline pool are freed while the cache keeps the traces."""
    import gc
    import weakref

    from repro.toolchain.linker import link_image
    cache = SuperblockCache()
    image = link_image([("pushpop", _PUSH_POP),
                        ("spin", _COUNTDOWN.format(count=250))])
    node = SensorNode.from_image(image, block_cache=cache)
    node.run()
    assert node.finished
    refs = [weakref.ref(image), weakref.ref(image.tasks[0]),
            weakref.ref(image.pool)]
    del node, image
    gc.collect()
    assert any(block.trap for group in cache.groups.values()
               for block in group.values())
    assert [ref() for ref in refs] == [None, None, None]


# -- the strip rule -------------------------------------------------------------

def test_strip_elision_keeps_flag_tables_out_of_the_hot_loop(
        emitted_traces):
    """The SPIN inner loop's ADIW flags feed only its own BRNE: the
    strip-mined body must test the result predicate directly, with the
    flag materialization hoisted to the strip exits."""
    node = _boot([("spin", _SPIN_STACK)])
    node.run(max_instructions=300_000)
    strip_sources = [text for _, text in emitted_traces
                     if "for j in range(1, im + 1):" in text]
    assert strip_sources, "inner spin did not strip-mine"
    for text in strip_sources:
        loop = text.split("for j in range(1, im + 1):", 1)[1]
        loop = loop.split("else:", 1)[0]
        assert "sr =" not in loop  # flags elided from the hot body


# -- tier-up: only hot heads compile --------------------------------------------

#: The cold-verdict bundle: six kernel benchmarks, 200k instructions.
_BUNDLE = tuple((name, KERNEL_BENCHMARKS[name]())
                for name in ("am", "crc", "eventchain", "lfsr", "readadc",
                             "timer"))

_COUNTDOWN = """
main:
    ldi r24, {count}
loop:
    dec r24
    brne loop
    break
"""


def _record_hot(node):
    """Every ``(pc, hot)`` answer *node*'s tracer gives its dispatch
    loop, in order."""
    tracer = node.kernel.tracer
    answers = []
    hot = tracer.hot

    def recording(pc):
        answers.append((pc, hot(pc)))
        return answers[-1][1]

    tracer.hot = recording
    return answers


def test_tier_up_changes_what_compiles_not_what_runs(monkeypatch):
    from repro.pipeline import Pipeline
    from repro.pipeline.pipeline import BuildRequest
    request = BuildRequest(sources=_BUNDLE, max_instructions=200_000)
    assert trace.TIER_UP > 1
    default = Pipeline().submit(request)
    monkeypatch.setattr(trace, "TIER_UP", 1)
    eager = Pipeline().submit(request)
    # digest, instructions, cycles, traps, per-task outcomes
    assert default["simulation"] == eager["simulation"]
    lazy, every = default["jit"]["tracer"], eager["jit"]["tracer"]
    assert 0 < lazy["compiled"] < every["compiled"]
    assert lazy["stepped"] > 0 and every["stepped"] == 0
    # What the trace compiler compiles and emits for this bundle, pinned:
    # a change that moves a count on purpose updates it and says why.
    assert default["jit"] == {
        "specializer": {"compiled": 68, "deopts": 2},
        "tracer": {"compiled": 22, "lines": 2172, "cache_hits": 0,
                   "stepped": 4731}}


def test_shared_cache_binds_a_hot_head_on_first_dispatch():
    """Heat gates compilation only: a second node of the image binds
    every trace the first compiled, with no cold dispatch at its head,
    also once the image's heat is gone (a group alone marks its head
    hot)."""
    cache = SuperblockCache()
    sources = [("spin", _COUNTDOWN.format(count=200))]
    first = SensorNode.from_sources(sources, block_cache=cache)
    first.run()
    heads = {pc for _, pc in cache.groups}
    assert heads and first.kernel.tracer.stats.compiled == len(heads)
    for forget in (False, True):
        if forget:
            cache.heat.clear()
        node = SensorNode.from_sources(sources, block_cache=cache)
        answers = _record_hot(node)
        node.run()
        assert _digest(node) == _digest(first)
        assert node.kernel.tracer.stats.compiled == 0
        assert node.kernel.tracer.stats.cache_hits == len(heads)
        assert {pc for pc, _ in answers} >= heads
        assert {hot for pc, hot in answers if pc in heads} == {True}


def test_private_heat_keeps_verdict_counters_free_of_history():
    """Under ``block_cache=False`` heat lives in the node: the same
    bundle simulated twice in one process reports the same counters."""
    from repro.pipeline.report import jit_stats_dict

    def counters():
        node = SensorNode.from_sources(list(_BUNDLE), block_cache=False)
        node.run(max_instructions=200_000)
        return jit_stats_dict(node)

    first = counters()
    assert first["tracer"]["stepped"] > 0
    assert counters() == first


def test_deopted_head_recompiles_on_its_next_dispatch():
    """A head that got a trace stays hot: when its guard fails, the
    next dispatch recompiles it instead of warming up again."""
    node = _boot([("spin", _COUNTDOWN.format(count=250))])
    answers = _record_hot(node)
    tracer, spec = node.kernel.tracer, node.kernel.specializer
    node.run(max_instructions=400)
    assert tracer.stats.compiled == 1
    (head,) = {pc for pc, hot in answers if hot}
    # Retire the trace as an injected SRAM flip does: bump the epoch.
    node.kernel.tasks[0].region_epoch += 1
    seen = len(answers)
    node.run()
    assert node.finished and spec.stats.deopts == 1
    assert [hot for pc, hot in answers[seen:] if pc == head] == [True]


def test_shared_heat_stays_bounded_over_many_images():
    """Shared heat holds the cold heads of every image up to the FIFO
    bound; a head that compiles leaves it (its group marks it hot)."""
    cache = SuperblockCache(max_groups=16)
    cold_heads = 0
    for count in range(100, 112):
        node = SensorNode.from_sources(
            [("spin", _COUNTDOWN.format(count=count))], block_cache=cache)
        answers = _record_hot(node)
        node.run()
        cold_heads += len({pc for pc, hot in answers if not hot})
    assert cold_heads > cache.max_groups
    assert len(cache.heat) == cache.max_groups
    assert len(cache.groups) <= cache.max_groups
    assert not set(cache.heat) & set(cache.groups)
