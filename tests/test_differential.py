"""Differential fuzzing: SenSmart must be an invisible substrate.

Two generators drive this:

* random straight-line AVR programs (ALU + heap traffic) run both
  bare-metal and under the kernel; architectural state must match —
  the strongest form of the paper's "programs run on SenSmart without
  knowing" claim;
* random TinyC expressions are compiled and run, and the result is
  checked against Python's evaluation of the same expression.

Every generated program additionally runs in both execution modes —
traced and per-instruction — and the two must agree on all
architectural state, cycle for cycle.  A third generator, the loop
family, reaches every trace shape (nested counted loops across the
branch counter, one-block self-loops ending on Z, C or N, forward
branches on every SREG bit, ``rcall``/``ret`` and ``break`` heads,
stack and memory traffic, runs cut at the member cap) and checks
the two modes against each other at every stop of an instruction-limit
sweep, bare-metal and under the kernel.  The region-edge family does the
same for pointer accesses on both sides of every heap and stack edge,
for SP writes on both sides of the stack area's bounds and for stacks
that outgrow their region, so every trap guard and slow arm runs.  The
loop, poll and region-edge families trace every program twice:
compiling each head on its first dispatch (``TIER_UP = 1``, full trace
coverage) and tiering up after two or three stepwise dispatches, so a
head compiles mid-loop at every stop of the sweep.
"""

from __future__ import annotations

import contextlib
import signal
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.avr import (AvrCpu, Flash, assemble, cpu as avr_cpu, ioports,
                       trace)
from repro.avr.devices.radio import RXC
from repro.baselines.native import run_native
from repro.cc import compile_c_to_asm
from repro.kernel import KernelConfig, SensorNode

# -- random assembly programs ---------------------------------------------------

_ALU_TEMPLATES = [
    "add r{a}, r{b}",
    "sub r{a}, r{b}",
    "adc r{a}, r{b}",
    "and r{a}, r{b}",
    "or r{a}, r{b}",
    "eor r{a}, r{b}",
    "mov r{a}, r{b}",
    "inc r{a}",
    "dec r{a}",
    "com r{a}",
    "neg r{a}",
    "swap r{a}",
    "lsr r{a}",
    "ror r{a}",
    "asr r{a}",
]

_regs = st.integers(16, 23)  # keep clear of pointers and immediates


@st.composite
def alu_program(draw):
    """A straight-line program: seed registers, ALU soup, heap spills."""
    lines = [".bss cells, 16", "main:"]
    for reg in range(16, 24):
        lines.append(f"    ldi r{reg}, {draw(st.integers(0, 255))}")
    count = draw(st.integers(5, 40))
    for index in range(count):
        template = draw(st.sampled_from(_ALU_TEMPLATES))
        line = template.format(a=draw(_regs), b=draw(_regs))
        lines.append("    " + line)
        if draw(st.booleans()):
            slot = draw(st.integers(0, 15))
            lines.append(f"    sts cells + {slot}, r{draw(_regs)}")
    # Read a few cells back so heap state feeds register state.
    for reg in (16, 17):
        slot = draw(st.integers(0, 15))
        lines.append(f"    lds r{reg}, cells + {slot}")
    lines.append("    break")
    return "\n".join(lines) + "\n"


@given(alu_program())
@settings(max_examples=60, deadline=None)
def test_sensmart_is_architecturally_invisible(source):
    program = assemble(source)
    flash = Flash()
    flash.load(0, program.words)
    native = AvrCpu(flash)
    native.run(max_instructions=100_000)
    assert native.halted

    node = SensorNode.from_sources([("fuzz", source)])
    kernel = node.kernel
    region = kernel.regions.by_task(0)
    node.run(max_instructions=1_000_000)
    assert node.finished

    # Register file identical (r0..r25: pointer regs unused here).
    assert bytes(native.r[:26]) == bytes(kernel.cpu.r[:26])
    # SREG flags identical (I may differ: the kernel does not fake it).
    assert native.sreg & 0x7F == kernel.cpu.sreg & 0x7F
    # Heap contents identical.
    assert native.mem.data[0x100:0x110] == \
        kernel.cpu.mem.data[region.p_l:region.p_l + 16]


def _traces(tracer) -> int:
    """Trace entries *tracer* served: compiled or rebound."""
    return tracer.stats.compiled + tracer.stats.cache_hits


@pytest.mark.tier_up_at_once  # straight-line: every pc runs once
@given(alu_program())
@settings(max_examples=40, deadline=None)
def test_superblock_fusion_is_observationally_identical(source):
    """Fused and per-instruction execution agree on everything."""
    program = assemble(source)
    cpus = []
    for fuse in (True, False):
        flash = Flash()
        flash.load(0, program.words)
        cpu = AvrCpu(flash, fuse=fuse)
        cpu.run(max_instructions=100_000)
        assert cpu.halted
        cpus.append(cpu)
    fused, stepwise = cpus
    assert _traces(fused._tracer) > 0
    assert bytes(fused.r) == bytes(stepwise.r)
    assert fused.sreg == stepwise.sreg
    assert fused.cycles == stepwise.cycles
    assert fused.instret == stepwise.instret
    assert fused.mem.data == stepwise.mem.data


@pytest.mark.tier_up_at_once
@given(alu_program())
@settings(max_examples=12, deadline=None)
def test_kernelized_fusion_is_observationally_identical(source):
    """The kernel's trap-driven execution is mode-independent too."""
    states = []
    for fuse in (True, False):
        node = SensorNode.from_sources([("fuzz", source)], fuse=fuse)
        node.run(max_instructions=1_000_000)
        assert node.finished
        if fuse:
            assert _traces(node.kernel.tracer) > 0
        cpu = node.kernel.cpu
        states.append((bytes(cpu.r), cpu.sreg, cpu.pc, cpu.sp,
                       cpu.cycles, cpu.instret, bytes(cpu.mem.data)))
    assert states[0] == states[1]


# -- loop family: every trace shape against the stepwise oracle ------------------

#: Half the active Hypothesis profile's example count: 50 under
#: the default profile (tier-1's budget); ``--hypothesis-profile=long``
#: (registered in conftest.py) raises it.
_LOOP_EXAMPLES = settings.default.max_examples // 2

#: Tier-up thresholds a family traces with besides 1 (every head compiles
#: on its first dispatch): a head steps once or twice, then compiles
#: mid-loop.
_TIER_UPS = st.sampled_from([2, 3])


@contextlib.contextmanager
def _tier_up(threshold: int):
    """Set ``trace.TIER_UP`` inside a test body (Hypothesis rejects
    function-scoped fixtures under ``@given``)."""
    saved, trace.TIER_UP = trace.TIER_UP, threshold
    try:
        yield
    finally:
        trace.TIER_UP = saved


def _traced(make, tier_up: int, **options):
    """``(threshold, node)`` for a node traced at ``TIER_UP`` 1 and one
    traced at *tier_up*."""
    return [(threshold, make(True, **options))
            for threshold in (1, tier_up)]


#: SREG readers and writers on top of the straight-line soup, so the
#: strip rule meets carries, the Z-chain of CPC/SBC/SBCI and the T
#: flag, and every SREG bit a branch may test gets written.  ADIW/SBIW
#: work on Y or Z, which the family leaves free.
_LOOP_ALU = _ALU_TEMPLATES + [
    "sbc r{a}, r{b}",
    "cp r{a}, r{b}",
    "cpc r{a}, r{b}",
    "mul r{a}, r{b}",
    "subi r{a}, {k}",
    "sbci r{a}, {k}",
    "cpi r{a}, {k}",
    "andi r{a}, {k}",
    "ori r{a}, {k}",
    "adiw r{w}, {q}",
    "sbiw r{w}, {q}",
    "bst r{a}, {bit}",
    "bld r{a}, {bit}",
    "bset {s}",
    "bclr {s}",
]

#: SREG bits BSET/BCLR write and BRBS/BRBC test: all but I (SEI and
#: CLI end a block).
_sreg_bits = st.integers(0, 6)

_cells = st.integers(0, 14)


@st.composite
def _alu_run(draw, low: int = 1, high: int = 6):
    """ALU-only lines on r16..r23 (a one-block loop body)."""
    lines = []
    for _ in range(draw(st.integers(low, high))):
        template = draw(st.sampled_from(_LOOP_ALU))
        lines.append(template.format(
            a=draw(_regs), b=draw(_regs), k=draw(st.integers(0, 255)),
            w=draw(st.sampled_from([28, 30])), q=draw(st.integers(0, 63)),
            bit=draw(st.integers(0, 7)), s=draw(_sreg_bits)))
    return lines


@st.composite
def _traffic(draw):
    """One memory or stack access (kernel traps, bare-metal members or
    terminators)."""
    kind = draw(st.sampled_from(["sts", "lds", "st", "ld", "push"]))
    reg, cell = draw(_regs), draw(_cells)
    if kind == "sts":
        return [f"sts cells + {cell}, r{reg}"]
    if kind == "lds":
        return [f"lds r{reg}, cells + {cell}"]
    if kind == "push":
        return [f"push r{reg}"] + draw(_alu_run(0, 2)) \
            + [f"pop r{draw(_regs)}"]
    mode = draw(st.sampled_from(["X", "X+"]))
    access = f"st {mode}, r{reg}" if kind == "st" else f"ld r{reg}, {mode}"
    return [f"ldi r26, lo8(cells + {cell})",
            f"ldi r27, hi8(cells + {cell})", access]


@st.composite
def _body(draw):
    """A straight run mixing ALU soup and memory traffic."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lines += draw(_traffic())
        else:
            lines += draw(_alu_run(1, 4))
    return lines


@st.composite
def loop_program(draw):
    """A terminating program of loop-shaped segments, plus the fusion
    cap to run it under.

    Registers: r16..r23 data, r24/r25 loop counters, X for pointer
    traffic, Y and Z for ADIW/SBIW, r0/r1 written by MUL.  Every loop
    counts down to its end (zero, or past it for the C and N exits),
    and every call returns, so the program always reaches its
    ``break``.
    """
    lines = [".bss cells, 16", "main:"]
    lines += [f"    ldi r{reg}, {draw(st.integers(0, 255))}"
              for reg in range(16, 24)]
    helpers = []
    for index in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(
            ["run", "long", "self", "carry", "sign", "test", "nested",
             "call"]))
        if kind == "run":
            body = draw(_body())
        elif kind == "long":  # past the default 48-member cap
            body = draw(_alu_run(49, 56))
        elif kind == "self":  # one-block dec/brne self-loop
            body = [f"ldi r24, {draw(st.integers(0, 255))}",
                    f"self{index}:"] + draw(_alu_run(0, 3)) \
                + ["dec r24", f"brne self{index}"]
        elif kind == "carry":  # a self-loop that ends on C
            body = [f"ldi r24, {draw(st.integers(0, 255))}",
                    f"self{index}:"] + draw(_alu_run(0, 3)) \
                + ["subi r24, 1", f"brcc self{index}"]
        elif kind == "sign":  # a self-loop that ends on N
            body = [f"ldi r24, {draw(st.integers(0, 127))}",
                    f"self{index}:"] + draw(_alu_run(0, 3)) \
                + ["dec r24", f"brpl self{index}"]
        elif kind == "test":  # a forward branch on any SREG bit
            test = draw(st.sampled_from(["brbs", "brbc"]))
            body = [f"ldi r24, {draw(st.integers(1, 40))}",
                    f"test{index}:"] + draw(_alu_run(1, 3)) \
                + [f"{test} {draw(_sreg_bits)}, skip{index}"] \
                + draw(_alu_run(1, 1)) + [f"skip{index}:"] \
                + draw(_alu_run(0, 2)) + ["dec r24", f"brne test{index}"]
        elif kind == "nested":  # trip counts cross the branch counter
            body = [f"ldi r25, {draw(st.integers(1, 12))}",
                    f"outer{index}:",
                    f"ldi r24, {draw(st.integers(1, 40))}",
                    f"inner{index}:"] + draw(_body()) \
                + ["dec r24", f"brne inner{index}"] + draw(_alu_run(0, 2)) \
                + ["dec r25", f"brne outer{index}"]
        else:
            body = [f"rcall helper{index}"]
            helpers += [f"helper{index}:"] + draw(_body()) + ["ret"]
        lines += ["    " + line if not line.endswith(":") else line
                  for line in body]
    lines.append("    break")
    lines += ["    " + line if not line.endswith(":") else line
              for line in helpers]
    cap = draw(st.sampled_from([2, 3, 48]))
    return "\n".join(lines) + "\n", cap


def _loop_stops(stride: int):
    yield from range(1, 64)
    yield from range(64, 1_000_000, stride)


def _bare_state(cpu):
    return (bytes(cpu.r), cpu.pc, cpu.sp, cpu.sreg, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data), cpu.halted)


def _node_state(node):
    kernel, cpu = node.kernel, node.cpu
    stats = kernel.stats
    return (bytes(cpu.r), cpu.pc, cpu.sp, cpu.sreg, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data), cpu.halted,
            dict(stats.trap_counts), stats.kernel_cycles,
            stats.context_switches, stats.scheduler_checks,
            tuple(stats.terminations),
            tuple((task.kernel_cycles, task.min_sp_seen,
                   task.max_stack_used, task.branch_counter,
                   task.exit_reason) for task in kernel.tasks.values()))


def _sweep(make, state, stride: int, tier_up: int) -> None:
    """Advance a stepwise run and two traced ones (``_traced``) through
    every stop; their states must agree at each one and all must
    finish."""
    stepwise, traced = make(False), _traced(make, tier_up)
    for stop in _loop_stops(stride):
        stepwise.run(max_instructions=stop)
        for threshold, node in traced:
            with _tier_up(threshold):
                node.run(max_instructions=stop)
            assert state(node) == state(stepwise), (threshold, stop)
        if getattr(stepwise, "cpu", stepwise).halted:
            return
        assert stop < 200_000, "generated program did not terminate"


#: Shrunk failure: a thunk head that did not write the pc left it on the
#: block start when ``break`` ended the last task (stepwise leaves it on
#: the trap site).
_BREAK_AFTER_RUN = (".bss cells, 16\nmain:\n"
                    + "".join(f"    ldi r{reg}, 0\n" for reg in range(16, 24))
                    + "    add r16, r16\n" * 53 + "    break\n")


@given(loop_program(), st.sampled_from([7, 13, 31]), _TIER_UPS)
@settings(max_examples=_LOOP_EXAMPLES, deadline=None)
@example(program=(_BREAK_AFTER_RUN, 2), stride=7, tier_up=2)
def test_loop_family_matches_stepwise_at_every_stop(program, stride,
                                                    tier_up):
    source, cap = program
    image = assemble(source)

    def bare(fuse):
        flash = Flash()
        flash.load(0, image.words)
        cpu = AvrCpu(flash, fuse=fuse, block_cache=False)
        cpu.pc = image.entry
        return cpu

    def kernel(fuse):
        # Two copies and a short slice: preemption lands mid-loop.
        return SensorNode.from_sources(
            [("a", source), ("b", source)],
            config=KernelConfig(time_slice_cycles=3_000), fuse=fuse,
            block_cache=False)

    with mock.patch.object(avr_cpu, "_MAX_BLOCK", cap):
        _sweep(bare, _bare_state, stride, tier_up)
        _sweep(kernel, _node_state, stride, tier_up)


# -- poll-loop family: idle-loop fast-forward against the stepwise oracle --------

#: Polled device -> (port, bit, spin while the bit is set); None is
#: drawn per program.  Every port but TCNT0 is stable, so only its loop
#: must never be fast-forwarded.
_POLLS = {
    "rx": (ioports.UCSR0A, RXC, False),             # host delivers a byte
    "tx": (ioports.UCSR0A, ioports.UDRE, False),    # transmitter idles
    "adc": (ioports.ADCSRA, ioports.ADSC, True),    # conversion ends
    "tcnt0": (ioports.TCNT0, None, None),           # ticks every 32 cycles
}

_START_ADC = [f"ldi r18, {1 << ioports.ADSC}", f"sts {ioports.ADCSRA}, r18"]
_SPIN_ADSC = [f"andi r17, {1 << ioports.ADSC}", "brne poll"]

#: Loop members: idempotent ones, with which one iteration repeats the
#: one before it, and a counter, with which none does.
_POLL_MEMBERS = ["mov r18, r17", "andi r18, {k}", "ldi r19, {k}",
                 "inc r21"]


@st.composite
def _poll_members(draw):
    return [draw(st.sampled_from(_POLL_MEMBERS))
            .format(k=draw(st.integers(0, 255)))
            for _ in range(draw(st.integers(0, 2)))]


def _poll_source(port: int, spin, start=(), before=(),
                 rounds: int = 1) -> str:
    """A task that *rounds* times runs *start*, then polls: *before*,
    ``lds r17, port``, then *spin*, the rest of the round, which closes
    the loop back to ``poll``."""
    lines = [f"ldi r20, {rounds}", "round:", *start, "poll:", *before,
             f"lds r17, {port}", *spin, "dec r20", "brne round", "break"]
    return ".bss cells, 16\nmain:\n" + "".join(
        line + "\n" if line.endswith(":") else f"    {line}\n"
        for line in lines)


@st.composite
def poll_program(draw):
    """A task that, one to three times, starts a device operation (a TX
    byte, an ADC conversion; RX bytes come from the host) and spins on
    its status bit until it is done: ``lds`` of the status register,
    optional members before and after it, an optional store (which
    rules out fast-forward), and a ``sbrs``/``sbrc`` + ``rjmp`` or
    ``andi`` + ``breq``/``brne`` backedge."""
    device = draw(st.sampled_from(sorted(_POLLS)))
    port, bit, spin_while_set = _POLLS[device]
    if bit is None:
        bit, spin_while_set = draw(st.integers(0, 5)), draw(st.booleans())
    start = {"tx": [f"sts {ioports.UDR0}, r16", "inc r16"],
             "adc": _START_ADC}.get(device, [])
    before = draw(_poll_members())
    spin = draw(_poll_members())
    if draw(st.integers(0, 3)) == 0:
        spin.append(f"sts cells + {draw(_cells)}, r17")
    if draw(st.booleans()):
        skip = "sbrc" if spin_while_set else "sbrs"
        spin += [f"{skip} r17, {bit}", "rjmp poll"]
    else:
        branch = "brne" if spin_while_set else "breq"
        spin += [f"andi r17, {1 << bit}", f"{branch} poll"]
    if device == "rx":
        spin.append(f"lds r22, {ioports.UDR0}")
    return _poll_source(port, spin, start, before,
                        draw(st.integers(1, 3)))


def _poll_state(node):
    radio = node.radio
    return _node_state(node) + (radio.tx_seq, tuple(radio.rx_queue),
                                tuple(radio.tx_cycles),
                                node.adc.samples_taken)


def _poll_sweep(make, limit: str, stops, tier_up: int) -> None:
    """Stop a stepwise node and two traced ones (``_traced``) at every
    stop of *limit*; the host delivers one radio byte to each after
    every eighth stop."""
    stepwise, traced = make(False), _traced(make, tier_up)
    for index, stop in enumerate(stops(stepwise)):
        stepwise.run(**{limit: stop})
        for threshold, node in traced:
            with _tier_up(threshold):
                node.run(**{limit: stop})
            assert _poll_state(node) == _poll_state(stepwise), \
                (threshold, limit, stop)
        if stepwise.finished:
            return
        if index % 8 == 7:
            for node in (stepwise, *(node for _, node in traced)):
                node.radio.deliver(b"\x5a")
    raise AssertionError("generated program did not terminate")


def _instruction_stops(node):
    yield from range(1, 48)
    yield from range(48, 400_000, 29)


def _cycle_stops(node):
    yield from range(node.cpu.cycles + 89, 40_000_000, 89)


# Shrunk failures of the family with the skip deliberately broken, kept
# so each break is caught on every run: an ADC poll (skip past the due
# completion, or past the instruction or cycle limit), the same with a
# counter member (skip without comparing the registers), a TCNT0 poll
# (TCNT0 declared stable), and two TX polls (skip past the branch
# counter's kernel entry).
_ADC_POLL = _poll_source(ioports.ADCSRA, _SPIN_ADSC, _START_ADC)
_ADC_POLL_COUNTING = _poll_source(ioports.ADCSRA, ["inc r21", *_SPIN_ADSC],
                                  _START_ADC)
_TCNT0_POLL = _poll_source(ioports.TCNT0, ["andi r17, 16", "brne poll"])
_TX_POLLS = _poll_source(ioports.UCSR0A,
                         [f"andi r17, {1 << ioports.UDRE}", "breq poll"],
                         [f"sts {ioports.UDR0}, r16", "inc r16"], rounds=2)


@given(poll_program(), st.none() | poll_program(), st.integers(1, 20_000),
       _TIER_UPS)
@settings(max_examples=_LOOP_EXAMPLES, deadline=None)
@example(first=_ADC_POLL, second=None, hold=1, tier_up=2)
@example(first=_ADC_POLL_COUNTING, second=None, hold=1, tier_up=2)
@example(first=_TCNT0_POLL, second=None, hold=1, tier_up=2)
@example(first=_TX_POLLS, second=None, hold=1, tier_up=2)
def test_poll_family_matches_stepwise_at_every_stop(first, second, hold,
                                                    tier_up):
    """Idle poll loops fast-forward in closed form; a traced node must
    still stop on exactly the stepwise state at every instruction stop,
    every cycle stop (the fleet's horizon stops) and an ``until()``
    stop, with two tasks preempting at slice expiry, while the host
    delivers radio bytes between run slices."""
    sources = [("a", first)] + ([("b", second)] if second else [])

    def make(fuse):
        return SensorNode.from_sources(
            sources, config=KernelConfig(time_slice_cycles=3_000),
            fuse=fuse, block_cache=False)

    _poll_sweep(make, "max_instructions", _instruction_stops, tier_up)
    _poll_sweep(make, "max_cycles", _cycle_stops, tier_up)
    # until() pins the traces' horizon: they exit at their first seam,
    # so a traced stop is a dispatch boundary at or after stepwise's.
    stepwise, traced = make(False), _traced(make, tier_up)
    hold += stepwise.cpu.cycles
    for threshold, node in [(trace.TIER_UP, stepwise), *traced]:
        node.radio.deliver(b"\x5a\x5a")
        with _tier_up(threshold):
            node.run(max_instructions=400_000,
                     until=lambda cpu: cpu.cycles >= hold)
    for threshold, node in sorted(traced,
                                  key=lambda pair: pair[1].cpu.instret):
        if stepwise.cpu.instret < node.cpu.instret:
            stepwise.run(max_instructions=node.cpu.instret)
        assert _poll_state(node) == _poll_state(stepwise), threshold


# -- region-edge family: trap guards and slow arms against the oracle ----------

#: Stack bytes every task of the family starts with; its heap takes the
#: rest of the application area, so a few dozen call frames outgrow the
#: stack and a slow arm relocates it.
_EDGE_STACK = 96

_EDGE_FORMS = ("X", "X+", "-X", "Y+q")

#: The three ways to write SPL then SPH from r16/r17 (the forms
#: ``test_sp_forgery_is_rejected`` pins).
_SP_WRITES = {
    "out": ["out 0x3D, r16", "out 0x3E, r17"],
    "sts": ["sts 0x5D, r16", "sts 0x5E, r17"],
    "st_x": ["ldi r26, 0x5D", "ldi r27, 0", "st X+, r16", "st X, r17"],
}


@st.composite
def _edge_op(draw):
    """One step of a region-edge task: an indirect access at -1, 0 or
    +1 of a region edge; an SP write at -1, 0 or +1 of the lowest or
    highest SP the stack area allows, then a push loop; a push loop or
    an ``rcall`` recursion *depth* deep (a frame is a pushed byte plus a
    return address); or a ``pop`` of an empty stack."""
    kind = draw(st.sampled_from(["access"] * 4 + ["push", "call"] * 2
                                + ["pop", "sp"]))
    if kind == "push":  # the floor is 92 bytes down
        return ("push", draw(st.integers(60, 140)))
    if kind == "call":
        return ("call", draw(st.integers(20, 48)))
    if kind == "pop":
        return ("pop",)
    if kind == "sp":
        return ("sp", draw(st.sampled_from(["sp_lo", "sp_hi"])),
                draw(st.integers(-1, 1)),
                draw(st.sampled_from(sorted(_SP_WRITES))),
                draw(st.integers(1, 8)))
    form = draw(st.sampled_from(_EDGE_FORMS))
    return ("access",
            draw(st.sampled_from(["heap_lo", "heap_hi", "stack_lo",
                                  "stack_hi"])),
            draw(st.integers(-1, 1)), form, draw(st.booleans()),
            draw(_regs), draw(st.integers(0, 63)) if form == "Y+q" else 0)


def _edge_heap(tasks: int) -> int:
    return len(KernelConfig().app_area) // tasks - _EDGE_STACK


def _sp_in_stack_area(node) -> bool:
    """The running task's SP is one the kernel's SP check accepts.  Both
    tiers run the same SP-write handler, so agreeing with the oracle
    cannot show that check went missing; this can."""
    task = node.kernel.current
    if task is None or not task.alive:
        return True
    region = node.kernel.regions.by_task(task.task_id)
    return region.p_h - 1 <= node.cpu.sp <= region.p_u - 1


@contextlib.contextmanager
def _watchdog(seconds: int):
    """Fail instead of hanging when a run stops making progress (a slow
    arm that exits without running its trap re-enters the same trace
    forever; an example takes well under a second)."""
    def expire(signum, frame):
        raise TimeoutError(f"no stop reached within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _edge_source(ops, heap: int) -> str:
    """Render *ops* for a task with a *heap*-byte heap and an
    ``_EDGE_STACK``-byte stack.  The edges are logical addresses: the
    first heap byte, one past the heap, the lowest stack byte and one
    past the top of the stack; an SP may lie one below the lowest stack
    byte (a full stack) up to one below the top (an empty one)."""
    config = KernelConfig()
    top = config.memory_size
    edges = {"heap_lo": config.ram_start,
             "heap_hi": config.ram_start + heap,
             "stack_lo": top - _EDGE_STACK, "stack_hi": top,
             "sp_lo": top - _EDGE_STACK - 1, "sp_hi": top - 1}
    lines = [f"ldi r{reg}, {0x11 * (reg - 15)}" for reg in range(16, 24)]
    helpers = []
    for index, op in enumerate(ops):
        if op[0] == "push":
            lines += [f"ldi r24, {op[1]}", f"fill{index}:", "push r16",
                      "dec r24", f"brne fill{index}", f"ldi r24, {op[1]}",
                      f"drain{index}:", "pop r17", "dec r24",
                      f"brne drain{index}"]
        elif op[0] == "call":
            lines += [f"ldi r24, {op[1]}", f"rcall dive{index}"]
            helpers += [f"dive{index}:", "push r16", "dec r24",
                        f"breq up{index}", f"rcall dive{index}",
                        f"up{index}:", "pop r17", "ret"]
        elif op[0] == "pop":
            lines.append("pop r17")
        elif op[0] == "sp":
            _, edge, offset, form, pushes = op
            sp = edges[edge] + offset
            lines += [f"ldi r16, {sp & 0xFF}", f"ldi r17, {sp >> 8}",
                      *_SP_WRITES[form], f"ldi r24, {pushes}",
                      f"forge{index}:", "push r16", "dec r24",
                      f"brne forge{index}"]
        else:
            _, edge, offset, form, store, reg, q = op
            address = edges[edge] + offset
            if form == "Y+q":
                base, pointer = address - q, 28
                access = f"std Y+{q}, r{reg}" if store \
                    else f"ldd r{reg}, Y+{q}"
            else:
                # -X decrements first: start one above the edge.
                base = address + 1 if form == "-X" else address
                pointer = 26
                access = f"st {form}, r{reg}" if store \
                    else f"ld r{reg}, {form}"
            lines += [f"ldi r{pointer}, {base & 0xFF}",
                      f"ldi r{pointer + 1}, {base >> 8}", access]
    lines += ["break"] + helpers
    return f".bss cells, {heap}\nmain:\n" + "".join(
        line + "\n" if line.endswith(":") else f"    {line}\n"
        for line in lines)


# Shrunk failures of the family with the trace exit epilogue deliberately
# broken, kept so each break is caught on every run: a push loop past
# the stack floor (a pc picked for the neighbouring exit; the push slow
# arm's dispatch dropped, which re-enters the push site forever), and
# two push loops beside an underflowing task (a spent branch counter
# stored instead of entering the scheduler).  Then one per SP-write
# form, with the SP check dropped on that form's path: an SP one past
# the lowest or highest one the stack area allows.
@given(st.lists(_edge_op(), min_size=1, max_size=5),
       st.none() | st.lists(_edge_op(), min_size=1, max_size=5),
       st.sampled_from([7, 13, 31]), _TIER_UPS)
@settings(max_examples=_LOOP_EXAMPLES, deadline=None)
@example(first=[("push", 60)], second=None, stride=7, tier_up=2)
@example(first=[("push", 93)], second=None, stride=7, tier_up=2)
@example(first=[("pop",)], second=[("push", 60), ("push", 68)], stride=7,
         tier_up=2)
@example(first=[("sp", "sp_lo", -1, "out", 1)], second=None, stride=7,
         tier_up=2)
@example(first=[("sp", "sp_hi", 1, "sts", 1)], second=None, stride=7,
         tier_up=2)
@example(first=[("sp", "sp_lo", -1, "st_x", 1)], second=None, stride=7,
         tier_up=2)
def test_region_edge_family_matches_stepwise_at_every_stop(first, second,
                                                           stride, tier_up):
    """Pointer accesses on both sides of every heap and stack edge
    (fast arms, guards, slow arms that fault the task), SP writes
    through OUT, STS and ``st X`` on both sides of the stack area's
    bounds, stacks that outgrow their region (push and call slow arms
    that relocate it, or kill the task when no donor is left) and an
    underflowing ``pop``, in one or two tasks: traced, the node stops on
    the stepwise state at every stop of an instruction sweep, and the
    running task's SP stays inside its stack area."""
    programs = [first] + ([second] if second else [])
    heap = _edge_heap(len(programs))
    sources = [(f"t{index}", _edge_source(ops, heap))
               for index, ops in enumerate(programs)]

    def make(fuse):
        return SensorNode.from_sources(
            sources, config=KernelConfig(time_slice_cycles=3_000),
            fuse=fuse, block_cache=False)

    stepwise = make(False)
    assert {region.stack_size for region in stepwise.kernel.regions
            .regions} == {_EDGE_STACK}
    traced = _traced(make, tier_up)
    with _watchdog(60):
        for stop in _loop_stops(stride):
            stepwise.run(max_instructions=stop)
            assert _sp_in_stack_area(stepwise), stop
            for threshold, node in traced:
                with _tier_up(threshold):
                    node.run(max_instructions=stop)
                assert _node_state(node) == _node_state(stepwise), \
                    (threshold, stop)
            if stepwise.finished:
                return
            assert stop < 200_000, "generated program did not terminate"


# -- random TinyC expressions -----------------------------------------------------

@st.composite
def c_expression(draw, depth: int = 0):
    """(text, python_value) pairs over u16 arithmetic."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(0, 0xFFFF))
        return str(value), value
    op = draw(st.sampled_from(
        ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==",
         "!=", "<", "<=", ">", ">="]))
    left_text, left_value = draw(c_expression(depth=depth + 1))
    right_text, right_value = draw(c_expression(depth=depth + 1))
    if op in ("<<", ">>"):
        shift = draw(st.integers(0, 15))
        right_text, right_value = str(shift), shift
    if op in ("/", "%") and right_value == 0:
        right_text, right_value = "1", 1  # division by zero is UB-ish
    text = f"({left_text} {op} {right_text})"
    if op == "+":
        value = (left_value + right_value) & 0xFFFF
    elif op == "-":
        value = (left_value - right_value) & 0xFFFF
    elif op == "*":
        value = (left_value * right_value) & 0xFFFF
    elif op == "/":
        value = left_value // right_value
    elif op == "%":
        value = left_value % right_value
    elif op == "&":
        value = left_value & right_value
    elif op == "|":
        value = left_value | right_value
    elif op == "^":
        value = left_value ^ right_value
    elif op == "<<":
        value = (left_value << right_value) & 0xFFFF
    elif op == ">>":
        value = left_value >> right_value
    else:
        value = int({
            "==": left_value == right_value,
            "!=": left_value != right_value,
            "<": left_value < right_value,
            "<=": left_value <= right_value,
            ">": left_value > right_value,
            ">=": left_value >= right_value,
        }[op])
    return text, value


@given(c_expression())
@settings(max_examples=40, deadline=None)
def test_tinyc_expressions_match_python(pair):
    text, expected = pair
    asm = compile_c_to_asm(f"""
u16 out;
void main() {{ out = {text}; halt(); }}
""")
    result = run_native(asm, max_instructions=2_000_000)
    assert result.finished
    measured = result.heap_byte(0) | (result.heap_byte(1) << 8)
    assert measured == expected, text
